package bitmat

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

func TestSetGet(t *testing.T) {
	m := New(3, 130) // force multi-word rows
	m.Set(1, 0, true)
	m.Set(1, 64, true)
	m.Set(2, 129, true)
	if !m.Get(1, 0) || !m.Get(1, 64) || !m.Get(2, 129) {
		t.Fatal("set bits not readable")
	}
	if m.Get(0, 0) || m.Get(1, 1) {
		t.Fatal("unset bits read as set")
	}
	m.Set(1, 64, false)
	if m.Get(1, 64) {
		t.Fatal("clear failed")
	}
}

func TestRowWeightAndXor(t *testing.T) {
	m := New(2, 100)
	for _, c := range []int{0, 5, 63, 64, 99} {
		m.Set(0, c, true)
	}
	if m.RowWeight(0) != 5 {
		t.Fatalf("weight = %d, want 5", m.RowWeight(0))
	}
	m.Set(1, 5, true)
	m.XorRow(0, 1)
	if m.Get(0, 5) || m.RowWeight(0) != 4 {
		t.Fatal("XorRow wrong")
	}
}

func TestRankIdentityAndSingular(t *testing.T) {
	m := New(4, 4)
	for i := 0; i < 4; i++ {
		m.Set(i, i, true)
	}
	if m.Rank() != 4 {
		t.Fatalf("identity rank = %d", m.Rank())
	}
	// Duplicate row -> rank 3.
	m2 := m.Clone()
	r0, r3 := m2.Row(0), m2.Row(3)
	copy(r3, r0)
	if m2.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", m2.Rank())
	}
	// Rank must not destroy the matrix.
	if !m.Get(0, 0) || m.Get(0, 1) {
		t.Fatal("Rank modified receiver")
	}
}

func TestFirstSetFrom(t *testing.T) {
	m := New(1, 200)
	m.Set(0, 70, true)
	m.Set(0, 150, true)
	if got := m.firstSetFrom(0, 0); got != 70 {
		t.Fatalf("firstSetFrom(0) = %d", got)
	}
	if got := m.firstSetFrom(0, 71); got != 150 {
		t.Fatalf("firstSetFrom(71) = %d", got)
	}
	if got := m.firstSetFrom(0, 151); got != -1 {
		t.Fatalf("firstSetFrom(151) = %d", got)
	}
}

// TestSolveRecoversRandomSystems builds u (unknown payloads), a random
// full-rank A, computes rhs = A·u, and checks Solve returns u.
func TestSolveRecoversRandomSystems(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu := 1 + rng.Intn(20)        // unknowns
		nr := nu + rng.Intn(10)       // equations (>= unknowns)
		payload := 8 + 2*rng.Intn(12) // payload size
		u := make([][]byte, nu)
		for i := range u {
			u[i] = make([]byte, payload)
			rng.Read(u[i])
		}
		a := New(nr, nu)
		rhs := make([][]byte, nr)
		for r := 0; r < nr; r++ {
			rhs[r] = make([]byte, payload)
			for c := 0; c < nu; c++ {
				if rng.Intn(2) == 1 {
					a.Set(r, c, true)
					gf.XORSlice(rhs[r], u[c])
				}
			}
		}
		if a.Rank() < nu {
			return true // under-determined by chance
		}
		got, _, ok := TrySolve(a, rhs)
		if !ok {
			return false
		}
		for c := 0; c < nu; c++ {
			if !bytes.Equal(got[c], u[c]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSolveUnderDetermined(t *testing.T) {
	a := New(2, 3)
	a.Set(0, 0, true)
	a.Set(1, 1, true)
	if _, rank, ok := TrySolve(a, [][]byte{make([]byte, 4), make([]byte, 4)}); ok || rank != 2 {
		t.Fatalf("under-determined system: ok=%v rank=%d, want false/2", ok, rank)
	}
}

func TestSolveRhsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rhs length mismatch accepted")
		}
	}()
	a := New(2, 2)
	TrySolve(a, [][]byte{make([]byte, 4)})
}

func TestTrySolveRank(t *testing.T) {
	// 3 unknowns, equations only over the first two -> rank 2, not ok.
	a := New(3, 3)
	a.Set(0, 0, true)
	a.Set(1, 1, true)
	a.Set(2, 0, true)
	a.Set(2, 1, true)
	rhs := [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2)}
	_, rank, ok := TrySolve(a, rhs)
	if ok || rank != 2 {
		t.Fatalf("got ok=%v rank=%d, want false/2", ok, rank)
	}
}

func TestMulBitsMatchesFieldMul(t *testing.T) {
	for _, f := range []*gf.Field{gf.New8(), gf.New16()} {
		rng := rand.New(rand.NewSource(9))
		w := int(f.Width())
		for trial := 0; trial < 50; trial++ {
			e := uint32(rng.Intn(f.Size()))
			x := uint32(rng.Intn(f.Size()))
			m := MulBits(f, e)
			// Apply m to bits of x.
			var y uint32
			for i := 0; i < w; i++ {
				var bit uint32
				for j := 0; j < w; j++ {
					if m.Get(i, j) && x&(1<<uint(j)) != 0 {
						bit ^= 1
					}
				}
				y |= bit << uint(i)
			}
			if y != f.Mul(e, x) {
				t.Fatalf("w=%d: bitmat mul %d*%d = %d, want %d", w, e, x, y, f.Mul(e, x))
			}
		}
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1, 2)
}
