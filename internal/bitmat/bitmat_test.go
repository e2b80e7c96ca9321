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

// TestRankIdentityAndSingular: the identity has full rank; repeating a row
// in place of the last loses one — in TrySolve and in the Solver alike.
func TestRankIdentityAndSingular(t *testing.T) {
	for _, tc := range []struct {
		rows [][]int32
		rank int
	}{
		{[][]int32{{0}, {1}, {2}, {3}}, 4},
		{[][]int32{{0}, {1}, {2}, {0}}, 3},
	} {
		m := New(4, 4)
		rhs := make([][]byte, 4)
		var s Solver
		s.Reset(4, 4)
		for r, row := range tc.rows {
			m.Set(r, int(row[0]), true)
			rhs[r] = []byte{byte(r)}
			s.AddRow(row)
		}
		if _, rank, _ := TrySolve(m, rhs); rank != tc.rank {
			t.Fatalf("TrySolve rank %d, want %d", rank, tc.rank)
		}
		if d := s.Analyze(4); d != 4-tc.rank {
			t.Fatalf("Solver deficit %d, want %d", d, 4-tc.rank)
		}
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
		got, _, ok := TrySolve(a, rhs)
		if !ok {
			return true // under-determined by chance
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

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1, 2)
}
