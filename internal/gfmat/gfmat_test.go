package gfmat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

func randomInvertible(t *testing.T, f *gf.Field, n int, rng *rand.Rand) *Matrix {
	t.Helper()
	for tries := 0; tries < 20; tries++ {
		m := New(f, n, n)
		for i := range m.Data {
			m.Data[i] = uint32(rng.Intn(f.Size()))
		}
		if _, err := m.Invert(); err == nil {
			return m
		}
	}
	t.Fatal("could not build a random invertible matrix")
	return nil
}

func isIdentity(m *Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			want := uint32(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				return false
			}
		}
	}
	return true
}

func TestIdentityMul(t *testing.T) {
	f := gf.New16()
	rng := rand.New(rand.NewSource(1))
	m := randomInvertible(t, f, 8, rng)
	if !isIdentity(Identity(f, 8).Mul(m).Mul(mustInvert(t, m))) {
		t.Fatal("I*M*M^-1 != I")
	}
}

func mustInvert(t *testing.T, m *Matrix) *Matrix {
	t.Helper()
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func TestInvertProperty(t *testing.T) {
	f := gf.New16()
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := New(f, n, n)
		for i := range m.Data {
			m.Data[i] = uint32(rng.Intn(f.Size()))
		}
		inv, err := m.Invert()
		if err != nil {
			return true // singular is fine; nothing to check
		}
		return isIdentity(m.Mul(inv)) && isIdentity(inv.Mul(m))
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvertSingular(t *testing.T) {
	f := gf.New8()
	m := New(f, 3, 3)
	// Two equal rows -> singular.
	for j := 0; j < 3; j++ {
		m.Set(0, j, uint32(j+1))
		m.Set(1, j, uint32(j+1))
		m.Set(2, j, uint32(7*j+2))
	}
	if _, err := m.Invert(); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(gf.New8(), 2, 3).Invert(); err == nil {
		t.Fatal("non-square inverted")
	}
}

func TestVandermondeShapeAndFirstRows(t *testing.T) {
	f := gf.New16()
	v := Vandermonde(f, 5, 3)
	// Row for x=0 must be [1, 0, 0].
	if v.At(0, 0) != 1 || v.At(0, 1) != 0 || v.At(0, 2) != 0 {
		t.Fatalf("x=0 row wrong: %v", v.Row(0))
	}
	// Row for x=1 must be all ones.
	for j := 0; j < 3; j++ {
		if v.At(1, j) != 1 {
			t.Fatalf("x=1 row wrong: %v", v.Row(1))
		}
	}
	// General rows: entry (i,j) == i^j in the field.
	for i := 2; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if v.At(i, j) != f.Pow(uint32(i), j) {
				t.Fatalf("entry (%d,%d) = %d, want %d", i, j, v.At(i, j), f.Pow(uint32(i), j))
			}
		}
	}
}

func TestCauchyEntries(t *testing.T) {
	f := gf.New16()
	c := Cauchy(f, 4, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			want := f.Inv(uint32(i+6) ^ uint32(j))
			if c.At(i, j) != want {
				t.Fatalf("cauchy (%d,%d) = %d want %d", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestCauchySquareSubmatricesInvertible(t *testing.T) {
	f := gf.New16()
	c := Cauchy(f, 6, 6)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		rows := rng.Perm(6)[:n]
		sub := New(f, n, n)
		cols := rng.Perm(6)[:n]
		for i, r := range rows {
			for j, cc := range cols {
				sub.Set(i, j, c.At(r, cc))
			}
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("cauchy %dx%d submatrix singular: rows=%v cols=%v", n, n, rows, cols)
		}
	}
}

func TestCauchyInverseMatchesGaussian(t *testing.T) {
	f := gf.New16()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		// Distinct x and y points, disjoint sets.
		perm := rng.Perm(200)
		x := make([]uint32, n)
		y := make([]uint32, n)
		for i := 0; i < n; i++ {
			x[i] = uint32(perm[i])
			y[i] = uint32(perm[n+i])
		}
		c := New(f, n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c.Set(i, j, f.Inv(x[i]^y[j]))
			}
		}
		want := mustInvert(t, c)
		got, err := CauchyInverse(f, x, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("trial %d: closed-form inverse disagrees with Gaussian at %d", trial, i)
			}
		}
	}
}

func TestCauchyInverseErrors(t *testing.T) {
	f := gf.New16()
	if _, err := CauchyInverse(f, []uint32{1, 2}, []uint32{3}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := CauchyInverse(f, []uint32{1, 1}, []uint32{3, 4}); err == nil {
		t.Fatal("duplicate x accepted")
	}
	if _, err := CauchyInverse(f, []uint32{1, 2}, []uint32{2, 4}); err == nil {
		t.Fatal("intersecting x/y accepted")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	New(gf.New8(), 2, 3).Mul(New(gf.New8(), 2, 3))
}
