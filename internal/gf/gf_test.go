package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFieldRejectsBadWidth(t *testing.T) {
	if _, err := NewField(1, 0x3); err == nil {
		t.Fatal("width 1 accepted")
	}
	if _, err := NewField(17, 0x3); err == nil {
		t.Fatal("width 17 accepted")
	}
}

func TestNewFieldRejectsNonPrimitive(t *testing.T) {
	// x^8 + 1 is not primitive over GF(2).
	if _, err := NewField(8, 0x101); err == nil {
		t.Fatal("non-primitive polynomial accepted")
	}
}

func TestFieldSizes(t *testing.T) {
	if New8().Size() != 256 || New8().Width() != 8 {
		t.Fatalf("GF(2^8) size/width wrong: %d/%d", New8().Size(), New8().Width())
	}
	if New16().Size() != 65536 || New16().Width() != 16 {
		t.Fatalf("GF(2^16) size/width wrong: %d/%d", New16().Size(), New16().Width())
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for _, f := range []*Field{New8(), New16()} {
		for i := 0; i < f.n-1; i++ {
			x := f.exp[i]
			if f.log[x] != uint32(i) {
				t.Fatalf("w=%d: log(exp(%d)) = %d", f.w, i, f.log[x])
			}
		}
	}
}

func TestMulExhaustive8(t *testing.T) {
	f := New8()
	// Verify against carry-less multiplication with reduction.
	slowMul := func(a, b uint32) uint32 {
		var p uint32
		for b > 0 {
			if b&1 != 0 {
				p ^= a
			}
			a <<= 1
			if a&0x100 != 0 {
				a ^= Poly8
			}
			b >>= 1
		}
		return p
	}
	for a := uint32(0); a < 256; a++ {
		for b := uint32(0); b < 256; b++ {
			if got, want := f.Mul(a, b), slowMul(a, b); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, f := range []*Field{New8(), New16()} {
		mask := f.mask
		// Commutativity and associativity of multiplication; distributivity.
		err := quick.Check(func(a, b, c uint32) bool {
			a, b, c = a&mask, b&mask, c&mask
			if f.Mul(a, b) != f.Mul(b, a) {
				return false
			}
			if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
				return false
			}
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}, nil)
		if err != nil {
			t.Fatalf("w=%d: %v", f.w, err)
		}
		// Inverses.
		err = quick.Check(func(a uint32) bool {
			a &= mask
			if a == 0 {
				return true
			}
			return f.Mul(a, f.Inv(a)) == 1 && f.Div(1, a) == f.Inv(a)
		}, nil)
		if err != nil {
			t.Fatalf("w=%d inverse: %v", f.w, err)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := New16()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := uint32(rng.Intn(f.n))
		b := uint32(1 + rng.Intn(f.n-1))
		if f.Mul(f.Div(a, b), b) != a {
			t.Fatalf("(%d/%d)*%d != %d", a, b, b, a)
		}
	}
}

func TestPow(t *testing.T) {
	f := New16()
	for _, a := range []uint32{0, 1, 2, 3, 0x1234, 0xFFFF} {
		want := uint32(1)
		for e := 0; e < 50; e++ {
			if got := f.Pow(a, e); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
			}
			want = f.Mul(want, a)
		}
	}
	if f.Pow(0, 0) != 1 {
		t.Fatal("0^0 != 1")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on division by zero")
		}
	}()
	New8().Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Inv(0)")
		}
	}()
	New16().Inv(0)
}

func TestMulTabMatchesMul(t *testing.T) {
	f := New16()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		c := uint32(rng.Intn(f.n))
		tab := f.MulTab(c)
		for j := 0; j < 200; j++ {
			x := uint32(rng.Intn(f.n))
			got := uint32(tab.Hi[x>>8] ^ tab.Lo[x&0xff])
			if got != f.Mul(c, x) {
				t.Fatalf("tab product c=%d x=%d: got %d want %d", c, x, got, f.Mul(c, x))
			}
		}
	}
}

func TestMulSliceAdd16(t *testing.T) {
	f := New16()
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 64)
	rng.Read(src)
	for _, c := range []uint32{0, 1, 2, 0x8000, 0xFFFF} {
		dst := make([]byte, 64)
		rng.Read(dst)
		want := make([]byte, 64)
		copy(want, dst)
		for i := 0; i < 64; i += 2 {
			x := uint32(src[i])<<8 | uint32(src[i+1])
			p := f.Mul(c, x)
			want[i] ^= byte(p >> 8)
			want[i+1] ^= byte(p)
		}
		MulSliceAddTab16(f.MulTab(c), dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("c=%d: MulSliceAddTab16 mismatch", c)
		}
	}
}

func TestMulSliceLinearity(t *testing.T) {
	// (c1+c2)*src == c1*src ^ c2*src applied via MulSliceAddTab16.
	f := New16()
	err := quick.Check(func(c1, c2 uint32, seed int64) bool {
		c1 &= 0xFFFF
		c2 &= 0xFFFF
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, 48)
		rng.Read(src)
		a := make([]byte, 48)
		MulSliceAddTab16(f.MulTab(c1), a, src)
		MulSliceAddTab16(f.MulTab(c2), a, src)
		b := make([]byte, 48)
		MulSliceAddTab16(f.MulTab(c1^c2), b, src)
		return bytes.Equal(a, b)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestXORSlice(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{4, 3}
	XORSlice(a, b)
	if a[0] != 5 || a[1] != 1 || a[2] != 3 || a[3] != 4 {
		t.Fatalf("XORSlice wrong: %v", a)
	}
}
