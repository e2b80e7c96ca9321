package rs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/code"
	"repro/internal/gf"
)

// Both codecs must satisfy code.Codec.
var (
	_ code.Codec = (*Vandermonde)(nil)
	_ code.Codec = (*Cauchy)(nil)
)

func randSource(rng *rand.Rand, k, packetLen int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, packetLen)
		rng.Read(src[i])
	}
	return src
}

// decodeFrom feeds the decoder the packets whose indices are in recv
// and returns the recovered source.
func decodeFrom(t *testing.T, c code.Codec, enc [][]byte, recv []int) []byte {
	t.Helper()
	d := c.NewDecoder()
	done := false
	for _, i := range recv {
		var err error
		done, err = d.Add(i, enc[i])
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if !done {
		t.Fatalf("decoder not done after %d packets (k=%d)", len(recv), c.K())
	}
	src, err := d.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	return src
}

func testAnyKOfN(t *testing.T, mk func(k, n, pl int) (code.Codec, error)) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(24)
		n := k + 1 + rng.Intn(2*k)
		pl := 32
		c, err := mk(k, n, pl)
		if err != nil {
			t.Logf("construct: %v", err)
			return false
		}
		src := randSource(rng, k, pl)
		enc, err := c.Encode(src)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		// Systematic prefix.
		for i := 0; i < k; i++ {
			if !bytes.Equal(enc[i], src[i]) {
				return false
			}
		}
		// Random k-subset of the n packets decodes.
		recv := rng.Perm(n)[:k]
		got := decodeFrom(t, c, enc, recv)
		for i, p := range src {
			if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVandermondeAnyKOfN(t *testing.T) {
	testAnyKOfN(t, func(k, n, pl int) (code.Codec, error) { return NewVandermonde(k, n, pl) })
}

func TestCauchyAnyKOfN(t *testing.T) {
	testAnyKOfN(t, func(k, n, pl int) (code.Codec, error) { return NewCauchy(k, n, pl) })
}

func TestVandermondeRepairOnlyDecode(t *testing.T) {
	// Decode purely from repair packets (worst case for the matrix).
	rng := rand.New(rand.NewSource(11))
	c, err := NewVandermonde(8, 24, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := randSource(rng, 8, 64)
	enc, _ := c.Encode(src)
	recv := []int{8, 9, 10, 11, 12, 13, 14, 15}
	got := decodeFrom(t, c, enc, recv)
	for i, p := range src {
		if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestCauchyRepairOnlyDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, err := NewCauchy(8, 24, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := randSource(rng, 8, 64)
	enc, _ := c.Encode(src)
	recv := []int{16, 17, 18, 19, 20, 21, 22, 23}
	got := decodeFrom(t, c, enc, recv)
	for i, p := range src {
		if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestHalfSourceHalfRepair(t *testing.T) {
	// The paper's Table 3 protocol: k/2 source + k/2 repair packets.
	rng := rand.New(rand.NewSource(13))
	for _, mk := range []func() (code.Codec, error){
		func() (code.Codec, error) { return NewVandermonde(16, 32, 32) },
		func() (code.Codec, error) { return NewCauchy(16, 32, 32) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		src := randSource(rng, 16, 32)
		enc, _ := c.Encode(src)
		recv := append(rng.Perm(16)[:8], shift(rng.Perm(16)[:8], 16)...)
		got := decodeFrom(t, c, enc, recv)
		for i, p := range src {
			if !bytes.Equal(got[i*len(p):(i+1)*len(p)], p) {
				t.Fatalf("%s: packet %d differs", c.Name(), i)
			}
		}
	}
}

func shift(xs []int, by int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func TestDuplicatesIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c, _ := NewCauchy(4, 8, 32)
	src := randSource(rng, 4, 32)
	enc, _ := c.Encode(src)
	d := c.NewDecoder()
	for i := 0; i < 10; i++ {
		d.Add(5, enc[5]) // same packet over and over
	}
	if d.Received() != 1 {
		t.Fatalf("Received = %d after duplicates, want 1", d.Received())
	}
	if d.Done() {
		t.Fatal("done after one distinct packet")
	}
}

func TestAddErrors(t *testing.T) {
	c, _ := NewVandermonde(4, 8, 32)
	d := c.NewDecoder()
	if _, err := d.Add(8, make([]byte, 32)); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := d.Add(0, make([]byte, 31)); err == nil {
		t.Fatal("short packet accepted")
	}
	if _, err := d.Source(); err == nil {
		t.Fatal("Source before done")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewVandermonde(0, 4, 32); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewVandermonde(4, 4, 32); err == nil {
		t.Fatal("n=k accepted")
	}
	if _, err := NewVandermonde(4, 8, 31); err == nil {
		t.Fatal("odd packetLen accepted")
	}
	if _, err := NewVandermonde(40000, 70000, 32); err == nil {
		t.Fatal("n beyond field accepted")
	}
	if _, err := NewCauchy(4, 8, 24); err == nil {
		t.Fatal("packetLen not multiple of 16 accepted")
	}
	if _, err := NewCauchy(4, 8, 32); err != nil {
		t.Fatal(err)
	}
}

func TestDecodersIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c, _ := NewCauchy(4, 8, 32)
	src := randSource(rng, 4, 32)
	enc, _ := c.Encode(src)
	d1 := c.NewDecoder()
	d2 := c.NewDecoder()
	d1.Add(0, enc[0])
	if d2.Received() != 0 {
		t.Fatal("decoders share state")
	}
}

func TestAddAfterDoneIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c, _ := NewVandermonde(3, 6, 32)
	src := randSource(rng, 3, 32)
	enc, _ := c.Encode(src)
	d := c.NewDecoder()
	for i := 0; i < 3; i++ {
		d.Add(i, enc[i])
	}
	if !d.Done() {
		t.Fatal("not done at k packets")
	}
	done, err := d.Add(4, enc[4])
	if err != nil || !done {
		t.Fatalf("Add after done: done=%v err=%v", done, err)
	}
	if d.Received() != 3 {
		t.Fatalf("Received = %d, want 3", d.Received())
	}
}

func TestDecoderDataIsCopied(t *testing.T) {
	// Mutating the caller's buffer after Add must not corrupt decoding.
	rng := rand.New(rand.NewSource(17))
	c, _ := NewCauchy(2, 4, 32)
	src := randSource(rng, 2, 32)
	enc, _ := c.Encode(src)
	d := c.NewDecoder()
	buf := make([]byte, 32)
	copy(buf, enc[2])
	d.Add(2, buf)
	for i := range buf {
		buf[i] = 0xEE
	}
	d.Add(0, enc[0])
	got, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[len(src[0]):2*len(src[0])], src[1]) {
		t.Fatal("decoder aliased caller buffer")
	}
}

func TestEncodeConcurrent(t *testing.T) {
	// One codec, many goroutines encoding at once: exercises the shared
	// per-coefficient table/schedule caches and the worker pool under -race.
	rng := rand.New(rand.NewSource(18))
	for _, mk := range []func() (code.Codec, error){
		func() (code.Codec, error) { return NewVandermonde(24, 48, 64) },
		func() (code.Codec, error) { return NewCauchy(24, 48, 64) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		src := randSource(rng, 24, 64)
		want, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := c.Encode(src)
				if err != nil {
					t.Errorf("%s: concurrent encode: %v", c.Name(), err)
					return
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s: concurrent encode diverges at packet %d", c.Name(), i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestCauchyScheduleMatchesBitMatrix(t *testing.T) {
	// The cached diagonal-run schedule must cover exactly the set bits of
	// the multiplication bit-matrix, each exactly once.
	f := gf.New16()
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		e := uint32(2 + rng.Intn(1<<16-2))
		var want [16][16]bool
		for j := 0; j < 16; j++ {
			col := f.Mul(e, 1<<uint(j))
			for i := 0; i < 16; i++ {
				want[i][j] = col&(1<<uint(i)) != 0
			}
		}
		var got [16][16]int
		for _, r := range mulRuns(f, e) {
			for m := 0; m < int(r.m); m++ {
				got[int(r.di)+m][int(r.si)+m]++
			}
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				w := 0
				if want[i][j] {
					w = 1
				}
				if got[i][j] != w {
					t.Fatalf("e=%#x: bit (%d,%d) covered %d times, want %d", e, i, j, got[i][j], w)
				}
			}
		}
	}
}

// TestEncodeRangeMatchesEncode: any window of EncodeRange must equal the
// corresponding slice of the full encoding, for both RS codecs.
func TestEncodeRangeMatchesEncode(t *testing.T) {
	const k, n, pl = 30, 60, 64
	rng := rand.New(rand.NewSource(11))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, pl)
		rng.Read(src[i])
	}
	codecs := []code.Codec{}
	v, err := NewVandermonde(k, n, pl)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCauchy(k, n, pl)
	if err != nil {
		t.Fatal(err)
	}
	codecs = append(codecs, v, c)
	for _, cd := range codecs {
		full, err := cd.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		re := cd.(code.RangeEncoder)
		for _, win := range [][2]int{{0, n}, {0, k}, {k, n}, {k - 3, k + 3}, {n - 5, n}, {17, 17}} {
			got, err := re.EncodeRange(src, win[0], win[1])
			if err != nil {
				t.Fatalf("%s range %v: %v", cd.Name(), win, err)
			}
			if len(got) != win[1]-win[0] {
				t.Fatalf("%s range %v: %d packets", cd.Name(), win, len(got))
			}
			for i, p := range got {
				if !bytes.Equal(p, full[win[0]+i]) {
					t.Fatalf("%s: packet %d differs from full encoding", cd.Name(), win[0]+i)
				}
			}
		}
		// Source windows must alias, not copy.
		got, err := re.EncodeRange(src, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0][0] != &src[0][0] {
			t.Fatalf("%s: source packet copied, want alias", cd.Name())
		}
		if _, err := re.EncodeRange(src, -1, 2); err == nil {
			t.Fatalf("%s: negative lo accepted", cd.Name())
		}
		if _, err := re.EncodeRange(src, 0, n+1); err == nil {
			t.Fatalf("%s: hi > n accepted", cd.Name())
		}
	}
}

// TestSourceInPlace: both RS decoders recover into one k·packetLen buffer
// — received source packets in their slots, the missing ones written in
// place — and Source hands back that same buffer, again without
// allocating.
func TestSourceInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const k, n, pl = 12, 24, 32
	v, _ := NewVandermonde(k, n, pl)
	c, _ := NewCauchy(k, n, pl)
	for _, cd := range []code.Codec{v, c} {
		src := randSource(rng, k, pl)
		enc, _ := cd.Encode(src)
		d := cd.NewDecoder()
		for _, i := range rng.Perm(n)[:k] {
			d.Add(i, enc[i])
		}
		got, err := d.Source()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Join(src, nil)) {
			t.Fatalf("%s: source differs", cd.Name())
		}
		again, _ := d.Source()
		if &again[0] != &got[0] || len(again) != k*pl {
			t.Fatalf("%s: a second Source is not the same buffer", cd.Name())
		}
		if allocs := testing.AllocsPerRun(10, func() { d.Source() }); allocs != 0 {
			t.Fatalf("%s: a second Source allocates %.0f times", cd.Name(), allocs)
		}
	}
}
