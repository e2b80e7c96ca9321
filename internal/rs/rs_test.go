package rs

import (
	"bytes"
	"errors"
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
	// One codec, many goroutines encoding at once: exercises Vandermonde's
	// shared per-coefficient tables, Cauchy's scratch pool and the worker
	// pool under -race.
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

// mulAddRef is the literal bit-matrix product the kernel must equal:
// dst ^= ⊕_t e_t ⊗ s_t, where output sub-block i accumulates input
// sub-block j of s_t whenever bit i of e_t·x^j is set.
func mulAddRef(f *gf.Field, dst []byte, coeffs []uint32, srcs [][]byte) {
	sub := len(dst) / 16
	for t, e := range coeffs {
		for j := 0; j < 16; j++ {
			col := f.Mul(e, 1<<uint(j))
			for i := 0; i < 16; i++ {
				if col&(1<<uint(i)) != 0 {
					gf.XORSlice(dst[i*sub:(i+1)*sub], srcs[t][j*sub:(j+1)*sub])
				}
			}
		}
	}
}

// TestCauchyKernelMatchesBitMatrix: mulAdd, which sums by coefficient bit
// and combines by Horner's rule, computes the bit-matrix product exactly,
// accumulating into a nonzero dst; and a warm EncodeInto allocates nothing.
func TestCauchyKernelMatchesBitMatrix(t *testing.T) {
	f := gf.New16()
	rng := rand.New(rand.NewSource(19))
	special := []uint32{0, 1, 2, 0x8000, 0xFFFF}
	for _, pl := range []int{16, 48, 1024} {
		c, err := NewCauchy(1, 2, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, terms := range []int{1, 3, 50} {
			for trial := 0; trial < 20; trial++ {
				coeffs := make([]uint32, terms)
				for i := range coeffs {
					if trial < len(special) && i%2 == 0 {
						coeffs[i] = special[(trial+i)%len(special)]
					} else {
						coeffs[i] = uint32(rng.Intn(1 << 16))
					}
				}
				srcs := randSource(rng, terms, pl)
				got := randSource(rng, 1, pl)[0]
				want := bytes.Clone(got)
				mulAddRef(f, want, coeffs, srcs)
				c.mulAdd(got, terms, func(i int) (uint32, []byte) { return coeffs[i], srcs[i] })
				if !bytes.Equal(got, want) {
					t.Fatalf("pl=%d terms=%d coeffs=%#x: kernel differs from the bit matrix", pl, terms, coeffs)
				}
			}
		}
	}
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops scratch at random; allocations are checked without -race")
	}
	const k, n, pl = 50, 100, 1024
	c, _ := NewCauchy(k, n, pl)
	src, dst := randSource(rng, k, pl), make([]byte, pl)
	if a := testing.AllocsPerRun(20, func() { c.EncodeInto(dst, src, k+7) }); a != 0 {
		t.Fatalf("EncodeInto allocates %.0f times per row", a)
	}
}

// FuzzCauchyStream feeds a Cauchy decoder a hostile index stream: fuzzed
// k (1–16), n (k+1 to 2k) and packet length (16·1–4), indices repeated
// and out of range. An out-of-range index is refused before it is
// counted, Source before Done is code.ErrNotReady, and any k distinct
// packets — repair-only too, when in[3]&1 folds sources onto repairs —
// decode to the source bytes.
func FuzzCauchyStream(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{15, 15, 3, 1, 40, 41, 42, 40, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56})
	f.Add([]byte{7, 3, 1, 0, 0xff, 0xfe, 9, 9, 10, 11, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		k := int(in[0])%16 + 1
		n := k + 1 + int(in[1])%k
		pl := 16 * (int(in[2])%4 + 1)
		repairOnly := in[3]&1 != 0
		c, err := NewCauchy(k, n, pl)
		if err != nil {
			t.Fatal(err)
		}
		src := randSource(rand.New(rand.NewSource(int64(len(in)))), k, pl)
		enc, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		d := c.NewDecoder()
		held := map[int]bool{}
		for _, b := range in[4:] {
			i := int(b)%(n+4) - 2 // two below the index space, two past it
			if repairOnly && i >= 0 && i < k {
				i = k + i%(n-k)
			}
			if i < 0 || i >= n {
				if _, err := d.Add(i, make([]byte, pl)); err == nil {
					t.Fatalf("index %d of n=%d accepted", i, n)
				}
			} else {
				if _, err := d.Add(i, enc[i]); err != nil {
					t.Fatalf("Add(%d): %v", i, err)
				}
				if len(held) < k {
					held[i] = true
				}
			}
			if d.Received() != len(held) {
				t.Fatalf("Received = %d, want %d distinct", d.Received(), len(held))
			}
			if d.Done() != (len(held) == k) {
				t.Fatalf("Done = %v with %d of k=%d distinct packets", d.Done(), len(held), k)
			}
			if !d.Done() {
				if _, err := d.Source(); !errors.Is(err, code.ErrNotReady) {
					t.Fatalf("Source before Done: %v, want ErrNotReady", err)
				}
			}
		}
		if !d.Done() {
			return
		}
		got, err := d.Source()
		if err != nil {
			t.Fatalf("Source: %v", err)
		}
		if !bytes.Equal(got, bytes.Join(src, nil)) {
			t.Fatalf("k=%d n=%d pl=%d from %v: source differs", k, n, pl, held)
		}
	})
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

// BenchmarkCauchyEncodeInto: one coded row of the deployed interleaved
// block shape (k = 50, n = 100, 1 KiB packets).
func BenchmarkCauchyEncodeInto(b *testing.B) {
	const k, n, pl = 50, 100, 1024
	c, _ := NewCauchy(k, n, pl)
	src, dst := randSource(rand.New(rand.NewSource(1)), k, pl), make([]byte, pl)
	b.SetBytes(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeInto(dst, src, k+i%(n-k))
	}
}

// BenchmarkCauchyDecodeBlock: one block of that shape decoded from every
// other source packet and as many repairs, so half the sources are rebuilt.
func BenchmarkCauchyDecodeBlock(b *testing.B) {
	const k, n, pl = 50, 100, 1024
	c, _ := NewCauchy(k, n, pl)
	enc, _ := c.Encode(randSource(rand.New(rand.NewSource(1)), k, pl))
	b.SetBytes(k * pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.NewDecoder()
		for j := 0; j < k; j += 2 {
			d.Add(j, enc[j])
			d.Add(k+j, enc[k+j])
		}
		if _, err := d.Source(); err != nil {
			b.Fatal(err)
		}
	}
}
