package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Differential tests pinning the word-wide kernels to the scalar reference
// implementations across odd lengths, unaligned offsets, and the special
// coefficients 0 and 1.

// unaligned returns a length-n slice whose backing array starts at the given
// byte offset, so the word kernels exercise genuinely unaligned loads.
func unaligned(n, off int, rng *rand.Rand) []byte {
	buf := make([]byte, n+off+8)
	rng.Read(buf)
	return buf[off : off+n]
}

func TestMulSliceAddTab16MatchesScalar(t *testing.T) {
	f := New16()
	rng := rand.New(rand.NewSource(11))
	coeffs := []uint32{2, 3, 0x8000, 0xFFFF}
	for i := 0; i < 64; i++ {
		coeffs = append(coeffs, uint32(1+rng.Intn(f.n-1)))
	}
	for _, n := range []int{0, 2, 4, 6, 8, 10, 14, 16, 30, 62, 66, 126, 1022, 1024} {
		for _, off := range []int{0, 1, 3, 7} {
			for _, c := range coeffs {
				tab := f.MulTab(c)
				src := unaligned(n, off, rng)
				dst := unaligned(n, off, rng)
				want := make([]byte, n)
				copy(want, dst)
				mulSliceAddTab16Scalar(tab, want, src)
				mulSliceAddTab16(tab, dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("n=%d off=%d c=%#x: word kernel diverges from scalar", n, off, c)
				}
			}
		}
	}
}

func TestMulSliceAddSpecialCoefficients(t *testing.T) {
	// c==0 must be a no-op; c==1 must be plain XOR.
	f := New16()
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 2, 8, 10, 100} {
		src := unaligned(n, 1, rng)
		dst := unaligned(n, 1, rng)
		orig := make([]byte, n)
		copy(orig, dst)

		MulSliceAddTab16(f.MulTab(0), dst, src)
		if !bytes.Equal(dst, orig) {
			t.Fatalf("n=%d: c=0 modified dst", n)
		}
		MulSliceAddTab16(f.MulTab(1), dst, src)
		want := make([]byte, n)
		copy(want, orig)
		xorSliceScalar(want, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: c=1 is not plain XOR", n)
		}
	}
}

func TestXORKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 31, 63, 64, 65, 127, 128, 129, 1024} {
		for _, off := range []int{0, 1, 2, 7} {
			src := unaligned(n, off, rng)
			dstA := unaligned(n, off, rng)
			dstB := make([]byte, n)
			copy(dstB, dstA)
			dstC := make([]byte, n)
			copy(dstC, dstA)
			xorSliceScalar(dstA, src)
			XORWords(dstB, src)
			XORSlice(dstC, src)
			if !bytes.Equal(dstB, dstA) {
				t.Fatalf("n=%d off=%d: XORWords diverges from scalar", n, off)
			}
			if !bytes.Equal(dstC, dstA) {
				t.Fatalf("n=%d off=%d: XORSlice diverges from scalar", n, off)
			}
		}
	}
	// Mismatched lengths: shorter dst governs.
	a := []byte{1, 2}
	XORWords(a, []byte{1, 1, 1})
	if a[0] != 0 || a[1] != 3 {
		t.Fatalf("XORWords length clamp wrong: %v", a)
	}
}

// xorManyCase checks XORMany against the byte loop on m sources of n+extra
// bytes, each at its own offset, folded into a nonzero dst of n bytes.
func xorManyCase(t testing.TB, rng *rand.Rand, n, m, extra int) {
	dst := unaligned(n, rng.Intn(8), rng)
	srcs := make([][]byte, m)
	for j := range srcs {
		srcs[j] = unaligned(n+extra, rng.Intn(8), rng)
	}
	want := bytes.Clone(dst)
	for _, s := range srcs {
		xorSliceScalar(want, s[:n])
	}
	XORMany(dst, srcs)
	if !bytes.Equal(dst, want) {
		t.Fatalf("n=%d m=%d extra=%d: XORMany diverges from scalar", n, m, extra)
	}
}

// TestXORManyMatchesScalar: the multi-source kernel equals one byte-loop
// XOR per source, across the 64- and 16-byte block edges, source counts on
// both sides of a batch, and sources longer than dst; a source overlapping
// dst, or shorter than it, panics. Then each kernel built for this GOARCH,
// called directly, equals the word loop over whole 16-byte blocks and
// leaves the rest of dst alone; one this CPU cannot run is skipped by
// name, and the log names the kernels that ran and the one XORMany uses.
func TestXORManyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 8, 63, 64, 65, 1024, 1030} {
		for m := 0; m <= 40; m++ {
			for _, extra := range []int{0, 5} {
				xorManyCase(t, rng, n, m, extra)
			}
		}
	}
	buf := make([]byte, 256)
	for _, tc := range []struct {
		name string
		src  []byte
	}{
		{"exact overlap", buf[:64]},
		{"partial overlap", buf[63:127]},
		{"short source", make([]byte, 63)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: XORMany did not panic", tc.name)
				}
			}()
			XORMany(buf[:64], [][]byte{buf[128:192], tc.src})
		}()
	}
	for _, k := range xorKernels() {
		if !k.runs {
			t.Logf("kernel %s: skipped, this CPU or OS does not run it", k.name)
			continue
		}
		for _, n := range []int{0, 16, 255, 256, 257, 1024, 1040, 4097} {
			for m := 0; m <= 40; m++ {
				for _, off := range []int{0, 5} {
					kernelCase(t, rng, k, n, m, off)
				}
			}
		}
		t.Logf("kernel %s: ran", k.name)
	}
	checkDispatch(t)
}

// xorKernel is one multi-source kernel built for this GOARCH: fold computes
// dst ^= ⊕ srcs over len(dst) rounded down to 16 bytes; runs is whether
// this CPU and OS can execute it.
type xorKernel struct {
	name string
	fold func(dst []byte, srcs [][]byte)
	runs bool
}

// kernelCase checks kernel k against the word loop on m sources of n bytes
// folded into a dst of n bytes, each starting off bytes into its buffer:
// whole 16-byte blocks are folded, the bytes past them untouched.
func kernelCase(t testing.TB, rng *rand.Rand, k xorKernel, n, m, off int) {
	dst := unaligned(n, off, rng)
	srcs := make([][]byte, m)
	for j := range srcs {
		srcs[j] = unaligned(n, off, rng)
	}
	want := bytes.Clone(dst)
	w := n &^ 15
	for _, s := range srcs {
		XORWords(want[:w], s)
	}
	k.fold(dst, srcs)
	if !bytes.Equal(dst, want) {
		t.Fatalf("kernel %s, n=%d m=%d off=%d: diverges from the word loop", k.name, n, m, off)
	}
}

func FuzzXORMany(f *testing.F) {
	f.Add(uint16(1030), uint8(17), int64(1))
	f.Add(uint16(63), uint8(1), int64(2))
	f.Add(uint16(0), uint8(0), int64(3))
	f.Add(uint16(4097), uint8(40), int64(4))
	f.Fuzz(func(t *testing.T, n uint16, m uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		xorManyCase(t, rng, int(n%4096), int(m%48), rng.Intn(3))
		for _, k := range xorKernels() {
			if k.runs {
				kernelCase(t, rng, k, int(n%4352), int(m%48), int(seed&7))
			}
		}
	})
}

func TestMulTabCached(t *testing.T) {
	f := New16()
	if f.MulTab(0x1234) != f.MulTab(0x1234) {
		t.Fatal("MulTab did not return the cached table")
	}
	// Cached table contents must match a fresh build.
	fresh := f.buildMulTab(0x1234)
	if *f.MulTab(0x1234) != *fresh {
		t.Fatal("cached table differs from fresh build")
	}
}

func TestMulTabConcurrent(t *testing.T) {
	// Hammer the lazy cache from many goroutines; run under -race in CI.
	f := New16()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				c := uint32(rng.Intn(1 << 16))
				tab := f.MulTab(c)
				x := uint32(rng.Intn(1 << 16))
				if got := uint32(tab.Hi[x>>8] ^ tab.Lo[x&0xff]); got != f.Mul(c, x) {
					t.Errorf("c=%#x x=%#x: cached table product %#x want %#x", c, x, got, f.Mul(c, x))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestExpNegative(t *testing.T) {
	for _, f := range []*Field{New8(), New16()} {
		ord := f.Size() - 1
		for _, i := range []int{1, 2, 5, ord - 1, ord, ord + 3} {
			pos := f.Exp(i)
			neg := f.Exp(-i)
			if f.Mul(pos, neg) != 1 {
				t.Fatalf("w=%d: Exp(%d)*Exp(-%d) = %d, want 1", f.Width(), i, i, f.Mul(pos, neg))
			}
		}
		if f.Exp(-ord) != 1 || f.Exp(0) != 1 {
			t.Fatalf("w=%d: Exp at multiples of group order != 1", f.Width())
		}
	}
}

func BenchmarkMulSliceAddTab16Kernels(b *testing.B) {
	f := New16()
	tab := f.MulTab(0x1234)
	for _, n := range []int{64, 1024, 65536} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rand.New(rand.NewSource(5)).Read(src)
		b.Run(fmt.Sprintf("word/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				mulSliceAddTab16(tab, dst, src)
			}
		})
		b.Run(fmt.Sprintf("scalar/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				mulSliceAddTab16Scalar(tab, dst, src)
			}
		})
	}
}

func BenchmarkXORKernels(b *testing.B) {
	for _, n := range []int{16, 64, 128, 1024, 65536} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rand.New(rand.NewSource(6)).Read(src)
		b.Run(fmt.Sprintf("words/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				XORWords(dst, src)
			}
		})
		b.Run(fmt.Sprintf("dispatch/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				XORSlice(dst, src)
			}
		})
		b.Run(fmt.Sprintf("scalar/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				xorSliceScalar(dst, src)
			}
		})
	}
}

// BenchmarkXORMany folds m random 1 KiB packets of a working set into
// another: one XORSlice per source ("pairwise"), one XORMany call
// ("many", through the kernel dispatch chose), and each kernel built for
// this GOARCH that the CPU runs, called directly; ns/src is the cost per
// source packet.
func BenchmarkXORMany(b *testing.B) {
	const pl = 1024
	for _, set := range []int{256, 2500, 10000} {
		buf := make([]byte, set*pl)
		rng := rand.New(rand.NewSource(7))
		rng.Read(buf)
		pkts := make([][]byte, set)
		for i := range pkts {
			pkts[i] = buf[i*pl : (i+1)*pl]
		}
		for _, m := range []int{1, 2, 4, 7, 16} {
			// 4096 folds, each m+1 indices: dst first, then sources other
			// than dst.
			draws := make([]int, 4096*(m+1))
			for i := range draws {
				draws[i] = rng.Intn(set)
				if d := i - i%(m+1); i != d && draws[i] == draws[d] {
					draws[i] = (draws[i] + 1) % set
				}
			}
			folds := []xorKernel{
				{"pairwise", func(dst []byte, srcs [][]byte) {
					for _, s := range srcs {
						XORSlice(dst, s)
					}
				}, true},
				{"many", XORMany, true},
			}
			for _, k := range append(folds, xorKernels()...) {
				if !k.runs {
					continue
				}
				b.Run(fmt.Sprintf("%s/set=%d/m=%d", k.name, set, m), func(b *testing.B) {
					srcs := make([][]byte, m)
					for i := 0; i < b.N; i++ {
						d := draws[i%4096*(m+1):][:m+1]
						for j, s := range d[1:] {
							srcs[j] = pkts[s]
						}
						k.fold(pkts[d[0]], srcs)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/src")
				})
			}
		}
	}
}

func BenchmarkMulTabCached(b *testing.B) {
	f := New16()
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.MulTab(uint32(i&0xFF + 2))
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.buildMulTab(uint32(i&0xFF + 2))
		}
	})
}
