package gf

import (
	"crypto/subtle"
	"encoding/binary"
)

// This file contains the bulk-data kernels used by the Reed-Solomon codecs:
// packet payloads are interpreted as vectors of field symbols and
// multiplied/accumulated in place. For GF(2^16) a fixed multiplicand c is
// expanded into two 256-entry split tables (product with the high byte and
// with the low byte of each symbol), so the inner loop is two lookups and
// two XORs per symbol. This is the standard technique used by fast software
// RS implementations and keeps the Vandermonde/Cauchy baselines honest.
//
// The hot loops process payloads a uint64 word (four symbols) at a time via
// encoding/binary unaligned loads, with a scalar tail for the last bytes.
// The pure-scalar versions are kept (suffix "Scalar") as the reference
// implementations the differential tests pin the word kernels against.

// MulTab16 holds split multiplication tables for a fixed multiplicand in
// GF(2^16): Product(x) = Hi[x>>8] ^ Lo[x&0xff].
type MulTab16 struct {
	Hi [256]uint16
	Lo [256]uint16
}

// MulTab returns the split tables for multiplication by c in GF(2^16),
// memoized on the field: the first call for a coefficient builds the table,
// later calls (from any goroutine) return the cached copy. It panics if the
// field is not GF(2^16). The returned table is shared and must not be
// modified.
func (f *Field) MulTab(c uint32) *MulTab16 {
	if f.w != 16 {
		panic("gf: MulTab requires GF(2^16)")
	}
	c &= f.mask
	if t := f.tabs[c].Load(); t != nil {
		return t
	}
	t := f.buildMulTab(c)
	// Concurrent builders may race here; both build identical tables, and
	// whichever Store wins is the one future loads observe.
	f.tabs[c].Store(t)
	return t
}

// buildMulTab constructs the split tables for c without touching the cache.
func (f *Field) buildMulTab(c uint32) *MulTab16 {
	t := new(MulTab16)
	f.MulTabInto(c, t)
	return t
}

// MulTabInto fills t with the split tables for multiplication by c,
// bypassing the memoizing cache. Callers whose coefficients do not repeat
// (e.g. Gauss-Jordan elimination over random matrices) use this with their
// own scratch table so one-shot coefficients never pin cache memory.
func (f *Field) MulTabInto(c uint32, t *MulTab16) {
	if f.w != 16 {
		panic("gf: MulTabInto requires GF(2^16)")
	}
	c &= f.mask
	if c == 0 {
		*t = MulTab16{}
		return
	}
	lc := f.log[c]
	t.Lo[0], t.Hi[0] = 0, 0
	for b := 1; b < 256; b++ {
		t.Lo[b] = uint16(f.exp[lc+f.log[b]])
		t.Hi[b] = uint16(f.exp[lc+f.log[b<<8]])
	}
}

// MulSliceAddTab16 computes dst ^= c*src using precomputed split tables.
// Fetching the table once per matrix coefficient and reusing it across
// the packet amortizes table construction.
func MulSliceAddTab16(t *MulTab16, dst, src []byte) {
	mulSliceAddTab16(t, dst, src)
}

// mulWord multiplies the four big-endian 16-bit symbols packed in s through
// the split tables. Shared by the word-wide kernels; inlined by the
// compiler.
func mulWord(t *MulTab16, s uint64) uint64 {
	return uint64(t.Hi[s>>56]^t.Lo[s>>48&0xff])<<48 |
		uint64(t.Hi[s>>40&0xff]^t.Lo[s>>32&0xff])<<32 |
		uint64(t.Hi[s>>24&0xff]^t.Lo[s>>16&0xff])<<16 |
		uint64(t.Hi[s>>8&0xff]^t.Lo[s&0xff])
}

// mulSliceAddTab16 is the word-wide kernel: four symbols per iteration via
// unaligned uint64 loads, scalar tail for the last <8 bytes.
func mulSliceAddTab16(t *MulTab16, dst, src []byte) {
	n := len(src) &^ 1
	dst = dst[:n]
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		p := mulWord(t, binary.BigEndian.Uint64(src[i:]))
		binary.BigEndian.PutUint64(dst[i:], binary.BigEndian.Uint64(dst[i:])^p)
	}
	for ; i < n; i += 2 {
		p := t.Hi[src[i]] ^ t.Lo[src[i+1]]
		dst[i] ^= byte(p >> 8)
		dst[i+1] ^= byte(p)
	}
}

// mulSliceAddTab16Scalar is the reference implementation: one symbol at a
// time, no word tricks. The differential tests pin mulSliceAddTab16 to it.
func mulSliceAddTab16Scalar(t *MulTab16, dst, src []byte) {
	n := len(src) &^ 1
	_ = dst[:n]
	for i := 0; i < n; i += 2 {
		p := t.Hi[src[i]] ^ t.Lo[src[i+1]]
		dst[i] ^= byte(p >> 8)
		dst[i+1] ^= byte(p)
	}
}

// XORSlice computes dst ^= src for the overlapping length. It dispatches to
// crypto/subtle's vectorized XOR for long slices and to the uint64 word loop
// below for short ones, where subtle's call overhead dominates (see the
// DESIGN.md kernel ablation).
func XORSlice(dst, src []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	if n >= xorSubtleMin {
		subtle.XORBytes(dst[:n], dst[:n], src[:n])
		return
	}
	XORWords(dst[:n], src[:n])
}

// xorSubtleMin is the slice length above which subtle.XORBytes beats the
// word loop (measured; the crossover is where SIMD width pays for the extra
// call bookkeeping — see the DESIGN.md kernel ablation).
const xorSubtleMin = 32

// XORWords computes dst ^= src for the overlapping length, one uint64 word
// at a time with a scalar tail — no function-call or SIMD setup overhead,
// which makes it the right kernel for the sub-packet blocks of Cauchy
// bit-matrix coding.
func XORWords(dst, src []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	dst = dst[:n]
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// xorSliceScalar is the byte-loop reference for the XOR kernels.
func xorSliceScalar(dst, src []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
}
