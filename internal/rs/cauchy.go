package rs

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/code"
	"repro/internal/gf"
	"repro/internal/gfmat"
)

// Cauchy is a systematic Cauchy Reed-Solomon erasure code (Blömer et al.,
// "An XOR-Based Erasure-Resilient Coding Scheme"). The generator's repair
// part is the Cauchy matrix C[i][j] = 1/((k+i) ^ j) over GF(2^16); each
// field coefficient acts as a 16x16 bit matrix on the packet's 16
// sub-blocks, so all packet arithmetic is XOR (see mulAdd).
type Cauchy struct {
	k, n      int
	packetLen int
	w         int // symbol width in bits (16)
	sub       int // sub-block length in bytes (packetLen / w)
	f         *gf.Field
	scratch   sync.Pool // *[]byte: mulAdd's buckets 1..w-1, one packet each
}

// NewCauchy constructs the codec. packetLen must be a multiple of 16
// (the symbol width) and n must not exceed 65536.
func NewCauchy(k, n, packetLen int) (*Cauchy, error) {
	f := gf.New16()
	w := int(f.Width())
	switch {
	case k <= 0 || n <= k:
		return nil, fmt.Errorf("rs: invalid k=%d n=%d", k, n)
	case n > f.Size():
		return nil, fmt.Errorf("rs: n=%d exceeds GF(2^16) size", n)
	case packetLen <= 0 || packetLen%w != 0:
		return nil, fmt.Errorf("rs: packetLen %d must be a positive multiple of %d", packetLen, w)
	}
	c := &Cauchy{k: k, n: n, packetLen: packetLen, w: w, sub: packetLen / w, f: f}
	c.scratch.New = func() any {
		b := make([]byte, (w-1)*packetLen)
		return &b
	}
	return c, nil
}

// Name implements code.Codec.
func (c *Cauchy) Name() string { return "rs-cauchy" }

// K implements code.Codec.
func (c *Cauchy) K() int { return c.k }

// N implements code.Codec.
func (c *Cauchy) N() int { return c.n }

// PacketLen implements code.Codec.
func (c *Cauchy) PacketLen() int { return c.packetLen }

// coeff returns the Cauchy coefficient tying repair row r to source
// column j.
func (c *Cauchy) coeff(r, j int) uint32 {
	return c.f.Inv(uint32(c.k+r) ^ uint32(j))
}

// mulAdd sets dst ^= ⊕_{t<n} e_t ⊗ s_t, where term(t) = (e_t, s_t) and ⊗
// is multiplication by a GF(2^16) element on the bit-sliced packet:
// sub-block i holds the x^i coefficient of every symbol, so output
// sub-block i accumulates input sub-block j whenever bit i of e·x^j is set.
// It is the only packet arithmetic the codec does.
//
// The sum is taken by coefficient bit. Writing e_t = Σ_b e_t,b·x^b, it is
// Σ_b x^b·B_b, where bucket B_b is the XOR of the s_t whose coefficient has
// bit b set. Each source is XORed at full packet width into one bucket per
// set bit (a bucket's first touch is a copy, so nothing is cleared), and the
// buckets are combined by Horner's rule: acc = B_h, then acc = x·acc ⊕ B_b
// for b from h−1 down to 0. Bucket 0 is dst itself; buckets 1..15 are
// scratch from the codec's pool, and each Horner step writes x·acc into the
// next bucket, which then becomes acc.
func (c *Cauchy) mulAdd(dst []byte, n int, term func(t int) (uint32, []byte)) {
	pl := c.packetLen
	sp := c.scratch.Get().(*[]byte)
	buckets := *sp
	var touched uint32 // bit b: bucket b holds a value
	for t := range n {
		e, s := term(t)
		if e&1 != 0 {
			gf.XORSlice(dst, s)
		}
		for m := e &^ 1; m != 0; m &= m - 1 {
			b := bits.TrailingZeros32(m)
			bucket := buckets[(b-1)*pl : b*pl]
			if touched&(1<<b) != 0 {
				gf.XORSlice(bucket, s)
			} else {
				copy(bucket, s)
				touched |= 1 << b
			}
		}
	}
	if touched != 0 {
		h := bits.Len32(touched) - 1
		acc := buckets[(h-1)*pl : h*pl]
		for b := h - 1; b > 0; b-- {
			next := buckets[(b-1)*pl : b*pl]
			c.timesX(next, acc, touched&(1<<b) != 0)
			acc = next
		}
		c.timesX(dst, acc, true)
	}
	c.scratch.Put(sp)
}

// timesX sets dst = x·a, or dst ^= x·a if add. Doubling shifts the
// sub-blocks up by one; the old sub-block 15 (the x^16 coefficient) becomes
// sub-block 0 and is XORed into the other taps of gf.Poly16
// (x^16 = x^12 + x^3 + x + 1).
func (c *Cauchy) timesX(dst, a []byte, add bool) {
	sub := c.sub
	hi := (c.w - 1) * sub
	top := a[hi:]
	if add {
		gf.XORSlice(dst[sub:], a[:hi])
		gf.XORSlice(dst[:sub], top)
	} else {
		copy(dst[sub:], a[:hi])
		copy(dst, top)
	}
	for m := uint32(gf.Poly16) & (1<<c.w - 2); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		gf.XORSlice(dst[i*sub:(i+1)*sub], top)
	}
}

// SourceOf implements code.RowEncoder: the systematic prefix.
func (c *Cauchy) SourceOf(idx int) int {
	if idx < c.k {
		return idx
	}
	return -1
}

// EncodeInto implements code.RowEncoder: repair packet idx is the inner
// product of Cauchy row idx-k with the sources. It is safe for concurrent
// use and, once the scratch pool is warm, allocates nothing.
func (c *Cauchy) EncodeInto(dst []byte, src [][]byte, idx int) {
	r := idx - c.k
	c.mulAdd(dst, c.k, func(j int) (uint32, []byte) { return c.coeff(r, j), src[j] })
}

// Encode implements code.Codec. Repair packets are independent, so they are
// generated by a GOMAXPROCS-sized worker pool.
func (c *Cauchy) Encode(src [][]byte) ([][]byte, error) { return code.EncodeAll(c, src) }

// EncodeRange implements code.RangeEncoder.
func (c *Cauchy) EncodeRange(src [][]byte, lo, hi int) ([][]byte, error) {
	return code.EncodeRows(c, src, lo, hi)
}

// NewDecoder implements code.Codec.
func (c *Cauchy) NewDecoder() code.Decoder { return c.NewDecoderInto(nil, 0) }

// NewDecoderInto returns a decoder resolving into packets [base, base+k)
// of out (nil: a buffer of its own).
func (c *Cauchy) NewDecoderInto(out *code.SourceBuf, base int) code.Decoder {
	return &cauchyDecoder{c: c, reception: newReception(c.k, c.n, c.packetLen, out, base)}
}

type cauchyDecoder struct {
	c *Cauchy
	reception
}

// Source implements code.Decoder. Missing source packets are recovered by
// (1) adjusting each held repair packet, in place, by the known source
// packets, (2) inverting the missing-column/repair Cauchy submatrix with
// the closed-form O(x^2) inverse, and (3) applying the inverse to the
// adjusted values, straight into the missing slots. Steps (1) and (3) are
// one mulAdd per packet.
func (d *cauchyDecoder) Source() ([]byte, error) {
	if d.solved {
		return d.source(), nil
	}
	if !d.Done() {
		return nil, code.ErrNotReady
	}
	c := d.c
	missing := d.missing()
	// Invert the Cauchy submatrix with points x = repairs, y = missing.
	x := make([]uint32, len(d.repIdx))
	y := make([]uint32, len(missing))
	for i, r := range d.repIdx {
		x[i] = uint32(r)
	}
	for i, j := range missing {
		y[i] = uint32(j)
	}
	inv, err := gfmat.CauchyInverse(c.f, x, y)
	if err != nil {
		return nil, fmt.Errorf("rs: cauchy inverse: %w", err)
	}
	// Adjusted right-hand sides: b_r = repair_r ^ sum_{known j} C[r][j] (x) src_j.
	// Each adjustment is independent, so fan out across the pool.
	code.ParallelChunks(len(d.repIdx), func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			r := d.repIdx[bi] - c.k
			c.mulAdd(d.repair(bi), c.k, func(j int) (uint32, []byte) {
				if !d.seen[j] {
					return 0, nil
				}
				return c.coeff(r, j), d.slot(j)
			})
		}
	})
	// Inverse entries are specific to this reception; like the encode
	// coefficients they need no per-coefficient state, only mulAdd's bits.
	code.ParallelChunks(len(missing), func(lo, hi int) {
		for mi := lo; mi < hi; mi++ {
			c.mulAdd(d.slot(missing[mi]), len(d.repIdx), func(bi int) (uint32, []byte) {
				return inv.At(mi, bi), d.repair(bi)
			})
		}
	})
	return d.source(), nil
}
