package rs

import (
	"fmt"
	"sync/atomic"

	"repro/internal/code"
	"repro/internal/gf"
	"repro/internal/gfmat"
)

// Cauchy is a systematic Cauchy Reed-Solomon erasure code (Blömer et al.,
// "An XOR-Based Erasure-Resilient Coding Scheme"). The generator's repair
// part is the Cauchy matrix C[i][j] = 1/((k+i) ^ j) over GF(2^16); each
// field coefficient is expanded into a 16x16 bit matrix so that all packet
// arithmetic is XOR of 1/16-packet sub-blocks.
type Cauchy struct {
	k, n      int
	packetLen int
	w         int // symbol width in bits (16)
	sub       int // sub-block length in bytes (packetLen / w)
	f         *gf.Field
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
	return &Cauchy{k: k, n: n, packetLen: packetLen, w: w, sub: packetLen / w, f: f}, nil
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

// xorRun is one diagonal run of the bit-matrix of multiplication by a
// fixed coefficient: XOR m consecutive sub-blocks of src, starting at
// block si, into the m consecutive dst sub-blocks starting at block di.
//
// Diagonal runs exist because column j+1 of the bit matrix is column j
// doubled: whenever e·2^j stays below the reduction threshold the next
// column is a pure shift, so set bits continue down the diagonal. Merging
// them turns many sub-block XORs into one longer XOR, which is where the
// vectorized XOR kernel earns its width (see the DESIGN.md ablation).
type xorRun struct{ di, si, m uint8 }

// runCache memoizes the XOR schedule per GF(2^16) coefficient. Cauchy
// codecs revisit the same coefficients for every packet (the encode matrix
// at fixed (k, n) uses at most n-1 distinct coefficients), so after warmup
// apply() does no bit-matrix work at all. The zero coefficient maps to an
// empty schedule and coefficient 1 is special-cased before lookup.
var runCache [1 << 16]atomic.Pointer[[]xorRun]

// mulRuns returns the diagonal-run XOR schedule of multiplication by e over
// GF(2^16), building and caching it on first use (concurrency-safe: racing
// builders store identical schedules). The cache is valid only for the
// shared gf.New16() field (schedules depend on the reduction polynomial);
// foreign fields get an uncached build.
func mulRuns(f *gf.Field, e uint32) []xorRun {
	e &= 0xFFFF
	if f != gf.New16() {
		return appendRuns(nil, f, e)
	}
	if p := runCache[e].Load(); p != nil {
		return *p
	}
	runs := appendRuns(make([]xorRun, 0, 16*16/2), f, e)
	runCache[e].Store(&runs)
	return runs
}

// appendRuns appends the diagonal runs of the bit-matrix of multiplication
// by e to runs. mulRuns wraps it with the schedule cache; the direct path
// exists for GF(2^16) fields other than the gf.New16() singleton, whose
// schedules must not share the cache.
func appendRuns(runs []xorRun, f *gf.Field, e uint32) []xorRun {
	const w = 16
	// cols[j] = e·2^j: column j of the bit matrix.
	var cols [w]uint32
	for j := 0; j < w; j++ {
		cols[j] = f.Mul(e, 1<<uint(j))
	}
	bit := func(i, j int) bool { return cols[j]&(1<<uint(i)) != 0 }
	var seen [w][w]bool
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			if seen[i][j] || !bit(i, j) {
				continue
			}
			m := 1
			for i+m < w && j+m < w && bit(i+m, j+m) && !seen[i+m][j+m] {
				seen[i+m][j+m] = true
				m++
			}
			runs = append(runs, xorRun{di: uint8(i), si: uint8(j), m: uint8(m)})
		}
	}
	return runs
}

// apply computes dst ^= e (x) src, where (x) is the bit-matrix expansion of
// multiplication by the field element e acting on w sub-blocks: output
// sub-block i accumulates input sub-block j whenever bit i of e·2^j is set.
// The bit matrix is walked as cached diagonal runs so each schedule entry
// is one contiguous XOR.
func (c *Cauchy) apply(e uint32, dst, src []byte) {
	if e == 0 {
		return
	}
	if e == 1 {
		gf.XORSlice(dst, src)
		return
	}
	c.applySched(mulRuns(c.f, e), dst, src)
}

// applySched walks a prebuilt diagonal-run schedule.
func (c *Cauchy) applySched(sched []xorRun, dst, src []byte) {
	sub := c.sub
	for _, r := range sched {
		n := int(r.m) * sub
		d := dst[int(r.di)*sub:]
		s := src[int(r.si)*sub:]
		gf.XORSlice(d[:n], s[:n])
	}
}

// SourceOf implements code.RowEncoder: the systematic prefix.
func (c *Cauchy) SourceOf(idx int) int {
	if idx < c.k {
		return idx
	}
	return -1
}

// EncodeInto implements code.RowEncoder: repair packet idx is the bit-matrix
// inner product of Cauchy row idx-k with the sources (the XOR-schedule
// cache is concurrency-safe).
func (c *Cauchy) EncodeInto(dst []byte, src [][]byte, idx int) {
	for j := 0; j < c.k; j++ {
		c.apply(c.coeff(idx-c.k, j), dst, src[j])
	}
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
// packets (XOR bit-matrix applies), (2) inverting the missing-column/repair
// Cauchy submatrix with the closed-form O(x^2) inverse, and (3) applying
// the inverse to the adjusted values, straight into the missing slots.
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
			b, r := d.repair(bi), d.repIdx[bi]-c.k
			for j := range c.k {
				if d.seen[j] {
					c.apply(c.coeff(r, j), b, d.slot(j))
				}
			}
		}
	})
	// Inverse entries do go through the schedule cache even though they are
	// reception-specific: a schedule is ~250 bytes (vs the 1 KiB split
	// tables the Vandermonde decoder deliberately keeps out of its cache),
	// so even the all-coefficients worst case stays in the low MiB while
	// rebuilding per entry measurably halves reconstruction throughput.
	code.ParallelChunks(len(missing), func(lo, hi int) {
		for mi := lo; mi < hi; mi++ {
			p := d.slot(missing[mi])
			for bi := range d.repIdx {
				c.apply(inv.At(mi, bi), p, d.repair(bi))
			}
		}
	})
	return d.source(), nil
}
