// Package rs implements the two "standard" Reed-Solomon erasure-code
// baselines the paper benchmarks against (§5.2, Tables 2-3):
//
//   - Vandermonde codes in the style of Rizzo's fec [16]: symbols are
//     GF(2^16) elements, encoding evaluates the source polynomial at extra
//     points, and decoding inverts a k x k matrix by Gaussian elimination
//     (O(k^3)) — the behaviour that makes the baseline collapse at large k.
//   - Cauchy codes in the style of Blömer et al. [2]: the generator is a
//     Cauchy matrix expanded to bit matrices so that encoding and decoding
//     are pure XORs of sub-packets, and the decode-time matrix inversion
//     uses the closed-form O(x^2) Cauchy inverse.
//
// Both are systematic MDS codes: any k of the n encoding packets recover
// the source.
package rs

import (
	"fmt"

	"repro/internal/code"
	"repro/internal/gf"
	"repro/internal/gfmat"
)

// Vandermonde is a systematic Reed-Solomon erasure code over GF(2^16) in
// evaluation form: source packet j is the value of a degree-(k-1)
// polynomial at point j, and repair packet r is its value at point k+r.
type Vandermonde struct {
	k, n      int
	packetLen int
	f         *gf.Field
	// barycentric weights: w[j] = prod_{m != j, m < k} (j ^ m)
	weights []uint32
}

// NewVandermonde constructs the codec. n must not exceed the field size
// (65536) and packetLen must be even (16-bit symbols).
func NewVandermonde(k, n, packetLen int) (*Vandermonde, error) {
	f := gf.New16()
	switch {
	case k <= 0 || n <= k:
		return nil, fmt.Errorf("rs: invalid k=%d n=%d", k, n)
	case n > f.Size():
		return nil, fmt.Errorf("rs: n=%d exceeds GF(2^16) size", n)
	case packetLen <= 0 || packetLen%2 != 0:
		return nil, fmt.Errorf("rs: packetLen %d must be positive and even", packetLen)
	}
	v := &Vandermonde{k: k, n: n, packetLen: packetLen, f: f}
	v.weights = make([]uint32, k)
	for j := 0; j < k; j++ {
		w := uint32(1)
		for m := 0; m < k; m++ {
			if m != j {
				w = f.Mul(w, uint32(j^m))
			}
		}
		v.weights[j] = w
	}
	return v, nil
}

// Name implements code.Codec.
func (v *Vandermonde) Name() string { return "rs-vandermonde" }

// K implements code.Codec.
func (v *Vandermonde) K() int { return v.k }

// N implements code.Codec.
func (v *Vandermonde) N() int { return v.n }

// PacketLen implements code.Codec.
func (v *Vandermonde) PacketLen() int { return v.packetLen }

// rowScale returns w(x) = prod_{m < k} (x ^ m), the factor shared by the k
// encoding coefficients of repair packet idx (evaluation point x = idx).
func (v *Vandermonde) rowScale(idx int) uint32 {
	wx := uint32(1)
	for m := 0; m < v.k; m++ {
		wx = v.f.Mul(wx, uint32(idx^m))
	}
	return wx
}

// coeff returns the coefficient tying repair packet idx (wx its rowScale)
// to source packet j, in barycentric Lagrange form:
// c_j = w(x) / ((x ^ j) * W_j). The encoder and the decoder's reception
// matrix both read it.
func (v *Vandermonde) coeff(wx uint32, idx, j int) uint32 {
	return v.f.Mul(wx, v.f.Inv(v.f.Mul(uint32(idx^j), v.weights[j])))
}

// SourceOf implements code.RowEncoder: the systematic prefix.
func (v *Vandermonde) SourceOf(idx int) int {
	if idx < v.k {
		return idx
	}
	return -1
}

// EncodeInto implements code.RowEncoder: repair packet idx is the source
// polynomial's value at point idx. The loop is coefficient-major: each
// coefficient's split tables come from the field's per-coefficient cache
// (gf.Field.MulTab) and are reused across the whole packet.
func (v *Vandermonde) EncodeInto(dst []byte, src [][]byte, idx int) {
	wx := v.rowScale(idx)
	for j := 0; j < v.k; j++ {
		gf.MulSliceAddTab16(v.f.MulTab(v.coeff(wx, idx, j)), dst, src[j])
	}
}

// Encode implements code.Codec. The returned slice holds the k source
// packets followed by n-k repair packets, which are mutually independent
// and generated by a GOMAXPROCS-sized worker pool.
func (v *Vandermonde) Encode(src [][]byte) ([][]byte, error) { return code.EncodeAll(v, src) }

// EncodeRange implements code.RangeEncoder.
func (v *Vandermonde) EncodeRange(src [][]byte, lo, hi int) ([][]byte, error) {
	return code.EncodeRows(v, src, lo, hi)
}

// NewDecoder implements code.Codec.
func (v *Vandermonde) NewDecoder() code.Decoder {
	return &vdmDecoder{c: v, have: make(map[int][]byte, v.k)}
}

type vdmDecoder struct {
	c    *Vandermonde
	have map[int][]byte // packet index -> payload (first k distinct kept)
	src  [][]byte       // decoded source, cached
}

func (d *vdmDecoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, d.c.n, d.c.packetLen); err != nil {
		return d.Done(), err
	}
	if d.Done() {
		return true, nil
	}
	if _, dup := d.have[i]; dup {
		return false, nil
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.have[i] = buf
	return d.Done(), nil
}

func (d *vdmDecoder) Done() bool { return len(d.have) >= d.c.k }

func (d *vdmDecoder) Received() int { return len(d.have) }

// Source implements code.Decoder. This is the expensive step the paper
// measures in Table 3: Gaussian inversion of the k x k reception matrix
// followed by reconstruction of the missing source packets.
func (d *vdmDecoder) Source() ([][]byte, error) {
	if d.src != nil {
		return d.src, nil
	}
	if !d.Done() {
		return nil, code.ErrNotReady
	}
	c := d.c
	f := c.f
	// Deterministic order: source packets first (their rows are units and
	// make the elimination cheaper), then repairs — mirroring how Rizzo's
	// decoder shuffles known source packets to the top.
	idx := make([]int, 0, c.k)
	for i := 0; i < c.n && len(idx) < c.k; i++ {
		if _, ok := d.have[i]; ok {
			idx = append(idx, i)
		}
	}
	m := gfmat.New(f, c.k, c.k)
	for r, i := range idx {
		if i < c.k {
			m.Set(r, i, 1)
			continue
		}
		wx, row := c.rowScale(i), m.Row(r)
		for j := range row {
			row[j] = c.coeff(wx, i, j)
		}
	}
	inv, err := m.Invert()
	if err != nil {
		return nil, fmt.Errorf("rs: reception matrix singular: %w", err)
	}
	src := make([][]byte, c.k)
	missing := make([]int, 0, c.k)
	for j := 0; j < c.k; j++ {
		if p, ok := d.have[j]; ok {
			src[j] = p
		} else {
			missing = append(missing, j)
		}
	}
	// Reconstruction is coefficient-major (one table per inverse entry,
	// reused across the packet) and parallel across the missing packets,
	// which are independent of each other. Inverse entries are specific to
	// this reception pattern and essentially never repeat, so the tables
	// are built into per-worker scratch rather than the field's permanent
	// cache (which is for the repeating encode-matrix coefficients).
	store := make([]byte, len(missing)*c.packetLen)
	code.ParallelChunks(len(missing), func(lo, hi int) {
		tab := new(gf.MulTab16)
		for mi := lo; mi < hi; mi++ {
			j := missing[mi]
			p := store[mi*c.packetLen : (mi+1)*c.packetLen]
			for r, coeff := range inv.Row(j) {
				if coeff == 0 {
					continue
				}
				f.MulTabInto(coeff, tab)
				gf.MulSliceAddTab16(tab, p, d.have[idx[r]])
			}
			src[j] = p
		}
	})
	d.src = src
	return src, nil
}
