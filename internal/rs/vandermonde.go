// Package rs implements the two "standard" Reed-Solomon erasure-code
// baselines the paper benchmarks against (§5.2, Tables 2-3):
//
//   - Vandermonde codes in the style of Rizzo's fec [16]: symbols are
//     GF(2^16) elements, encoding evaluates the source polynomial at extra
//     points, and decoding inverts a k x k matrix by Gaussian elimination
//     (O(k^3)) — the behaviour that makes the baseline collapse at large k.
//   - Cauchy codes in the style of Blömer et al. [2]: the generator is a
//     Cauchy matrix expanded to bit matrices so that encoding and decoding
//     are pure XORs (applied by coefficient bit, one packet XOR per set
//     bit), and the decode-time matrix inversion uses the closed-form
//     O(x^2) Cauchy inverse.
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
	return &vdmDecoder{c: v, reception: newReception(v.k, v.n, v.packetLen, nil, 0)}
}

// reception is what an RS decoder holds: source packets in their slots of
// out, repairs back to back in rep — exactly as many as the missing slots.
type reception struct {
	k, pl  int
	out    *code.SourceBuf
	base   int    // this decoder's source packet 0 is out's packet base
	seen   []bool // per packet index
	held   int    // distinct packets held
	repIdx []int  // repair packets held, in arrival order
	rep    []byte // their payloads
	solved bool
}

func newReception(k, n, pl int, out *code.SourceBuf, base int) reception {
	if out == nil {
		out = &code.SourceBuf{K: k, PacketLen: pl}
	}
	return reception{k: k, pl: pl, out: out, base: base, seen: make([]bool, n)}
}

// Add implements code.Decoder.
func (r *reception) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, len(r.seen), r.pl); err != nil {
		return r.Done(), err
	}
	if r.Done() || r.seen[i] {
		return r.Done(), nil
	}
	r.seen[i] = true
	r.held++
	if i < r.k {
		copy(r.slot(i), data)
	} else {
		r.repIdx = append(r.repIdx, i)
		r.rep = append(r.rep, data...)
	}
	return r.Done(), nil
}

// Done implements code.Decoder.
func (r *reception) Done() bool { return r.held >= r.k }

// Received implements code.Decoder.
func (r *reception) Received() int { return r.held }

func (r *reception) slot(j int) []byte { return r.out.Slot(r.base + j) }

// repair returns the payload of the m-th repair packet held.
func (r *reception) repair(m int) []byte { return r.rep[m*r.pl : (m+1)*r.pl : (m+1)*r.pl] }

// missing lists the source packets not received, allocating out first
// for the parallel workers that write them.
func (r *reception) missing() []int {
	r.slot(0)
	out := make([]int, 0, len(r.repIdx))
	for j := range r.k {
		if !r.seen[j] {
			out = append(out, j)
		}
	}
	return out
}

// source marks the reception solved and returns its range of out.
func (r *reception) source() []byte {
	r.solved = true
	return r.out.Bytes()[r.base*r.pl : (r.base+r.k)*r.pl]
}

type vdmDecoder struct {
	c *Vandermonde
	reception
}

// Source implements code.Decoder. This is the expensive step the paper
// measures in Table 3: Gaussian inversion of the k x k reception matrix
// followed by reconstruction of the missing source packets.
func (d *vdmDecoder) Source() ([]byte, error) {
	if d.solved {
		return d.source(), nil
	}
	if !d.Done() {
		return nil, code.ErrNotReady
	}
	missing := d.missing()
	if len(missing) == 0 {
		return d.source(), nil
	}
	c := d.c
	f := c.f
	// Deterministic order: source packets first (their rows are units and
	// make the elimination cheaper), then repairs — mirroring how Rizzo's
	// decoder shuffles known source packets to the top.
	payload := make([][]byte, 0, c.k)
	m := gfmat.New(f, c.k, c.k)
	for j := range c.k {
		if d.seen[j] {
			m.Set(len(payload), j, 1)
			payload = append(payload, d.slot(j))
		}
	}
	for ri, i := range d.repIdx {
		wx, row := c.rowScale(i), m.Row(len(payload))
		for j := range row {
			row[j] = c.coeff(wx, i, j)
		}
		payload = append(payload, d.repair(ri))
	}
	inv, err := m.Invert()
	if err != nil {
		return nil, fmt.Errorf("rs: reception matrix singular: %w", err)
	}
	// Reconstruction is coefficient-major (one table per inverse entry,
	// reused across the packet) and parallel across the missing packets,
	// which are independent of each other. Inverse entries are specific to
	// this reception pattern and essentially never repeat, so the tables
	// are built into per-worker scratch rather than the field's permanent
	// cache (which is for the repeating encode-matrix coefficients).
	code.ParallelChunks(len(missing), func(lo, hi int) {
		tab := new(gf.MulTab16)
		for _, j := range missing[lo:hi] {
			p := d.slot(j)
			for r, coeff := range inv.Row(j) {
				if coeff == 0 {
					continue
				}
				f.MulTabInto(coeff, tab)
				gf.MulSliceAddTab16(tab, p, payload[r])
			}
		}
	})
	return d.source(), nil
}
