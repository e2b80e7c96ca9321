// Package peel is the one decoder under the LT and raptor codecs, plus the
// pieces every such code shares: the per-index neighbour sampler
// (sampler.go) and the packet-buffer arena (arena.go).
//
// The decoder solves a system of XOR equations over L columns, of which
// the first K are the source symbols. The equation set is the union of
//
//   - the L-K *static* equations 0 = column(K+j) ⊕ ⊕ CheckSrc[j], known
//     by construction (their right-hand side is the implicit all-zero
//     packet, never transmitted), and
//   - the received packets: a packet of the systematic prefix is its
//     column verbatim, any other the XOR of its drawn neighbours.
//
// LT is the decoder with no static rows and no systematic prefix; raptor
// supplies its precode as static rows. Static equations are free rank: a
// receiver needs only ≈K received symbols regardless of L-K, because the
// check symbols come with their own defining equations.
//
// Collect, then solve once. The L-K static rows plus fewer than K received
// ones cannot have rank L, so until the K-th distinct packet the decoder
// only keeps what it received: a systematic packet in its slot of the
// source buffer plus one bit, a coded one as its payload and its neighbour
// set, drawn once. At the K-th it analyses the whole system once
// (bitmat.Solver: inactivation decoding, the solver the Tornado decoder
// ends on) over every column not received verbatim. If that analysis is
// short by δ, each later packet's row is offered to it (Solver.Extend),
// which keeps the row iff it raises the rank. At deficit zero the decoder
// folds the known columns into the right-hand sides, solves, and writes the
// solution's source columns to their slots. It is therefore done at exactly
// the packet that makes the source recoverable, and a receiver of the K
// systematic packets is done at the K-th with no analysis and no XOR.
package peel

import (
	"repro/internal/bitmat"
	"repro/internal/code"
	"repro/internal/gf"
)

// Code is what a code contributes to the decoder. It is immutable and
// shared by every decoder of a session.
type Code struct {
	K         int // source symbols: columns [0, K)
	PacketLen int
	// Draw is the per-index neighbour function: the columns XORed into
	// packet index (>= Systematic), drawn over all L = Draw.L columns.
	// Columns [K, L) are the static equations' check symbols.
	Draw Sampler
	// Systematic is the length of the identity prefix: packet index
	// i < Systematic carries column i verbatim (0 for LT, K for raptor).
	Systematic int
	// CheckSrc[j] lists the sources of static equation j (0 <= j < L-K):
	// 0 = column(K+j) ⊕ ⊕_{i∈CheckSrc[j]} column(i).
	CheckSrc [][]int32
}

// Decoder is one reception session over a Code. It implements
// code.Decoder and code.ReleaseCounter.
type Decoder struct {
	c    *Code
	out  code.SourceBuf      // the source columns, in place: what Source returns
	got  []uint64            // per systematic index: received, as a bitset
	nsys int                 // systematic packets received
	seen map[uint32]struct{} // coded indices received; nil before the first
	done bool

	// The kept coded rows, in arrival order: row r's payload is data[r] and
	// its neighbours are nbrs[off[r]:off[r+1]].
	data  [][]byte
	nbrs  []int32
	off   []int32
	arena Arena

	solver  bitmat.Solver
	colOf   []int32 // per column: its index in the analysis, -1 if received verbatim; nil before it
	deficit int     // of the analysed system, extensions included
	row     []int32 // scratch: one row over the analysis' columns
	nbuf    []int

	analyses, released, xors int
}

// NewDecoder starts a reception session. Nothing per column is allocated
// until a packet needs it.
func NewDecoder(c *Code) *Decoder {
	return &Decoder{
		c:     c,
		out:   code.SourceBuf{K: c.K, PacketLen: c.PacketLen},
		got:   make([]uint64, (c.Systematic+63)/64),
		arena: Arena{PacketLen: c.PacketLen},
	}
}

// Add implements code.Decoder.
func (d *Decoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, code.UnboundedN, d.c.PacketLen); err != nil {
		return d.done, err
	}
	if d.done {
		return true, nil
	}
	if i < d.c.Systematic {
		w, bit := i/64, uint64(1)<<(i%64)
		if d.got[w]&bit != 0 {
			return false, nil
		}
		d.got[w] |= bit
		d.nsys++
		copy(d.out.Slot(i), data)
		if d.nsys == d.c.K {
			d.finish()
			return true, nil
		}
		d.nbuf = append(d.nbuf[:0], i)
	} else {
		if d.seen == nil {
			d.size()
		}
		if _, dup := d.seen[uint32(i)]; dup {
			return false, nil
		}
		d.seen[uint32(i)] = struct{}{}
		d.nbuf = d.c.Draw.NeighborsInto(uint32(i), d.nbuf)
	}
	switch {
	case d.colOf != nil:
		// After the analysis a packet is kept only if it raises the rank,
		// a systematic one too: its column is one of the analysis'.
		before := d.deficit
		d.row = over(d.row[:0], d.colOf, d.nbuf)
		if d.deficit = d.solver.Extend(d.row); d.deficit < before {
			d.store(d.nbuf, data)
		}
	case i >= d.c.Systematic:
		d.store(d.nbuf, data)
	}
	if d.colOf == nil && d.Received() >= d.c.K {
		d.analyse()
	}
	if d.colOf != nil && d.deficit == 0 {
		d.solve()
	}
	return d.done, nil
}

// size makes the coded store at the first coded packet: room for the rows
// still to come (K less the systematic packets held, plus a margin for the
// reception overhead) at the sampler's mean degree, and for the static
// rows' right-hand sides.
func (d *Decoder) size() {
	n := d.c.K - d.nsys + d.c.K/64 + 16
	d.seen = make(map[uint32]struct{}, n)
	d.data = make([][]byte, 0, n)
	d.off = append(make([]int32, 0, n+1), 0)
	d.nbrs = make([]int32, 0, int(float64(n)*d.c.Draw.meanDegree()*9/8))
	d.arena.slab = make([]byte, (n+len(d.c.CheckSrc))*d.c.PacketLen)
}

// store keeps a row: a copy of its payload and its neighbours.
func (d *Decoder) store(nbs []int, data []byte) {
	buf := d.arena.Alloc()
	copy(buf, data)
	d.data = append(d.data, buf)
	for _, v := range nbs {
		d.nbrs = append(d.nbrs, int32(v))
	}
	d.off = append(d.off, int32(len(d.nbrs)))
}

// analyse runs the one analysis: the static rows, then the kept rows, over
// every column not received verbatim.
func (d *Decoder) analyse() {
	d.colOf = make([]int32, d.c.Draw.L)
	cols := int32(0)
	for v := range d.colOf {
		if d.colOf[v] = -1; v >= d.c.Systematic || d.got[v/64]&(1<<(v%64)) == 0 {
			d.colOf[v] = cols
			cols++
		}
	}
	edges := len(d.nbrs)
	for _, srcs := range d.c.CheckSrc {
		edges += len(srcs) + 1
	}
	d.solver.Reset(len(d.c.CheckSrc)+len(d.data), edges)
	for j, srcs := range d.c.CheckSrc {
		d.row = append(over(d.row[:0], d.colOf, srcs), d.colOf[d.c.K+j])
		d.solver.AddRow(d.row)
	}
	for r := range d.data {
		d.row = over(d.row[:0], d.colOf, d.nbrs[d.off[r]:d.off[r+1]])
		d.solver.AddRow(d.row)
	}
	d.deficit = d.solver.Analyze(int(cols))
	d.analyses++
}

// solve folds the known columns into the right-hand sides (a static row's
// starts as the zero packet), solves in place, and copies the solution's
// source columns to their slots.
func (d *Decoder) solve() {
	rhs := make([][]byte, 0, len(d.c.CheckSrc)+len(d.data))
	for _, srcs := range d.c.CheckSrc {
		buf := d.arena.Alloc()
		clear(buf)
		rhs = append(rhs, d.fold(buf, srcs))
	}
	for r, buf := range d.data {
		rhs = append(rhs, d.fold(buf, d.nbrs[d.off[r]:d.off[r+1]]))
	}
	sol := d.solver.Solve(rhs)
	for v, c := range d.colOf[:d.c.K] {
		if c >= 0 {
			copy(d.out.Slot(v), sol[c])
		}
	}
	d.released, d.xors = len(sol), d.xors+d.solver.XORs()
	d.finish()
}

// fold XORs into buf the columns among vs received verbatim.
func (d *Decoder) fold(buf []byte, vs []int32) []byte {
	for _, v := range vs {
		if d.colOf[v] < 0 {
			gf.XORSlice(buf, d.out.Slot(int(v)))
			d.xors++
		}
	}
	return buf
}

// over appends to row the analysis' columns among vs.
func over[T int | int32](row, colOf []int32, vs []T) []int32 {
	for _, v := range vs {
		if c := colOf[v]; c >= 0 {
			row = append(row, c)
		}
	}
	return row
}

// finish drops all decoding state; out survives for Source.
func (d *Decoder) finish() {
	d.done = true
	d.got, d.data, d.nbrs, d.off = nil, nil, nil, nil
	d.colOf, d.row, d.nbuf = nil, nil, nil
	d.arena = Arena{}
	d.solver = bitmat.Solver{}
}

var (
	_ code.Decoder        = (*Decoder)(nil)
	_ code.ReleaseCounter = (*Decoder)(nil)
)

// Done implements code.Decoder.
func (d *Decoder) Done() bool { return d.done }

// Received implements code.Decoder: distinct accepted packets.
func (d *Decoder) Received() int { return d.nsys + len(d.seen) }

// Released implements code.ReleaseCounter: the columns the solve resolved
// from coded equations — every column not received verbatim, once done by
// a solve. A receiver of the K systematic packets reports exactly 0.
func (d *Decoder) Released() int { return d.released }

// XORs returns the decoder's payload XORs: known columns folded into
// right-hand sides plus the solve's own. Zero loss ⇒ zero.
func (d *Decoder) XORs() int { return d.xors }

// Source implements code.Decoder.
func (d *Decoder) Source() ([]byte, error) {
	if !d.done {
		return nil, code.ErrNotReady
	}
	return d.out.Bytes(), nil
}
