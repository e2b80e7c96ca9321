// Package peel is the one decoder under the Tornado, LT and raptor codecs,
// plus the per-index neighbour sampler the rateless codes draw their rows
// from (sampler.go).
//
// The decoder solves a system of XOR equations over L = K + len(CheckSrc)
// columns, of which the first K are the source symbols. The equation set is
// the union of
//
//   - the L-K *static* equations 0 = column(K+j) ⊕ ⊕ CheckSrc[j], known
//     by construction (their right-hand side is the implicit all-zero
//     packet, never transmitted), and
//   - the received packets: a packet of the systematic prefix is its
//     column verbatim, any other the XOR of its neighbours (Code.Draw).
//
// LT is the decoder with no static rows and no systematic prefix; raptor
// supplies its precode as static rows. A Tornado code supplies its cascade:
// check j's value is column K+j, a received cascade value the one-neighbour
// row {i}, and a dense-tail packet its check's row, read from a table.
// Static equations are free rank: a receiver needs only ≈K received symbols
// regardless of L-K, because the check symbols come with their own defining
// equations.
//
// Collect, then solve once. The L-K static rows plus fewer than K received
// ones cannot have rank L, so until the K-th distinct packet the decoder
// only keeps what it received: a systematic packet in its slot of the
// source buffer plus one bit, a coded one as its payload and its neighbour
// set, drawn once. At the K-th it analyses the whole system once
// (bitmat.Solver: inactivation decoding) over every column not received
// verbatim. If that analysis is short by δ, each later packet's row is
// offered to it (Solver.Extend), which keeps the row iff it raises the
// rank. At deficit zero the decoder folds the known columns into the
// right-hand sides, solves in place, and permutes the solution's source
// columns into their slots. It is therefore done at exactly the packet
// that makes the source recoverable, and a receiver of the K systematic
// packets is done at the K-th with no analysis and no XOR.
//
// One buffer. The source buffer is the decoder's only file-sized store: a
// coded payload waits in a free slot — one of a column not received
// verbatim that holds no other payload — and only the rows that find none
// (the static rows' right-hand sides, the rows Extend keeps) go to a
// spill. A systematic packet whose slot holds a coded payload moves that
// payload on first.
package peel

import (
	"slices"

	"repro/internal/bitmat"
	"repro/internal/code"
	"repro/internal/gf"
)

// Code is what a code contributes to the decoder. It is immutable and
// shared by every decoder of a session.
type Code struct {
	K         int // source symbols: columns [0, K)
	N         int // packet indices: [0, N), code.UnboundedN for a rateless code
	PacketLen int
	// Draw is the neighbour function: the columns XORed into packet index
	// (>= Systematic), over all L = K + len(CheckSrc) columns. Columns
	// [K, L) are the static equations' check symbols.
	Draw Neighbors
	// Systematic is the length of the identity prefix: packet index
	// i < Systematic carries column i verbatim (0 for LT, K otherwise).
	Systematic int
	// CheckSrc[j] lists the other columns of static equation j
	// (0 <= j < L-K): 0 = column(K+j) ⊕ ⊕_{i∈CheckSrc[j]} column(i). They
	// may be check columns too: a Tornado level's checks name the level
	// before theirs.
	CheckSrc [][]int32
}

// Neighbors is a code's neighbour function: a Sampler's draw, or a table.
type Neighbors interface {
	// NeighborsInto writes packet index's columns into buf (reused if
	// capacity allows) and returns it: duplicate-free, each below L.
	NeighborsInto(index uint32, buf []int) []int
	// MeanDegree is the expected number of columns of a packet.
	MeanDegree() float64
}

// Decoder is one reception session over a Code. It implements
// code.Decoder and code.ReleaseCounter.
type Decoder struct {
	c    *Code
	out  code.SourceBuf      // the file: what Source returns, and where coded payloads wait
	got  []uint64            // per systematic index: received, as a bitset
	nsys int                 // systematic packets received
	seen map[uint32]struct{} // coded indices received; nil before the first
	done bool

	// The system's rows: the L-K static rows, then the kept coded rows in
	// arrival order. Row r's payload is slot loc[r] of out if loc[r] >= 0,
	// else packet -1-loc[r] of spill; a static row gets one only at the
	// solve. Kept row r's neighbours are nbrs[off[r-s]:off[r-s+1]], s the
	// static rows.
	loc   []int32
	nbrs  []int32
	off   []int32
	owner []int32 // per source slot: the row whose payload it holds, -1 if none
	free  int     // every slot below it is received or owned
	spill []byte  // the payloads that found no free slot, packet after packet

	solver  bitmat.Solver
	colOf   []int32 // per column: its index in the analysis, -1 if received verbatim; nil before it
	deficit int     // of the analysed system, extensions included
	row     []int32 // scratch: one row over the analysis' columns
	nbuf    []int

	analyses, released, inactivated, xors int
}

// NewDecoder starts a reception session. Nothing per column is allocated
// until a packet needs it.
func NewDecoder(c *Code) *Decoder {
	return &Decoder{
		c:   c,
		out: code.SourceBuf{K: c.K, PacketLen: c.PacketLen},
		got: make([]uint64, (c.Systematic+63)/64),
	}
}

// Add implements code.Decoder.
func (d *Decoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, d.c.N, d.c.PacketLen); err != nil {
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
		if d.colOf == nil {
			d.put(i, data)
			if d.nsys == d.c.K {
				d.finish()
				return true, nil
			}
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
		// a systematic one too: its column is one of the analysis', so it
		// is a row like any other and not written to its slot.
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

// size makes the row store at the first coded packet: room for the rows
// still to come (K less the systematic packets held, plus a margin for the
// reception overhead) at the sampler's mean degree, and a spill for the
// static rows' right-hand sides and that margin.
func (d *Decoder) size() {
	s, margin := len(d.c.CheckSrc), d.c.K/64+16
	n := d.c.K - d.nsys + margin
	d.seen = make(map[uint32]struct{}, n)
	d.loc = make([]int32, s, s+n)
	d.off = append(make([]int32, 0, n+1), 0)
	d.nbrs = make([]int32, 0, int(float64(n)*d.c.Draw.MeanDegree()*9/8))
	d.owner = make([]int32, d.c.K)
	for v := range d.owner {
		d.owner[v] = -1
	}
	d.spill = make([]byte, 0, (s+margin)*d.c.PacketLen)
}

// put writes systematic packet i to its slot, first moving on a coded
// payload waiting there.
func (d *Decoder) put(i int, data []byte) {
	if d.owner != nil && d.owner[i] >= 0 {
		r := d.owner[i]
		d.owner[i] = -1
		copy(d.alloc(r), d.out.Slot(i))
	}
	copy(d.out.Slot(i), data)
}

// store keeps a row: a copy of its payload and its neighbours.
func (d *Decoder) store(nbs []int, data []byte) {
	d.loc = append(d.loc, 0)
	copy(d.alloc(int32(len(d.loc)-1)), data)
	for _, v := range nbs {
		d.nbrs = append(d.nbrs, int32(v))
	}
	d.off = append(d.off, int32(len(d.nbrs)))
}

// alloc gives row r a payload buffer, with arbitrary contents: the first
// free slot, else the spill's next packet. A later alloc may move the
// spill, so the buffer is valid only until then.
func (d *Decoder) alloc(r int32) []byte {
	for ; d.free < d.c.K; d.free++ {
		if v := d.free; d.owner[v] < 0 && (v >= d.c.Systematic || d.got[v/64]&(1<<(v%64)) == 0) {
			d.owner[v], d.loc[r] = r, int32(v)
			d.free++
			return d.out.Slot(v)
		}
	}
	d.loc[r] = -1 - d.grow()
	return d.at(d.loc[r])
}

// grow appends one packet, with arbitrary contents, to the spill and
// returns its index there.
func (d *Decoder) grow() int32 {
	n := len(d.spill)
	d.spill = slices.Grow(d.spill, d.c.PacketLen)[:n+d.c.PacketLen]
	return int32(n / d.c.PacketLen)
}

// at returns slot j of out if j >= 0, else packet -1-j of the spill.
func (d *Decoder) at(j int32) []byte {
	if j >= 0 {
		return d.out.Slot(int(j))
	}
	pl := d.c.PacketLen
	o := int(-1-j) * pl
	return d.spill[o : o+pl : o+pl]
}

// analyse runs the one analysis: the static rows, then the kept rows, over
// every column not received verbatim.
func (d *Decoder) analyse() {
	d.colOf = make([]int32, d.c.K+len(d.c.CheckSrc))
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
	d.solver.Reset(len(d.loc), edges)
	for j, srcs := range d.c.CheckSrc {
		d.row = append(over(d.row[:0], d.colOf, srcs), d.colOf[d.c.K+j])
		d.solver.AddRow(d.row)
	}
	for r := range len(d.off) - 1 {
		d.row = over(d.row[:0], d.colOf, d.nbrs[d.off[r]:d.off[r+1]])
		d.solver.AddRow(d.row)
	}
	d.deficit = d.solver.Analyze(int(cols))
	d.analyses++
}

// solve folds the known columns into the right-hand sides (a static row's
// starts as the zero packet), solves in place, and permutes the solution's
// source columns into their slots.
func (d *Decoder) solve() {
	s := len(d.c.CheckSrc)
	for j := range s {
		clear(d.alloc(int32(j)))
	}
	rhs := make([][]byte, len(d.loc))
	for r := range rhs {
		if rhs[r] = d.at(d.loc[r]); r < s {
			d.fold(rhs[r], d.c.CheckSrc[r])
		} else {
			d.fold(rhs[r], d.nbrs[d.off[r-s]:d.off[r-s+1]])
		}
	}
	rowOf := d.solver.Solve(rhs)
	// The analysis' columns and the slots' owners are not read again; their
	// storage holds where each slot's value is and which slot needs it.
	from := d.colOf[:d.c.K]
	for v, c := range from {
		if from[v] = int32(v); c >= 0 {
			from[v] = d.loc[rowOf[c]]
		}
	}
	d.permute(from, d.owner)
	d.released, d.inactivated, d.xors = len(rowOf), d.solver.Inactivated(), d.xors+d.solver.XORs()
	d.finish()
}

// fold XORs into buf the columns among vs received verbatim.
func (d *Decoder) fold(buf []byte, vs []int32) {
	for _, v := range vs {
		if d.colOf[v] < 0 {
			gf.XORSlice(buf, d.out.Slot(int(v)))
			d.xors++
		}
	}
}

// permute puts every source column's value in its slot. Slot v's value is
// at(from[v]), so from[v] == v means in place; no two slots' values share a
// place. A slot whose content no other slot needs starts a chain: it takes
// its value, which frees the slot that value came from to take its own, and
// so on until a value comes from the spill. What is left are pure cycles,
// each closed through one scratch packet. So every value not in place is
// copied once, plus one copy per cycle; permute returns the number of
// cycles. It overwrites from, and uses need, as long as from, as scratch.
func (d *Decoder) permute(from, need []int32) (cycles int) {
	for v := range need {
		need[v] = -1
	}
	for v, j := range from {
		if j >= 0 && j != int32(v) {
			need[j] = int32(v)
		}
	}
	for v, j := range from {
		if j != int32(v) && need[v] < 0 {
			d.chain(from, int32(v), nil)
		}
	}
	var scratch []byte
	for v, j := range from {
		if j != int32(v) {
			if scratch == nil {
				scratch = d.at(-1 - d.grow())
			}
			copy(scratch, d.out.Slot(v))
			d.chain(from, int32(v), scratch)
			cycles++
		}
	}
	return cycles
}

// chain fills slot v, then the slot its value came from, and so on until a
// value comes from the spill, or from slot v itself: a cycle, whose content
// at slot v was saved in scratch.
func (d *Decoder) chain(from []int32, v int32, scratch []byte) {
	start := v
	for j := from[v]; j != v; v, j = j, from[j] {
		src := scratch
		if j != start {
			src = d.at(j)
		}
		copy(d.out.Slot(int(v)), src)
		if from[v] = v; j < 0 || j == start {
			return
		}
	}
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
	d.got, d.loc, d.nbrs, d.off, d.owner, d.spill = nil, nil, nil, nil, nil, nil
	d.colOf, d.row, d.nbuf = nil, nil, nil
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

// Inactivated returns the columns the one analysis inactivated, 0 before
// a solve.
func (d *Decoder) Inactivated() int { return d.inactivated }

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
