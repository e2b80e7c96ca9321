// Package peel is the one belief-propagation peeling engine under the LT
// and raptor codecs, plus the pieces every peeling code shares: the
// per-index neighbour sampler (sampler.go) and the packet-buffer arena
// (arena.go).
//
// The engine decodes a system of XOR equations over L columns, of which
// the first K are the source symbols. The equation set is the union of
//
//   - the L-K *static* equations 0 = column(K+j) ⊕ ⊕ CheckSrc[j], known
//     by construction and present from packet zero (their "payload" is the
//     implicit all-zero packet — never allocated, never transmitted), and
//   - the received coded packets (packets of the systematic prefix resolve
//     their column directly; the rest are neighbour-function equations).
//
// LT is the engine with no static rows and no systematic prefix; raptor
// supplies its precode as static rows. Static equations are free rank: a
// receiver needs only ≈K received symbols regardless of L-K, because the
// check symbols come with their own defining equations.
//
// Two mechanisms keep the hot path linear and the lossless path free:
//
// Parking. An equation whose single unknown is a *check* symbol that no
// other live equation wants is parked, not released: releasing it would
// spend check-degree XORs computing a value nobody reads. At zero loss
// every static equation ends parked on its own check symbol, so a
// receiver of the K systematic packets performs exactly zero XOR work.
// A parked equation is revived the moment a new packet registers as a
// waiter on its check symbol.
//
// The endgame. Peeling alone is not maximum-likelihood, so the engine
// hands its residual system to bitmat.Solver (inactivation decoding — the
// same solver the Tornado decoder ends on) behind one exact gate: the
// first attempt at K distinct packets, since the L-K static rows plus fewer
// than K received ones cannot have rank L; after an attempt short by δ,
// each new packet's row is checked against that analysis
// (bitmat.Solver.Extend), and the next attempt comes when the deficit is
// zero. The engine is therefore done at exactly the packet that makes the
// source recoverable.
package peel

import (
	"repro/internal/bitmat"
	"repro/internal/code"
	"repro/internal/gf"
)

// Code is what a code contributes to the engine. It is immutable and
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
	// StaticOf[v] lists the static equations covering column v — the
	// reverse adjacency walked when v resolves; for a check column K+j it
	// is exactly {j}. Unused (may be nil) when L == K.
	StaticOf [][]int32
}

// eq is one decoding equation. Ids [0, s) are the static equations
// (data == nil: the implicit zero payload); received packets append
// after. data holds the raw payload as received; resolved neighbors are
// XORed out lazily at release time, so each payload is touched O(degree)
// times total.
type eq struct {
	index     uint32 // wire index (received equations only)
	data      []byte // arena-backed payload; nil for static equations
	remaining int32  // unresolved neighbors; 0 = retired
}

// Decoder is one reception session over a Code. It implements
// code.Decoder and code.ReleaseCounter.
type Decoder struct {
	c *Code
	s int // static equations: L - K

	values  [][]byte       // per column; nil while unresolved. A source column's is its slot of out.
	out     code.SourceBuf // the source columns, in place: what Source returns
	srcLeft int            // unresolved source symbols (done when 0)
	eqs     []eq           // [0,s) static, then received
	// Waiter lists (column -> ids of buffered equations covering it) as
	// linked nodes in one growable arena — registration never allocates
	// per symbol.
	whead   []int32 // per column: index into wnodes, -1 = empty
	wnodes  []wnode
	relq    []int32
	parked  []int32             // per check j: 1+id of an equation parked on K+j, 0 if none
	seen    map[uint32]struct{} // distinct accepted wire indices
	deficit int                 // rank deficit of the whole system, once known

	released int // coded-equation releases: the deferred-XOR events
	xors     int // payload XORSlice calls on the peeling path

	nbuf  []int
	done  bool
	arena Arena

	// Endgame scratch, reused across attempts.
	solver bitmat.Solver
	colOf  []int32 // per column: its index in the last endgame system, -1 if resolved then
	syms   []int32 // endgame index -> column
	rows   []int32 // solver row -> equation id
	prow   []int32 // a new packet's row over the last endgame system
}

// wnode is one waiter registration: equation id, plus the next node on
// the same column's list.
type wnode struct {
	id   int32
	next int32
}

// NewDecoder starts a reception session. The static equations are live
// immediately; a zero-source check (possible on tiny precodes) starts
// releasable and is parked on first drain.
func NewDecoder(c *Code) *Decoder {
	l := c.Draw.L
	s := l - c.K
	d := &Decoder{
		c:       c,
		s:       s,
		values:  make([][]byte, l),
		whead:   make([]int32, l),
		wnodes:  make([]wnode, 0, 2*c.K),
		eqs:     make([]eq, s, s+c.K/2+16),
		parked:  make([]int32, s),
		seen:    make(map[uint32]struct{}, c.K+c.K/8),
		srcLeft: c.K,
		out:     code.SourceBuf{K: c.K, PacketLen: c.PacketLen},
		arena:   Arena{PacketLen: c.PacketLen},
	}
	for v := range d.whead {
		d.whead[v] = -1
	}
	for j, srcs := range c.CheckSrc {
		d.eqs[j].remaining = int32(len(srcs)) + 1 // its sources plus its own check symbol
		if len(srcs) == 0 {
			d.relq = append(d.relq, int32(j))
		}
	}
	return d
}

// Add implements code.Decoder.
func (d *Decoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, code.UnboundedN, d.c.PacketLen); err != nil {
		return d.done, err
	}
	if d.done {
		return true, nil
	}
	index := uint32(i)
	if _, dup := d.seen[index]; dup {
		return false, nil
	}
	d.seen[index] = struct{}{}
	if i < d.c.Systematic {
		// Systematic packet: the payload IS column i. No XOR, no
		// equation bookkeeping beyond the resolve ripple.
		if d.values[i] == nil {
			slot := d.out.Slot(i)
			copy(slot, data)
			d.resolve(i, slot)
			d.drainRipple()
		}
	} else {
		d.nbuf = d.c.Draw.NeighborsInto(index, d.nbuf)
		unresolved := 0
		last := -1
		for _, nb := range d.nbuf {
			if d.values[nb] == nil {
				unresolved++
				last = nb
			}
		}
		switch unresolved {
		case 0:
			// Redundant at arrival: adds no equation.
		case 1:
			// Immediately releasable.
			buf := d.arena.Alloc()
			copy(buf, data)
			for _, nb := range d.nbuf {
				if v := d.values[nb]; v != nil {
					gf.XORSlice(buf, v)
					d.xors++
				}
			}
			d.released++
			d.resolve(last, d.keep(last, buf))
			d.drainRipple()
		default:
			id := int32(len(d.eqs))
			buf := d.arena.Alloc()
			copy(buf, data)
			d.eqs = append(d.eqs, eq{index: index, data: buf, remaining: int32(unresolved)})
			for _, nb := range d.nbuf {
				if d.values[nb] != nil {
					continue
				}
				d.addWaiter(nb, id)
				if nb >= d.c.K {
					// A new customer for this check symbol: revive any
					// equation parked on it.
					if p := d.parked[nb-d.c.K]; p != 0 {
						d.parked[nb-d.c.K] = 0
						d.relq = append(d.relq, p-1)
					}
				}
			}
			d.drainRipple()
		}
	}
	if !d.done && len(d.seen) >= d.c.K {
		if d.deficit > 0 {
			d.deficit = d.solver.Extend(d.packetRow(i))
		}
		if d.deficit == 0 {
			d.endgame()
		}
	}
	return d.done, nil
}

// resolve records column s's value and decrements every live equation
// covering it: the static equations via the code's reverse adjacency, the
// buffered received equations via the waiter lists.
func (d *Decoder) resolve(s int, val []byte) {
	d.values[s] = val
	if s < d.c.K {
		d.srcLeft--
		if d.srcLeft == 0 {
			d.finish()
			return
		}
	} else if p := d.parked[s-d.c.K]; p != 0 {
		// Anything parked on this check symbol is now redundant; its
		// remaining hits 0 in the decrement loops below.
		d.parked[s-d.c.K] = 0
	}
	if d.s > 0 {
		for _, j := range d.c.StaticOf[s] {
			e := &d.eqs[j]
			if e.remaining > 0 {
				e.remaining--
				if e.remaining == 1 {
					d.relq = append(d.relq, j)
				}
			}
		}
	}
	for nid := d.whead[s]; nid >= 0; nid = d.wnodes[nid].next {
		id := d.wnodes[nid].id
		e := &d.eqs[id]
		if e.remaining > 0 {
			e.remaining--
			switch e.remaining {
			case 1:
				d.relq = append(d.relq, id)
			case 0:
				// Queued for release with s as its last unknown; now
				// fully covered, hence redundant.
				d.arena.Free(e.data)
				e.data = nil
			}
		}
	}
	d.whead[s] = -1 // nodes stay in the arena; freed wholesale at finish
}

// needed reports whether releasing equation id's check-symbol target
// would feed any *other* live equation. A static equation wants its own
// check only while it still has another unknown to peel (remaining > 1);
// a waiter likewise contributes nothing if the check is its sole unknown
// too (releasing either one retires both with no symbol gained).
func (d *Decoder) needed(id int32, target int) bool {
	j := int32(target - d.c.K)
	if j != id && d.eqs[j].remaining > 1 {
		return true
	}
	for nid := d.whead[target]; nid >= 0; nid = d.wnodes[nid].next {
		if wid := d.wnodes[nid].id; wid != id && d.eqs[wid].remaining > 1 {
			return true
		}
	}
	return false
}

// drainRipple releases queued equations until the ripple is empty or the
// decode completes. Releasing performs the whole deferred XOR at once;
// equations whose last unknown is an unwanted check symbol are parked
// instead (see the package comment — this is the zero-loss zero-XOR
// path).
func (d *Decoder) drainRipple() {
	for len(d.relq) > 0 && !d.done {
		id := d.relq[len(d.relq)-1]
		d.relq = d.relq[:len(d.relq)-1]
		e := &d.eqs[id]
		if e.remaining != 1 {
			continue // raced to 0: became redundant while queued
		}
		target, cols := -1, d.columns(id)
		for _, nb := range cols {
			if d.values[nb] == nil {
				target = nb
				break
			}
		}
		if target < 0 {
			// Bookkeeping says one unknown but none found — defensive:
			// retire rather than corrupt.
			e.remaining = 0
			if e.data != nil {
				d.arena.Free(e.data)
				e.data = nil
			}
			continue
		}
		if target >= d.c.K && !d.needed(id, target) {
			d.parked[target-d.c.K] = id + 1
			continue
		}
		val := d.payload(e)
		d.xors += d.fold(val, cols)
		e.remaining = 0
		d.released++
		d.resolve(target, d.keep(target, val))
	}
}

// keep moves a released source value into its slot of out.
func (d *Decoder) keep(v int, buf []byte) []byte {
	if v >= d.c.K {
		return buf
	}
	slot := d.out.Slot(v)
	copy(slot, buf)
	d.arena.Free(buf)
	return slot
}

// endgame hands the residual system to the shared inactivation solver: the
// unresolved columns over the live equations, static and received. A
// resolved column left it together with the equations it retired, so the
// deficit is the whole system's. Payloads are read only at full rank: a
// received row folds its resolved neighbours into its own buffer, a static
// row into an arena buffer; the solution's source columns go to out.
func (d *Decoder) endgame() {
	if d.colOf == nil {
		d.colOf = make([]int32, d.c.Draw.L)
	}
	d.syms = d.syms[:0]
	for v, val := range d.values {
		if d.colOf[v] = -1; val == nil {
			d.colOf[v] = int32(len(d.syms))
			d.syms = append(d.syms, int32(v))
		}
	}
	d.rows = d.rows[:0]
	edges := 0
	for id, e := range d.eqs {
		if e.remaining > 0 {
			d.rows = append(d.rows, int32(id))
			edges += int(e.remaining)
		}
	}
	d.solver.Reset(edges)
	for r, id := range d.rows {
		for _, v := range d.columns(id) {
			if c := d.colOf[v]; c >= 0 {
				d.solver.Add(int32(r), c)
			}
		}
	}
	if d.deficit = d.solver.Analyze(len(d.rows), len(d.syms)); d.deficit > 0 {
		return
	}
	rhs := make([][]byte, len(d.rows))
	for r, id := range d.rows {
		rhs[r] = d.payload(&d.eqs[id])
		d.fold(rhs[r], d.columns(id))
	}
	for i, val := range d.solver.Solve(rhs) {
		if v := int(d.syms[i]); v < d.c.K {
			copy(d.out.Slot(v), val)
		}
	}
	d.finish()
}

// packetRow returns packet i's row over the last endgame system's columns.
func (d *Decoder) packetRow(i int) []int32 {
	if i < d.c.Systematic {
		d.nbuf = append(d.nbuf[:0], i)
	} else {
		d.nbuf = d.c.Draw.NeighborsInto(uint32(i), d.nbuf)
	}
	d.prow = d.prow[:0]
	for _, v := range d.nbuf {
		if c := d.colOf[v]; c >= 0 {
			d.prow = append(d.prow, c)
		}
	}
	return d.prow
}

// columns returns equation id's columns in nbuf: a static equation's
// sources and its own check symbol, a received one's drawn neighbours.
func (d *Decoder) columns(id int32) []int {
	if id >= int32(d.s) {
		d.nbuf = d.c.Draw.NeighborsInto(d.eqs[id].index, d.nbuf)
		return d.nbuf
	}
	d.nbuf = d.nbuf[:0]
	for _, nb := range d.c.CheckSrc[id] {
		d.nbuf = append(d.nbuf, int(nb))
	}
	return append(d.nbuf, d.c.K+int(id))
}

// fold XORs into buf the resolved values among cols and returns how many.
func (d *Decoder) fold(buf []byte, cols []int) (xors int) {
	for _, v := range cols {
		if val := d.values[v]; val != nil {
			gf.XORSlice(buf, val)
			xors++
		}
	}
	return xors
}

// payload takes equation e's buffer: its raw payload, or for a static
// equation the implicit zero packet.
func (d *Decoder) payload(e *eq) []byte {
	buf := e.data
	if e.data = nil; buf == nil {
		buf = d.arena.Alloc()
		clear(buf)
	}
	return buf
}

// finish drops all decoding state; out survives for Source.
func (d *Decoder) finish() {
	d.done = true
	d.srcLeft = 0
	d.values = nil
	d.eqs = nil
	d.relq = nil
	d.whead = nil
	d.wnodes = nil
	d.parked = nil
	d.arena = Arena{}
	d.solver = bitmat.Solver{}
	d.colOf, d.syms, d.rows, d.prow = nil, nil, nil, nil
}

// addWaiter registers equation id on column v: one arena append, one
// head swap.
func (d *Decoder) addWaiter(v int, id int32) {
	d.wnodes = append(d.wnodes, wnode{id: id, next: d.whead[v]})
	d.whead[v] = int32(len(d.wnodes) - 1)
}

var (
	_ code.Decoder        = (*Decoder)(nil)
	_ code.ReleaseCounter = (*Decoder)(nil)
)

// Done implements code.Decoder.
func (d *Decoder) Done() bool { return d.done }

// Received implements code.Decoder: distinct accepted packets.
func (d *Decoder) Received() int { return len(d.seen) }

// Released implements code.ReleaseCounter: the number of coded-equation
// releases — each one a deferred-XOR event exposing a symbol. A receiver
// of the k systematic packets reports exactly 0.
func (d *Decoder) Released() int { return d.released }

// XORs returns the payload XORSlice count on the peeling path (the
// endgame's are not included).
// Zero loss ⇒ zero.
func (d *Decoder) XORs() int { return d.xors }

// Source implements code.Decoder.
func (d *Decoder) Source() ([]byte, error) {
	if !d.done {
		return nil, code.ErrNotReady
	}
	return d.out.Bytes(), nil
}
