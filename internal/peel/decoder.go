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
// Elimination endgame. When peeling stalls with a small residue, a
// reduced GF(2) system is solved over the unresolved sources plus only
// those check symbols some live received equation references — a check
// symbol appearing solely in its own static equation is a free variable,
// so that row and column drop together. The rank-deficit gate (needMore)
// bounds attempts. This is the engine's one endgame policy; both codes
// use it.
package peel

import (
	"fmt"

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

	values   [][]byte // per column; nil while unresolved
	srcLeft  int      // unresolved source symbols (done when 0)
	resolved int      // resolved columns (sources + checks)
	eqs      []eq     // [0,s) static, then received
	// Waiter lists (column -> ids of buffered equations covering it) as
	// linked nodes in one growable arena — registration never allocates
	// per symbol.
	whead    []int32 // per column: index into wnodes, -1 = empty
	wnodes   []wnode
	relq     []int32
	active   int                 // equations with remaining > 0
	parked   []int32             // per check j: 1+id of an equation parked on K+j, 0 if none
	seen     map[uint32]struct{} // distinct accepted wire indices
	needMore int                 // rank-deficit gate for the elimination endgame

	released int // coded-equation releases: the deferred-XOR events
	xors     int // payload XORSlice calls on the peeling path

	nbuf  []int
	done  bool
	arena Arena
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
		active:  s,
		srcLeft: c.K,
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
	resBefore := d.resolved
	contributed := false
	if i < d.c.Systematic {
		// Systematic packet: the payload IS column i. No XOR, no
		// equation bookkeeping beyond the resolve ripple.
		if d.values[i] == nil {
			buf := d.arena.Alloc()
			copy(buf, data)
			contributed = true
			d.resolve(i, buf)
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
			// Redundant at arrival: adds no equation, must not pay down a
			// pending elimination deficit.
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
			contributed = true
			d.resolve(last, buf)
			d.drainRipple()
		default:
			id := int32(len(d.eqs))
			buf := d.arena.Alloc()
			copy(buf, data)
			d.eqs = append(d.eqs, eq{index: index, data: buf, remaining: int32(unresolved)})
			d.active++
			contributed = true
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
	// Pay down the elimination rank-deficit gate by actual progress: a
	// contributing equation adds prospective rank, and every symbol
	// resolved since the packet arrived removes a column from the residual
	// system. Counting contributions alone (enough only where packets
	// never resolve symbols directly) would lock the endgame out for the
	// whole systematic prefix of a lossy stream.
	if d.needMore > 0 {
		progress := d.resolved - resBefore
		if contributed {
			progress++
		}
		if d.needMore -= progress; d.needMore < 0 {
			d.needMore = 0
		}
	}
	if !d.done {
		// Attempt the endgame only when peeling has actually stalled: an
		// Add that resolved nothing. While the ripple is alive, building
		// the residual system would be pure waste — near the active ≈
		// srcLeft boundary it is both large and rank-deficient, and each
		// failed build costs a full rhs reduction.
		d.tryEliminate(d.resolved == resBefore)
	}
	return d.done, nil
}

// resolve records column s's value and decrements every live equation
// covering it: the static equations via the code's reverse adjacency, the
// buffered received equations via the waiter lists.
func (d *Decoder) resolve(s int, val []byte) {
	d.values[s] = val
	d.resolved++
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
				switch e.remaining {
				case 1:
					d.relq = append(d.relq, j)
				case 0:
					d.active--
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
				d.active--
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
		static := id < int32(d.s)
		target := -1
		if static {
			j := int(id)
			if d.values[d.c.K+j] == nil {
				target = d.c.K + j
			} else {
				for _, nb := range d.c.CheckSrc[j] {
					if d.values[nb] == nil {
						target = int(nb)
						break
					}
				}
			}
		} else {
			d.nbuf = d.c.Draw.NeighborsInto(e.index, d.nbuf)
			for _, nb := range d.nbuf {
				if d.values[nb] == nil {
					target = nb
					break
				}
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
			d.active--
			continue
		}
		if target >= d.c.K && !d.needed(id, target) {
			d.parked[target-d.c.K] = id + 1
			continue
		}
		var val []byte
		if e.data != nil {
			val = e.data
			e.data = nil
		} else {
			val = d.arena.Alloc()
			clear(val)
		}
		if static {
			j := int(id)
			for _, nb := range d.c.CheckSrc[j] {
				if v := d.values[nb]; v != nil {
					gf.XORSlice(val, v)
					d.xors++
				}
			}
			if v := d.values[d.c.K+j]; v != nil {
				gf.XORSlice(val, v)
				d.xors++
			}
		} else {
			for _, nb := range d.nbuf {
				if v := d.values[nb]; v != nil {
					gf.XORSlice(val, v)
					d.xors++
				}
			}
		}
		e.remaining = 0
		d.active--
		d.released++
		d.resolve(target, val)
	}
}

// elimMax bounds the residual system the endgame will solve: elimination
// is cubic, so peeling must shrink the residue below ~K/8 first. Where
// static rows clean a truncated distribution's residue (raptor), the
// endgame system is typically a few dozen columns.
func (d *Decoder) elimMax() int {
	if m := d.c.K / 8; m > 768 {
		return m
	}
	return 768
}

// tryEliminate solves the reduced residual system when peeling has
// stalled: unresolved sources plus the check symbols some live received
// equation references, over the live received equations plus the static
// equations whose own check is either resolved or referenced. A check
// symbol appearing only in its own static equation is a free variable —
// that row and column leave the system together, which keeps the matrix
// near the true information deficit instead of O(s) wide.
func (d *Decoder) tryEliminate(stalled bool) {
	if d.done || d.needMore > 0 || d.srcLeft == 0 {
		return
	}
	// A live ripple usually makes the build pure waste — except at the
	// very end, where the residual system is tiny, solving it is cheaper
	// than the dribble of tail packets peeling would wait for.
	if !stalled && d.srcLeft > 768 {
		return
	}
	if d.srcLeft > d.elimMax() {
		return
	}
	if d.active < d.srcLeft {
		// Not enough live equations to cover the unknowns. This is an O(1)
		// check recomputed on every Add, so it must NOT set needMore: on a
		// lossy systematic stream the deficit shrinks by two per packet
		// (one equation in, one unknown out) and a counted-down gate would
		// overshoot, locking elimination out past the prefix.
		return
	}
	k, s := d.c.K, d.s
	colOf := make(map[int]int, 2*d.srcLeft)
	syms := make([]int, 0, 2*d.srcLeft)
	addCol := func(v int) {
		if _, ok := colOf[v]; !ok {
			colOf[v] = len(syms)
			syms = append(syms, v)
		}
	}
	for v := 0; v < k; v++ {
		if d.values[v] == nil {
			addCol(v)
		}
	}
	recvRows := make([]int32, 0, d.active)
	for id := int32(s); id < int32(len(d.eqs)); id++ {
		if d.eqs[id].remaining <= 0 {
			continue
		}
		d.nbuf = d.c.Draw.NeighborsInto(d.eqs[id].index, d.nbuf)
		for _, nb := range d.nbuf {
			if d.values[nb] == nil {
				addCol(nb)
			}
		}
		recvRows = append(recvRows, id)
	}
	staticRows := make([]int32, 0, s)
	for j := 0; j < s; j++ {
		if d.eqs[j].remaining <= 0 {
			continue
		}
		own := k + j
		if d.values[own] != nil {
			staticRows = append(staticRows, int32(j))
			continue
		}
		if _, ok := colOf[own]; ok {
			staticRows = append(staticRows, int32(j))
		}
	}
	cols := len(syms)
	if cols > 2*d.elimMax() {
		d.needMore = (cols - d.elimMax() + 3) / 4
		return
	}
	rows := len(recvRows) + len(staticRows)
	if rows < cols {
		d.needMore = deficitWait(cols - rows)
		return
	}
	// Received rows first (they carry the payload information), static
	// rows fill the surplus, capped as in the Tornado endgame.
	if max := cols + 64; rows > max {
		rows = max
	}
	m := bitmat.New(rows, cols)
	rhs := make([][]byte, rows)
	store := make([]byte, rows*d.c.PacketLen)
	r := 0
	for _, id := range recvRows {
		if r == rows {
			break
		}
		buf := store[r*d.c.PacketLen : (r+1)*d.c.PacketLen]
		copy(buf, d.eqs[id].data)
		d.nbuf = d.c.Draw.NeighborsInto(d.eqs[id].index, d.nbuf)
		for _, nb := range d.nbuf {
			if v := d.values[nb]; v != nil {
				gf.XORSlice(buf, v)
			} else {
				m.Set(r, colOf[nb], true)
			}
		}
		rhs[r] = buf
		r++
	}
	for _, jd := range staticRows {
		if r == rows {
			break
		}
		j := int(jd)
		buf := store[r*d.c.PacketLen : (r+1)*d.c.PacketLen] // implicit zero payload
		for _, nb := range d.c.CheckSrc[j] {
			if v := d.values[nb]; v != nil {
				gf.XORSlice(buf, v)
			} else {
				m.Set(r, colOf[int(nb)], true)
			}
		}
		own := k + j
		if v := d.values[own]; v != nil {
			gf.XORSlice(buf, v)
		} else {
			m.Set(r, colOf[own], true)
		}
		rhs[r] = buf
		r++
	}
	sol, rank, ok := bitmat.TrySolve(m, rhs)
	if !ok {
		d.needMore = deficitWait(cols - rank)
		return
	}
	for ci, v := range syms {
		if d.values[v] == nil {
			d.values[v] = sol[ci]
			if v < k {
				d.srcLeft--
			}
		}
	}
	d.resolved = d.c.Draw.L
	d.finish()
}

// deficitWait converts a rank deficit into the progress units to wait
// before the next elimination attempt. The floor adds hysteresis: a
// deficit of 1-2 would otherwise trigger a full (and likely still
// deficient) rebuild on nearly every subsequent packet.
func deficitWait(deficit int) int {
	if deficit < 8 {
		return 8
	}
	return deficit
}

// finish drops the equation state; values (some arena-backed) survive
// for Source.
func (d *Decoder) finish() {
	d.done = true
	d.srcLeft = 0
	d.eqs = nil
	d.relq = nil
	d.whead = nil
	d.wnodes = nil
	d.parked = nil
	d.arena = Arena{}
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
// elimination endgame's internal row combinations are not included).
// Zero loss ⇒ zero.
func (d *Decoder) XORs() int { return d.xors }

// Source implements code.Decoder.
func (d *Decoder) Source() ([][]byte, error) {
	if !d.done {
		return nil, code.ErrNotReady
	}
	for v, val := range d.values[:d.c.K] {
		if val == nil {
			return nil, fmt.Errorf("peel: symbol %d unresolved after completion", v)
		}
	}
	return d.values[:d.c.K], nil
}
