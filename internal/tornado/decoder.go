package tornado

import (
	"repro/internal/bitmat"
	"repro/internal/code"
	"repro/internal/gf"
	"repro/internal/peel"
)

// decoder is the incremental Tornado decoder. It runs the two-rule
// propagation after every packet and, behind one exact gate, hands the
// whole stalled system to the shared inactivation solver (bitmat.Solver,
// the one the LT/raptor decoder solves with), so Done() flips exactly at the
// packet that makes the source recoverable — the property the paper uses
// to let a receiver leave the multicast session as early as possible.
//
// The gate: the first attempt at k distinct packets, since the cascade's
// numValues-k rows plus fewer than k received ones cannot have full column
// rank. An attempt short by δ keeps its analysis, and each later packet's
// row is checked against it (bitmat.Solver.Extend): the deficit falls by
// one exactly when a packet raises the rank, and at zero the next attempt
// solves.
//
// Memory discipline: a source value lives in its slot of out; every other
// packet-sized buffer comes from the shared slab arena (peel.Arena),
// mirroring Encode's one-allocation store.
// Each check carries at most ONE buffer — the residual rhs[ci] = value of
// the check (once known) XOR the sum of its known neighbors — instead of
// the classic value+accumulator pair. The residual is exactly the payload
// of the check's last unknown neighbor once cnt reaches 1, so rule (a)
// recoveries transfer buffer ownership instead of allocating, and the
// endgame solves in place on the live residuals (only once the symbolic
// phase has proven full rank) so its solutions are transfers too (a source
// value's is copied to its slot). Steady state decoding therefore
// allocates no packet buffer beyond out.
type decoder struct {
	c *Codec

	data      [][]byte       // per value id; nil while unknown (a source's slot of out, else arena-owned)
	out       code.SourceBuf // the source values, in place: what Source returns
	gotPacket []bool         // per packet index, for duplicate suppression
	received  int
	srcLeft   int
	deficit   int // rank deficit of the whole system, once known

	// Per-check state. Invariant: rhs[ci] != nil iff valKnown[ci] &&
	// !dead[ci] && cnt[ci] > 0. A dead check's equation has been consumed
	// (its last unknown recovered, its residual transferred to a value, or
	// its value confirmed redundant) and is skipped everywhere.
	rhs      [][]byte // residual: check value ^ XOR of known neighbors
	valKnown []bool   // check value known (packet received or cascade value set)
	cnt      []int32  // number of unknown neighbors
	dead     []bool   // equation consumed; rhs recycled

	queue []int32

	arena peel.Arena

	// Endgame scratch, reused across attempts.
	solver   bitmat.Solver
	colOf    []int32 // per value id: its column in the last endgame system, -1 if known then
	unknowns []int32 // endgame column -> value id
	rows     []int32 // solver row -> check id
	prow     []int32 // scratch: one row over the last endgame system's columns
}

func newDecoder(c *Codec) *decoder {
	d := &decoder{
		c:         c,
		data:      make([][]byte, c.numValues),
		gotPacket: make([]bool, c.n),
		srcLeft:   c.k,
		rhs:       make([][]byte, len(c.checkNeighbors)),
		valKnown:  make([]bool, len(c.checkNeighbors)),
		cnt:       make([]int32, len(c.checkNeighbors)),
		dead:      make([]bool, len(c.checkNeighbors)),
		out:       code.SourceBuf{K: c.k, PacketLen: c.packetLen},
		arena:     peel.Arena{PacketLen: c.packetLen},
	}
	for ci, ns := range c.checkNeighbors {
		d.cnt[ci] = int32(len(ns))
	}
	return d
}

// Add implements code.Decoder.
func (d *decoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, d.c.n, d.c.packetLen); err != nil {
		return d.Done(), err
	}
	if d.Done() {
		return true, nil
	}
	if d.gotPacket[i] {
		return false, nil
	}
	d.gotPacket[i] = true
	d.received++
	if i < d.c.numValues {
		if d.data[i] == nil {
			var buf []byte
			if i < d.c.k {
				buf = d.out.Slot(i)
			} else {
				buf = d.arena.Alloc()
			}
			copy(buf, data)
			d.setValue(int32(i), buf)
		}
	} else {
		ci := d.c.denseStart + (i - d.c.numValues)
		d.checkValArrived(ci, data)
	}
	d.drain()
	if !d.Done() && d.received >= d.c.k {
		if d.deficit > 0 {
			d.deficit = d.solver.Extend(d.packetRow(i))
		}
		if d.deficit == 0 {
			d.endgame()
		}
	}
	return d.Done(), nil
}

// checkValArrived records that check ci's value is val (copied, not
// retained): the residual starts as the value and has every already-known
// neighbor folded in. A check whose neighbors are all known carries no
// information and dies immediately.
func (d *decoder) checkValArrived(ci int, val []byte) {
	if d.dead[ci] || d.valKnown[ci] {
		return
	}
	d.valKnown[ci] = true
	if d.cnt[ci] == 0 {
		d.dead[ci] = true
		return
	}
	buf := d.arena.Alloc()
	copy(buf, val)
	for _, v := range d.c.checkNeighbors[ci] {
		if p := d.data[v]; p != nil {
			gf.XORSlice(buf, p)
		}
	}
	d.rhs[ci] = buf
	if d.cnt[ci] == 1 {
		d.queue = append(d.queue, int32(ci))
	}
}

// Done implements code.Decoder.
func (d *decoder) Done() bool { return d.srcLeft == 0 }

// Received implements code.Decoder.
func (d *decoder) Received() int { return d.received }

// Source implements code.Decoder.
func (d *decoder) Source() ([]byte, error) {
	if !d.Done() {
		return nil, code.ErrNotReady
	}
	return d.out.Bytes(), nil
}

// setValue marks value v known with payload buf (a source's slot, else an
// arena buffer the decoder takes over) and folds it into its checks.
func (d *decoder) setValue(v int32, buf []byte) {
	if d.data[v] != nil {
		d.arena.Free(buf)
		return
	}
	if int(v) < d.c.k {
		d.srcLeft--
	}
	d.data[v] = buf
	// The value is itself the output of a cascade check: that check's value
	// is now known.
	if int(v) >= d.c.k {
		d.checkValArrived(int(v)-d.c.k, buf)
	}
	for _, ci := range d.c.valueChecks[v] {
		if d.dead[ci] {
			continue
		}
		d.cnt[ci]--
		if d.valKnown[ci] {
			gf.XORSlice(d.rhs[ci], buf)
			if d.cnt[ci] == 0 {
				// Residual is now zero: the equation is spent.
				d.arena.Free(d.rhs[ci])
				d.rhs[ci] = nil
				d.dead[ci] = true
			} else if d.cnt[ci] == 1 {
				d.queue = append(d.queue, ci)
			}
		} else if d.cnt[ci] == 0 {
			if own := d.c.checkOwn[ci]; own >= 0 && d.data[own] == nil {
				d.queue = append(d.queue, ci)
			} else {
				d.dead[ci] = true
			}
		}
	}
}

// drain runs the two propagation rules to a fixed point.
func (d *decoder) drain() {
	for len(d.queue) > 0 && !d.Done() {
		ci := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		if d.dead[ci] {
			continue
		}
		switch {
		case d.valKnown[ci] && d.cnt[ci] == 1:
			// Rule (a): the residual IS the single unknown neighbor's
			// payload — hand the buffer over instead of copying.
			var unknown int32 = -1
			for _, v := range d.c.checkNeighbors[ci] {
				if d.data[v] == nil {
					unknown = v
					break
				}
			}
			if unknown < 0 {
				continue // stale queue entry
			}
			buf := d.rhs[ci]
			d.rhs[ci] = nil
			d.dead[ci] = true
			if int(unknown) < d.c.k { // a source value lives in its slot
				slot := d.out.Slot(int(unknown))
				copy(slot, buf)
				d.arena.Free(buf)
				buf = slot
			}
			d.setValue(unknown, buf)
		case !d.valKnown[ci] && d.cnt[ci] == 0:
			// Rule (b): all inputs known; the check's value is their XOR,
			// which is also the cascade value it computes.
			own := d.c.checkOwn[ci]
			d.valKnown[ci] = true
			d.dead[ci] = true
			if own >= 0 && d.data[own] == nil {
				buf := d.arena.Alloc()
				ns := d.c.checkNeighbors[ci]
				if len(ns) == 0 {
					clear(buf)
				} else {
					copy(buf, d.data[ns[0]])
					for _, v := range ns[1:] {
						gf.XORSlice(buf, d.data[v])
					}
				}
				d.setValue(own, buf)
			}
		}
	}
}

// endgame solves the joint residual over all levels with the shared
// inactivation solver. Its unknowns are every unknown value; its rows are
// the live known-value checks (their residuals already fold the known
// neighbours) and the cascade checks whose own value is still unknown —
// static rows 0 = own ⊕ neighbours, whose payload is the XOR of the known
// neighbours. Consumed equations and known values have left together, so
// the residual's rank deficit is the whole system's. At full rank the
// known-value rows hand over their residual buffers, the cascade rows get
// arena buffers; the solution's source values go to out.
func (d *decoder) endgame() {
	c := d.c
	if d.colOf == nil {
		d.colOf = make([]int32, c.numValues)
	}
	d.unknowns = d.unknowns[:0]
	for v, p := range d.data {
		if d.colOf[v] = -1; p == nil {
			d.colOf[v] = int32(len(d.unknowns))
			d.unknowns = append(d.unknowns, int32(v))
		}
	}
	d.rows = d.rows[:0]
	edges := 0
	for ci := range c.checkNeighbors {
		// Not consumed, and not a dense check whose value never arrived.
		if !d.dead[ci] && (d.valKnown[ci] || c.checkOwn[ci] >= 0) {
			d.rows = append(d.rows, int32(ci))
			edges += int(d.cnt[ci]) + 1
		}
	}
	d.solver.Reset(len(d.rows), edges)
	for _, ci := range d.rows {
		d.prow = d.prow[:0]
		for _, v := range c.checkNeighbors[ci] {
			if d.data[v] == nil {
				d.prow = append(d.prow, d.colOf[v])
			}
		}
		if !d.valKnown[ci] {
			d.prow = append(d.prow, d.colOf[c.checkOwn[ci]])
		}
		d.solver.AddRow(d.prow)
	}
	if d.deficit = d.solver.Analyze(len(d.unknowns)); d.deficit > 0 {
		return
	}
	// Done from here on, so the residual buffers are handed over as they are.
	rhs := make([][]byte, len(d.rows))
	for r, ci := range d.rows {
		if rhs[r] = d.rhs[ci]; rhs[r] == nil { // a cascade check: 0 ⊕ its known neighbours
			rhs[r] = d.arena.Alloc()
			clear(rhs[r])
			for _, v := range c.checkNeighbors[ci] {
				if p := d.data[v]; p != nil {
					gf.XORSlice(rhs[r], p)
				}
			}
		}
	}
	for i, r := range d.solver.Solve(rhs) {
		if v := int(d.unknowns[i]); v < c.k {
			copy(d.out.Slot(v), rhs[r])
		}
	}
	d.srcLeft = 0
}

// packetRow returns packet i's row over the last endgame system's columns:
// a value is its own column, a dense-tail check its neighbours.
func (d *decoder) packetRow(i int) []int32 {
	vals := []int32{int32(i)}
	if i >= d.c.numValues {
		vals = d.c.checkNeighbors[d.c.denseStart+i-d.c.numValues]
	}
	d.prow = d.prow[:0]
	for _, v := range vals {
		if c := d.colOf[v]; c >= 0 {
			d.prow = append(d.prow, c)
		}
	}
	return d.prow
}
