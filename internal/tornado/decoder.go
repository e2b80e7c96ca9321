package tornado

import (
	"repro/internal/bitmat"
	"repro/internal/code"
	"repro/internal/gf"
	"repro/internal/peel"
)

// decoder is the incremental Tornado decoder. It runs the two-rule
// propagation after every packet and falls back to Gaussian elimination on
// the dense tail when propagation stalls, so Done() flips exactly at the
// packet that makes the source recoverable — the property the paper uses
// to let a receiver leave the multicast session as early as possible.
//
// Memory discipline: every packet-sized buffer comes from the shared slab
// arena (peel.Arena), mirroring Encode's one-allocation store.
// Each check carries at most ONE buffer — the residual rhs[ci] = value of
// the check (once known) XOR the sum of its known neighbors — instead of
// the classic value+accumulator pair. The residual is exactly the payload
// of the check's last unknown neighbor once cnt reaches 1, so rule (a)
// recoveries transfer buffer ownership instead of allocating, and the
// elimination fallback solves in place on the live residuals (after a
// matrix-only rank precheck) so its solutions are transfers too. Steady
// state decoding therefore allocates nothing per packet and nothing per
// elimination retry.
type decoder struct {
	c *Codec

	data      [][]byte // per value id; nil while unknown (arena-owned)
	gotPacket []bool   // per packet index, for duplicate suppression
	received  int
	srcLeft   int
	knownVals int // total known values, for cheap residual gating

	// Per-check state. Invariant: rhs[ci] != nil iff valKnown[ci] &&
	// !dead[ci] && cnt[ci] > 0. A dead check's equation has been consumed
	// (its last unknown recovered, its residual transferred to a value, or
	// its value confirmed redundant) and is skipped everywhere.
	rhs      [][]byte // residual: check value ^ XOR of known neighbors
	valKnown []bool   // check value known (packet received or cascade value set)
	cnt      []int32  // number of unknown neighbors
	dead     []bool   // equation consumed; rhs recycled

	queue []int32

	// Elimination bookkeeping: after a failed attempt in a scope, the
	// retry is deferred by a number of received packets proportional to
	// the information shortfall, which bounds wasted eliminations while
	// reacting quickly once a core becomes solvable.
	retryAt     []int // per scope, in units of received packets
	residualCap int

	arena peel.Arena

	// trySolve scratch, reused across attempts so elimination retries
	// allocate nothing.
	unknownsBuf []int32
	eqsBuf      []int32
	colBuf      []int32 // scope-relative column map; kept all -1 at rest
	matA, matB  bitmat.Matrix
	solveRHS    [][]byte
}

func newDecoder(c *Codec) *decoder {
	// The cap bounds the cubic elimination cost while still covering the
	// stalled-core sizes observed when large graphs run at 90-95% of
	// capacity (up to ~40% of an 8k layer). A larger dense tail (the B
	// variant) shifts the cap up, which is part of why B decodes more
	// slowly in exchange for lower overhead.
	cap := 2*c.params.denseTarget() + 512
	if cap < c.denseInputs+256 {
		cap = c.denseInputs + 256
	}
	d := &decoder{
		c:           c,
		data:        make([][]byte, c.numValues),
		gotPacket:   make([]bool, c.n),
		srcLeft:     c.k,
		rhs:         make([][]byte, len(c.checkNeighbors)),
		valKnown:    make([]bool, len(c.checkNeighbors)),
		cnt:         make([]int32, len(c.checkNeighbors)),
		dead:        make([]bool, len(c.checkNeighbors)),
		retryAt:     make([]int, len(c.scopes)),
		residualCap: cap,
		arena:       peel.Arena{PacketLen: c.packetLen},
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
			buf := d.arena.Alloc()
			copy(buf, data)
			d.setValue(int32(i), buf)
		}
	} else {
		ci := d.c.denseStart + (i - d.c.numValues)
		d.checkValArrived(ci, data)
	}
	d.drain()
	d.sweepScopes()
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

// sweepScopes repeatedly attempts per-level eliminations, deepest scope
// first, until no scope makes progress. Solving a deep level unblocks
// propagation in the level above, so the sweep loops while anything moves.
func (d *decoder) sweepScopes() {
	for progress := true; progress && !d.Done(); {
		progress = false
		for si := len(d.c.scopes) - 1; si >= 0 && !d.Done(); si-- {
			if d.trySolve(si) {
				progress = true
			}
		}
	}
}

// Done implements code.Decoder.
func (d *decoder) Done() bool { return d.srcLeft == 0 }

// Received implements code.Decoder.
func (d *decoder) Received() int { return d.received }

// Source implements code.Decoder.
func (d *decoder) Source() ([][]byte, error) {
	if !d.Done() {
		return nil, code.ErrNotReady
	}
	return d.data[:d.c.k], nil
}

// setValue marks value v known with the arena-owned payload buf (ownership
// transfers to the decoder) and folds it into every check that uses it.
func (d *decoder) setValue(v int32, buf []byte) {
	if d.data[v] != nil {
		d.arena.Free(buf)
		return
	}
	d.data[v] = buf
	d.knownVals++
	if int(v) < d.c.k {
		d.srcLeft--
	}
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

// trySolve attempts Gaussian elimination on one level's stalled subsystem
// (scope si): the unknown values of that level's input layer against the
// checks computed from it. This is what bootstraps bottom-up decoding (the
// dense tail is the deepest scope) and what dissolves the small residual
// cores propagation leaves when the graphs run near capacity — without it
// a stalled deep level starves every level above (§5 decoding).
//
// The attempt is skipped while the unknown count exceeds residualCap
// (bounding elimination cost) and, after a rank-deficient attempt, until
// enough new information has arrived to plausibly close the rank gap.
// Solvability is established first on a matrix-only scratch copy (no
// payload work); only a certain success eliminates in place on the live
// residuals, whose buffers then BECOME the recovered values. All scratch
// is reused across attempts. It reports whether it recovered anything.
func (d *decoder) trySolve(si int) bool {
	if d.received < d.retryAt[si] {
		return false
	}
	c := d.c
	sc := c.scopes[si]
	unknowns := d.unknownsBuf[:0]
	for v := sc.valOff; v < sc.valOff+sc.valLen; v++ {
		if d.data[v] == nil {
			unknowns = append(unknowns, int32(v))
		}
	}
	d.unknownsBuf = unknowns
	if len(unknowns) == 0 {
		d.retryAt[si] = d.received + 1
		return false
	}
	if len(unknowns) > d.residualCap {
		d.retryAt[si] = d.received + (len(unknowns)-d.residualCap+3)/4
		return false
	}
	eqs := d.eqsBuf[:0]
	for ci := sc.checkOff; ci < sc.checkOff+sc.checkLen; ci++ {
		if d.valKnown[ci] && !d.dead[ci] && d.cnt[ci] > 0 {
			eqs = append(eqs, int32(ci))
		}
	}
	d.eqsBuf = eqs
	if len(eqs) < len(unknowns) {
		d.retryAt[si] = d.received + (len(unknowns)-len(eqs)+3)/4
		return false
	}
	// A modest equation surplus suffices for full rank with overwhelming
	// probability; keeping the system small bounds elimination cost.
	maxEqs := len(unknowns) + 64
	if len(eqs) > maxEqs {
		eqs = eqs[:maxEqs]
	}
	// Scope-relative column map (kept all -1 at rest, restored below).
	if len(d.colBuf) < sc.valLen {
		d.colBuf = make([]int32, sc.valLen)
		for i := range d.colBuf {
			d.colBuf[i] = -1
		}
	}
	col := d.colBuf
	for j, v := range unknowns {
		col[int(v)-sc.valOff] = int32(j)
	}
	d.matA.Reset(len(eqs), len(unknowns))
	for r, ci := range eqs {
		for _, v := range c.checkNeighbors[ci] {
			rel := int(v) - sc.valOff
			if rel >= 0 && rel < sc.valLen && col[rel] >= 0 {
				d.matA.Set(r, int(col[rel]), true)
			}
		}
	}
	for _, v := range unknowns {
		col[int(v)-sc.valOff] = -1
	}
	// Matrix-only rank precheck on a scratch copy: a failed attempt costs
	// no payload XORs and leaves the live residuals untouched.
	d.matB.CopyFrom(&d.matA)
	if rank := d.matB.RankDestructive(); rank < len(unknowns) {
		gap := (len(unknowns) - rank + 3) / 4
		if gap < 1 {
			gap = 1
		}
		d.retryAt[si] = d.received + gap
		return false
	}
	// Full rank is certain: eliminate in place on the live residuals. The
	// used equations are consumed wholesale (every scope value they touch
	// is about to become known), so retire them and transfer their buffers.
	rhs := d.solveRHS[:0]
	for _, ci := range eqs {
		rhs = append(rhs, d.rhs[ci])
		d.rhs[ci] = nil
		d.dead[ci] = true
	}
	d.solveRHS = rhs
	sol, _, ok := bitmat.TrySolve(&d.matA, rhs)
	if !ok {
		panic("tornado: elimination failed after full-rank precheck")
	}
	for _, b := range rhs[len(unknowns):] {
		d.arena.Free(b)
	}
	for i, v := range unknowns {
		d.setValue(v, sol[i])
	}
	d.drain()
	return true
}
