package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evtrace"
)

// The pacing scheduler: every paced session is an emission event on a
// min-heap keyed by its next deadline on a monotonic clock, and a fixed
// set of shard workers (GOMAXPROCS by default) pops due events, emits
// every carousel round the session is owed (a token bucket, see emitDue)
// through its emitter's own buffers and per-layer batches, and pushes the
// event back at its next unserved deadline. Registering 1 or 10,000
// sessions costs the same goroutine count; per-session cost is one heap
// entry.
//
// Emission content and order per (session, layer) are exactly the
// carousel's — the scheduler only decides *when* a session's next round
// runs, never *what* it contains.

// schedEvent is one paced session's place in a shard's deadline heap.
type schedEvent struct {
	e        *entry
	next     time.Duration // deadline, relative to the scheduler epoch
	interval time.Duration // carousel round spacing (PaceInterval)
	burst    int           // most rounds one pop emits (burstRounds)
	shard    *shard
	removed  bool // guarded by shard.mu; a removed event is never re-pushed
}

// shard is one worker: a deadline heap, a kick channel for heap changes,
// and an emitter that owns its packet buffers. Sessions are spread
// round-robin across shards.
type shard struct {
	svc   *Service
	epoch time.Time      // the deadline clock's zero, fixed at construction
	tr    *evtrace.Shard // flight-recorder handle (nil-safe, one branch when off)
	em    emitter        // used by the worker alone; its counts are atomic
	mu    sync.Mutex
	heap  []*schedEvent // min-heap by next
	kick  chan struct{}
	done  chan struct{}
}

// scheduler owns the shards and the epoch of the monotonic deadline clock.
type scheduler struct {
	svc    *Service
	epoch  time.Time
	shards []*shard
	nextSh int // round-robin assignment cursor; guarded by Service.mu
}

func newScheduler(svc *Service, ctx context.Context, shards int) *scheduler {
	sc := &scheduler{svc: svc, epoch: time.Now()}
	for i := 0; i < shards; i++ {
		sh := &shard{
			svc:   svc,
			epoch: sc.epoch,
			tr:    svc.cfg.Trace.Shard(i),
			em:    newEmitter(svc, svc.cfg.Trace.Shard(i)),
			kick:  make(chan struct{}, 1),
			done:  make(chan struct{}),
		}
		sc.shards = append(sc.shards, sh)
		go sh.run(ctx)
	}
	return sc
}

// add registers a paced entry: its first round fires immediately. The
// caller holds Service.mu (so add never races Close's closed check).
func (sc *scheduler) add(e *entry, interval time.Duration) {
	sh := sc.shards[sc.nextSh%len(sc.shards)]
	sc.nextSh++
	ev := &schedEvent{e: e, next: time.Since(sc.epoch), interval: interval, burst: burstRounds(e.sess), shard: sh}
	e.ev = ev
	if sh.tr.On() {
		sh.tr.Emit(evtrace.EvSlotScheduled, e.sess.Config().Session, sc.svc.cfg.TraceID, 0, 0,
			uint64(ev.next), 0)
	}
	sh.mu.Lock()
	sh.push(ev)
	sh.mu.Unlock()
	sh.wake()
}

// remove takes a paced entry out of its shard's schedule and guarantees,
// once it returns, that no further round of the entry will be emitted:
// the removed mark stops future pops and re-pushes, and acquiring the
// entry's emit lock waits out any round already in flight.
func (sc *scheduler) remove(e *entry) {
	ev := e.ev
	if ev == nil {
		return // manual session: never scheduled
	}
	ev.shard.mu.Lock()
	ev.removed = true
	ev.shard.mu.Unlock()
	e.emitMu.Lock()
	e.stopped = true
	e.emitMu.Unlock()
}

// wake nudges the shard's worker after a heap change; a pending nudge is
// enough, so the send never blocks.
func (sh *shard) wake() {
	select {
	case sh.kick <- struct{}{}:
	default:
	}
}

// run is the shard worker: sleep until the earliest deadline (or a heap
// change), emit that session's owed rounds, reschedule it. Steady-state
// emission — heap ops, packet building, batched sends — allocates
// nothing.
func (sh *shard) run(ctx context.Context) {
	defer close(sh.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		sh.mu.Lock()
		for len(sh.heap) > 0 && sh.heap[0].removed {
			sh.pop()
		}
		if len(sh.heap) == 0 {
			sh.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-sh.kick:
			}
			continue
		}
		ev := sh.heap[0]
		now := time.Since(sh.epoch)
		if d := ev.next - now; d > 0 {
			sh.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
			select {
			case <-ctx.Done():
				return
			case <-sh.kick:
			case <-timer.C:
			}
			continue
		}
		sh.pop()
		sh.mu.Unlock()

		sh.emitDue(ev, &sh.em)
		if ctx.Err() != nil {
			return
		}

		sh.mu.Lock()
		if !ev.removed {
			sh.push(ev)
		}
		rearmed := !ev.removed
		sh.mu.Unlock()
		if rearmed && sh.tr.On() {
			sh.tr.Emit(evtrace.EvSlotScheduled, ev.e.sess.Config().Session, sh.svc.cfg.TraceID, 0, 0,
				uint64(ev.next), 0)
		}
	}
}

// emitDue serves the event's token bucket (see owed and maxBurst): every
// round that fell due since the last pop, up to the session's burst bound —
// each with the back-to-back burst round of §7.1.1 when the next round is
// one — goes out as one flush, and debt beyond the bound is dropped and
// counted. It all happens under the entry's emit lock, flush included, so
// once Remove has taken that lock no packet of the session is still
// batched: batching is per event, never across sessions.
func (sh *shard) emitDue(ev *schedEvent, em *emitter) {
	e := ev.e
	e.emitMu.Lock()
	defer e.emitMu.Unlock()
	now := time.Since(sh.epoch)
	if sh.tr.On() {
		// Pacing jitter: the deadline the slot was armed for vs. when the
		// worker actually popped it.
		sh.tr.Emit(evtrace.EvSlotFired, e.sess.Config().Session, sh.svc.cfg.TraceID, 0, 0,
			uint64(ev.next), uint64(now))
	}
	if e.stopped {
		return
	}
	rounds, next, dropped := owed(ev.next, now, ev.interval, ev.burst)
	ev.next = next
	if dropped {
		sh.svc.debtDropped.Inc()
	}
	if rounds > 1 {
		sh.svc.catchupRounds.Add(uint64(rounds - 1))
	}
	for ; rounds > 0; rounds-- {
		em.round(e.car)
		if e.car.BurstNext() {
			em.round(e.car)
		}
	}
	em.flush()
}

// push inserts ev into the deadline heap; callers hold sh.mu.
func (sh *shard) push(ev *schedEvent) {
	sh.heap = append(sh.heap, ev)
	i := len(sh.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if sh.heap[parent].next <= sh.heap[i].next {
			break
		}
		sh.heap[parent], sh.heap[i] = sh.heap[i], sh.heap[parent]
		i = parent
	}
}

// pop removes and returns the earliest event; callers hold sh.mu.
func (sh *shard) pop() *schedEvent {
	h := sh.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	sh.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && sh.heap[l].next < sh.heap[small].next {
			small = l
		}
		if r < last && sh.heap[r].next < sh.heap[small].next {
			small = r
		}
		if small == i {
			break
		}
		sh.heap[small], sh.heap[i] = sh.heap[i], sh.heap[small]
		i = small
	}
	return top
}

// emitter is the zero-alloc round emission sink: it implements
// core.RoundEmitter by building each packet in one of its own buffers,
// grouping consecutive same-layer packets into one batch, and handing each
// batch to the transport. Slot i of bufs holds packet i of the batch; the
// buffers are reused as soon as their batch is sent (transports and Bus
// handlers must not retain packet bytes — see transport.Sender).
type emitter struct {
	svc   *Service
	bufs  [][]byte // maxBatch+1 slots: the batch plus the packet that flushes it
	batch [][]byte // packets of the in-progress batch
	layer int
	tr    *evtrace.Shard // flight-recorder handle (nil-safe)

	// What this emitter handed the transport, read by Service.Stats and
	// the registry: rounds counts EvRound events, batches counts packets in
	// EvTxBatch events, bytes sums the events' B. bound is the session both
	// events are bound to (-1 before the first round).
	rounds  evtrace.Counted
	batches evtrace.Counted
	bytes   atomic.Uint64
	bound   int
}

func newEmitter(svc *Service, tr *evtrace.Shard) emitter {
	return emitter{svc: svc, bufs: make([][]byte, maxBatch+1), tr: tr, bound: -1}
}

// PacketBuf implements core.RoundEmitter: the next packet is built in the
// slot after the batch's last.
func (em *emitter) PacketBuf(size int) []byte {
	b := em.bufs[len(em.batch)]
	if cap(b) < size {
		b = make([]byte, 0, size)
		em.bufs[len(em.batch)] = b
	}
	return b[:0]
}

// maxBatch caps the packets (and so the buffers) one batch may accumulate
// before flushing: large sessions emit thousands of packets per layer per
// round, and streaming them in bounded batches keeps peak send-path memory
// at maxBatch+1 wire buffers per emitter instead of a whole layer's worth.
// 128 spans two sendmmsg chunks.
const maxBatch = 128

// Emit implements core.RoundEmitter: consecutive packets of one layer
// accumulate into a batch; a layer change or a full batch flushes. The
// carousel emits layer by layer, so a round becomes one batch per layer
// per maxBatch packets, in emission order.
func (em *emitter) Emit(layer int, pkt []byte) error {
	if n := len(em.batch); n > 0 && (layer != em.layer || n >= maxBatch) {
		em.flush()
		// pkt was built in slot n and now opens the next batch.
		em.bufs[0], em.bufs[n] = em.bufs[n], em.bufs[0]
	}
	em.layer = layer
	em.batch = append(em.batch, pkt)
	return nil
}

// flush counts the accumulated batch and hands it to the transport; its
// buffers are free for the next batch once SendBatch returns.
//
// Transport errors are counted and swallowed — a fountain retransmits
// everything eventually, so a lost send is indistinguishable from network
// loss and must not kill the session's emission. Transports isolate errors
// internally (a failing subscriber forfeits only its own writes — see
// transport.UDPServer.SendBatch) and report only that *something* failed,
// so the whole batch counts as handed to the transport and the error as
// one failure event.
func (em *emitter) flush() {
	if n := len(em.batch); n > 0 {
		var nb uint64
		for _, p := range em.batch {
			nb += uint64(len(p))
		}
		// Before SendBatch, so channel events of the batch's deliveries
		// follow their tx event in single-shard stream order.
		em.batches.Add(uint64(n), uint8(em.layer), uint64(n), nb)
		em.bytes.Add(nb)
		if err := em.svc.tx.SendBatch(em.layer, em.batch); err != nil {
			em.svc.sendErrors.Add(1)
		}
	}
	em.batch = em.batch[:0]
}

// round runs one full carousel round into the emitter without flushing
// its tail, so a pop's consecutive rounds share batches. The carousel can
// only fail on emit errors, and Emit never fails, so the round always
// completes; sends themselves are counted (and their errors swallowed) by
// flush. A shard's emitter serves many sessions, so a round of a session
// other than the bound one first rebinds the round and batch events to it
// (a batch never spans two sessions). Rebinding only on a change keeps a
// one-packet round as cheap as the bare counter it replaced.
// The EvRound event fires at the start, before NextRoundTo advances the
// carousel's round counter: a trace consumer counting EvRound events per
// source therefore sees exactly Carousel.Rounds() at any downstream event
// of the same stream — including a receiver's completion mid-round, which
// is when the harness snapshots its rounds-to-decode. On the paced path
// several EvRound events may precede the EvTxBatch that carries their
// packets; only emitRound (the manual path) keeps round and batch 1:1.
func (em *emitter) round(car *core.Carousel) {
	if sess := car.Session().Config().Session; int(sess) != em.bound {
		em.bound = int(sess)
		em.rounds.Trace(em.tr, evtrace.EvRound, sess, em.svc.cfg.TraceID, 0)
		em.batches.Trace(em.tr, evtrace.EvTxBatch, sess, em.svc.cfg.TraceID, 0)
	}
	em.rounds.Add(1, 0, uint64(car.Rounds()), uint64(car.Sent()))
	_ = car.NextRoundTo(em)
}

// emitRound is one round, flushed: Service.EmitRound's unit, so the
// virtual-time harness sees every round's packets before the next begins.
func (em *emitter) emitRound(car *core.Carousel) {
	em.round(car)
	em.flush()
}
