// Package evtrace is the stack's flight recorder: an always-compiled,
// runtime-togglable event tracer that captures the life of every packet —
// scheduler slot scheduled and fired, carousel round emitted, transport
// batch flushed, channel fault decision, client intake, decoder symbol
// release, decode completion — as fixed-size binary records in per-shard
// overwriting ring buffers.
//
// The metrics registry (internal/metrics) answers *how many*; the flight
// recorder answers *when* and *in what order*, which is what the paper's
// temporal claims (time-to-decode vs. loss, §6.2-§6.4) and production
// latency triage both need. The design constraints mirror the metrics
// package's:
//
//   - Disabled cost is one predictable branch: every instrumentation site
//     guards on Shard.On() (a nil check plus one atomic bool load) before
//     computing anything, so the proven 0 allocs/packet send and receive
//     paths are untouched when tracing is off.
//   - An event that is also counted is one Counted: its Add counts and,
//     while the recorder is on, records, so the count a metrics scrape
//     reads and the events a trace holds come from one call site. Add
//     inlines; with no shard bound it is one atomic add and a nil check.
//   - Enabled cost is bounded and allocation-free: a clock read, one
//     atomic counter increment, and a 32-byte store into a preallocated
//     ring. No locks, no formatting, no growth. Rendering cost (merging,
//     JSON) is paid by the exporter, never the hot path.
//   - Timestamps come from a pluggable clock. Real servers stamp wall
//     (monotonic) nanoseconds; the deterministic harness stamps virtual
//     time, so a scenario's trace is a pure function of its seeds and two
//     runs produce bit-identical byte streams.
//
// Rings overwrite: a recorder holds the last ShardSize events per shard
// (flight-recorder semantics) and counts what it dropped. Size the rings
// to the scenario when completeness matters (the harness tests do).
package evtrace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Type discriminates event records.
type Type uint8

const (
	// EvNone is the zero type; decoders treat it as padding/invalid.
	EvNone Type = iota
	// EvSlotScheduled: the pacing scheduler (re)armed a session's next
	// emission deadline. A = deadline in ns on the scheduler's epoch clock.
	EvSlotScheduled
	// EvSlotFired: a due slot was popped and the rounds it owes are about
	// to emit. A = oldest unserved deadline ns, B = actual pop time ns (same
	// epoch clock); B-A is the pacing jitter the slot experienced.
	EvSlotFired
	// EvRound: a carousel round began emitting (service send path).
	// A = round number, B = packets emitted by this carousel so far.
	EvRound
	// EvTxBatch: the emitter flushed one per-layer batch to the transport.
	// A = packets in the batch, B = payload bytes in the batch.
	EvTxBatch
	// EvChDeliver: the channel delivered a packet to a receiver. A = wire
	// length.
	EvChDeliver
	// EvChLoss: the channel's loss process dropped a packet. A = wire
	// length.
	EvChLoss
	// EvChCorrupt: the channel delivered a packet with a flipped byte.
	// A = wire length.
	EvChCorrupt
	// EvChDup: the channel delivered an extra duplicate copy. A = wire
	// length.
	EvChDup
	// EvIntake: the client engine accepted a wire packet (tag verified,
	// header parsed, accounting done). A = serial, B = encoding index.
	EvIntake
	// EvIntakeDrop: the client engine dropped a packet for a failed
	// integrity tag before any byte reached accounting or the decoder.
	EvIntakeDrop
	// EvSymbol: the decoder released a new distinct symbol (the packet was
	// new to the decode, not a duplicate). A = encoding index, B = distinct
	// symbols held after the release.
	EvSymbol
	// EvDone: the session's decode completed at this receiver. A = total
	// packets accepted, B = k<<32 | distinct.
	EvDone
	// EvRelease: the packet that completed the decode made the decoder
	// resolve values from coded packets (only emitted for decoders that
	// count them — code.ReleaseCounter); it immediately precedes that
	// packet's EvDone. A = encoding index of the completing packet,
	// B = values resolved. A systematic codec on a lossless channel emits
	// none.
	EvRelease
)

// typeNames is indexed by Type for exporters and the analyzer.
var typeNames = [...]string{
	EvNone:          "none",
	EvSlotScheduled: "slot_scheduled",
	EvSlotFired:     "slot_fired",
	EvRound:         "round",
	EvTxBatch:       "tx_batch",
	EvChDeliver:     "ch_deliver",
	EvChLoss:        "ch_loss",
	EvChCorrupt:     "ch_corrupt",
	EvChDup:         "ch_dup",
	EvIntake:        "intake",
	EvIntakeDrop:    "intake_drop",
	EvSymbol:        "symbol",
	EvDone:          "done",
	EvRelease:       "release",
}

// String names the type for human-facing output.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Event is one fixed-size trace record: 32 bytes, no pointers, so a ring
// of them is one flat allocation and a dump is a straight memory copy.
//
// Field use is per Type (see the constants); the identity fields are:
// Sess the wire session id, Src the mirror/source id (or scheduler shard
// for slot events), Actor the receiver id on client-side events (0 on
// server-side ones), Layer the multicast layer.
type Event struct {
	TS    int64  // nanoseconds on the recorder's clock
	A, B  uint64 // type-specific arguments
	Sess  uint16
	Src   uint16
	Actor uint16
	Type  Type
	Layer uint8
}

// EventSize is the on-the-wire size of one encoded event.
const EventSize = 32

// Config sizes a Recorder.
type Config struct {
	// Shards is the number of independent rings (0 = 8). Components that
	// emit from distinct goroutines should use distinct shards; components
	// sharing a goroutine may share one (the deterministic harness routes
	// everything through shard 0 so stream order equals emission order).
	Shards int
	// ShardSize is the ring capacity per shard in events, rounded up to a
	// power of two (0 = 1<<14). When a ring wraps the oldest events are
	// overwritten and counted in Dropped.
	ShardSize int
	// Clock supplies event timestamps in nanoseconds (nil = monotonic wall
	// time since New). Deterministic testbeds install their virtual clock;
	// the clock must be safe for concurrent use if shards emit concurrently.
	Clock func() int64
}

// Shard is an emission handle onto one of the recorder's rings. A nil
// *Shard is a valid, permanently-off handle, so components can hold one
// unconditionally and pay a single branch when tracing is not wired.
type Shard struct {
	rec  *Recorder
	pos  atomic.Uint64 // next sequence number; slot = pos & mask
	ring []Event
	mask uint64
	_    [24]byte // keep adjacent shards off one cache line
}

// Recorder owns the shards and the toggle.
type Recorder struct {
	on     atomic.Bool
	clock  func() int64
	shards []*Shard
	epoch  time.Time
}

// New builds a recorder (disabled until Enable).
func New(cfg Config) *Recorder {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 1 << 14
	}
	size := 1
	for size < cfg.ShardSize {
		size <<= 1
	}
	r := &Recorder{epoch: time.Now()}
	r.clock = cfg.Clock
	if r.clock == nil {
		epoch := r.epoch
		r.clock = func() int64 { return int64(time.Since(epoch)) }
	}
	for i := 0; i < cfg.Shards; i++ {
		r.shards = append(r.shards, &Shard{
			rec:  r,
			ring: make([]Event, size),
			mask: uint64(size - 1),
		})
	}
	return r
}

// SetClock replaces the timestamp source. Call before Enable; swapping
// clocks mid-recording interleaves incomparable timestamps.
func (r *Recorder) SetClock(fn func() int64) {
	if fn != nil {
		r.clock = fn
	}
}

// Now reads the recorder's clock.
func (r *Recorder) Now() int64 { return r.clock() }

// Enable starts recording. Safe to toggle at runtime.
func (r *Recorder) Enable() { r.on.Store(true) }

// Disable stops recording; rings keep their contents for dumping.
func (r *Recorder) Disable() { r.on.Store(false) }

// Enabled reports the toggle state.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// Shard returns emission handle i (mod the shard count). Handles are
// stable for the life of the recorder.
func (r *Recorder) Shard(i int) *Shard {
	if r == nil {
		return nil
	}
	if i < 0 {
		i = -i
	}
	return r.shards[i%len(r.shards)]
}

// On reports whether an emission through this handle would record — the
// one predictable branch instrumentation sites pay when tracing is off.
// Use it to guard any work needed only to compute event arguments.
func (sh *Shard) On() bool { return sh != nil && sh.rec.on.Load() }

// Emit records one event. It never allocates and never blocks: one clock
// read, one atomic increment, one 32-byte store. When the ring wraps the
// oldest event is overwritten. Callers should guard with On() when the
// arguments themselves cost anything to compute.
func (sh *Shard) Emit(typ Type, sess, src, actor uint16, layer uint8, a, b uint64) {
	if sh == nil || !sh.rec.on.Load() {
		return
	}
	seq := sh.pos.Add(1) - 1
	sh.ring[seq&sh.mask] = Event{
		TS:    sh.rec.clock(),
		A:     a,
		B:     b,
		Sess:  sess,
		Src:   src,
		Actor: actor,
		Type:  typ,
		Layer: layer,
	}
}

// Counted is a counter whose every increment is one event of a single
// type: the count a Stats field or a metrics series reads, and the record a
// trace holds, come from one Add call, so a scrape and a trace of one run
// agree by construction. The zero value counts, and records nothing until
// Trace binds it to a shard. All methods are safe for concurrent use.
type Counted struct {
	// n is a plain word read and written only through sync/atomic's
	// functions: the atomic.Uint64 methods would push Add past the
	// inlining budget. id's atomic.Uint64 type 64-bit aligns Counted on
	// 32-bit platforms, and with it n at offset 0.
	n  uint64
	sh atomic.Pointer[Shard]
	id atomic.Uint64 // Type | sess<<8 | src<<24 | actor<<40
}

// Trace binds the shard Add records through (nil records nothing) and the
// identity it stamps: event type, session, source and actor. It may be
// called while Add runs on other goroutines.
func (c *Counted) Trace(sh *Shard, typ Type, sess, src, actor uint16) {
	c.id.Store(uint64(typ) | uint64(sess)<<8 | uint64(src)<<24 | uint64(actor)<<40)
	c.sh.Store(sh)
}

// Add counts n and, while the recorder is on, records one event with the
// given layer and arguments. It never allocates and never blocks.
func (c *Counted) Add(n uint64, layer uint8, a, b uint64) {
	atomic.AddUint64(&c.n, n)
	if c.sh.Load() != nil {
		c.record(layer, a, b)
	}
}

// record is Add's recording half, out of line so that Add inlines.
func (c *Counted) record(layer uint8, a, b uint64) {
	if sh := c.sh.Load(); sh.On() {
		id := c.id.Load()
		sh.Emit(Type(id), uint16(id>>8), uint16(id>>24), uint16(id>>40), layer, a, b)
	}
}

// Undo takes one count back and records nothing: for a count whose event
// stands but whose effect the caller rolled back.
func (c *Counted) Undo() { atomic.AddUint64(&c.n, ^uint64(0)) }

// Load returns the count.
func (c *Counted) Load() uint64 { return atomic.LoadUint64(&c.n) }

// Dropped returns the number of events lost to ring overwrites so far.
// Completeness-sensitive consumers (the harness acceptance tests) assert
// it is zero.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, sh := range r.shards {
		if pos := sh.pos.Load(); pos > uint64(len(sh.ring)) {
			n += pos - uint64(len(sh.ring))
		}
	}
	return n
}

// Snapshot copies the retained events out of every ring and merges them
// into one stream ordered by (TS, shard, ring sequence). Within a shard
// the order is exactly emission order, so single-goroutine testbeds that
// route all events through one shard get a causally ordered stream; across
// shards, simultaneous timestamps order by shard index — deterministic,
// though not causal.
//
// Snapshot is safe while recording continues, with flight-recorder
// caveats: an event being overwritten concurrently with the copy may be
// torn. Quiesce (Disable, or stop traffic) before dumps that must be
// exact; the deterministic tests do.
func (r *Recorder) Snapshot() []Event {
	type tagged struct {
		ev    Event
		shard int
		seq   uint64
	}
	var all []tagged
	for si, sh := range r.shards {
		pos := sh.pos.Load()
		n := pos
		if n > uint64(len(sh.ring)) {
			n = uint64(len(sh.ring))
		}
		first := pos - n // sequence number of the oldest retained event
		for seq := first; seq < pos; seq++ {
			ev := sh.ring[seq&sh.mask]
			if ev.Type == EvNone {
				continue // padding or a torn slot mid-write
			}
			all = append(all, tagged{ev: ev, shard: si, seq: seq})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.TS != all[j].ev.TS {
			return all[i].ev.TS < all[j].ev.TS
		}
		if all[i].shard != all[j].shard {
			return all[i].shard < all[j].shard
		}
		return all[i].seq < all[j].seq
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].ev
	}
	return out
}
