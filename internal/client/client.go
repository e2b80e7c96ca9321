// Package client implements the receiver engine of the prototype (§7.2,
// §7.3): it consumes fountain packets from a transport, runs the layered
// congestion controller on the SP/burst markers, adjusts its subscription
// level, and feeds the decoder until the file is reconstructable, keeping
// the reception-efficiency accounting (η, ηc, ηd) the paper reports in
// Figure 8.
//
// The engine is source-aware (§8): packets may arrive from any number of
// independent mirrors of the same session, tagged with a caller-chosen
// source id. Serial-gap loss measurement runs per (source, layer) — each
// mirror stamps its own serial space — and each source drives its own
// layered controller; the subscription level actually requested from the
// transport is the minimum across sources (the worst-loss source rule: a
// level is only sustainable if every joined path sustains it). Duplicate
// vs. distinct contributions are tracked per source, so the receiver can
// report how much each mirror actually added to the decode.
package client

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/layered"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// Leveler adjusts the transport subscription level (transport.BusClient
// and transport.UDPClient satisfy it modulo error handling).
type Leveler func(level int)

// SourceStats is the per-source accounting snapshot of one mirror feed.
type SourceStats struct {
	Received  int     // packets accepted from this source
	Lost      int     // packets counted lost from serial gaps on this source
	Corrupt   int     // packets dropped for a failed integrity tag on this source
	Distinct  int     // packets that were new to the decoder
	Duplicate int     // packets the decoder had already seen (from any source)
	Loss      float64 // Lost / (Received + Lost)
	Level     int     // this source's controller level (worst-source input)
}

// source is the per-mirror receive state: serial/loss accounting and a
// layered congestion controller fed only by this mirror's packets. All
// per-layer state is indexed by layer group in flat slices sized at
// registration — the steady-state intake path performs no map operations
// and no allocations.
type source struct {
	lastSerial []uint32 // per layer; valid only where haveSerial
	haveSerial []bool
	missing    []missingWindow // per layer: serials counted lost, refundable on late arrival
	ctrl       *layered.Controller
	// Accounting counters are atomics: intake is single-goroutine, but a
	// metrics scrape (RegisterMetrics) reads them from another goroutine
	// while packets flow. Three are counted events, recorded by the same
	// call that counts them (see Engine.SetTrace); lost is signed — late
	// arrivals refund provisional losses.
	received  evtrace.Counted // EvIntake
	lost      atomic.Int64
	corrupt   evtrace.Counted // EvIntakeDrop
	distinct  evtrace.Counted // EvSymbol
	duplicate atomic.Int64
}

// Engine is one receiving client, harvesting from one or more sources.
type Engine struct {
	rcv      *core.Receiver
	setLevel Leveler
	info     proto.SessionInfo

	sources map[int]*source
	ids     []int // registration order (stats iteration)
	level   int   // effective subscription level: min over source controllers

	// Flight recorder: the shard and actor id every source's counted events
	// are bound to, and through which the completion events are emitted.
	tr      *evtrace.Shard
	trActor uint16
}

// maxTrackedMissing bounds the per-(source, layer) window of refundable
// lost serials: reordering windows are short, so only the most recent
// serials of a gap need tracking; anything older stays counted as lost.
// Must be a power of two (the ring masks instead of dividing).
const maxTrackedMissing = 512

// missingWindow remembers the most recent serials counted as lost, so a
// late (reordered) arrival refunds its provisional loss exactly once. It
// is a fixed ring plus a live-slot bitset: inserting past capacity
// overwrites (= evicts) the oldest remembered serial, refunding clears the
// slot's live bit. Behaviour is identical to a FIFO set — the serials of
// distinct gaps never repeat while tracked (the stream position only moves
// forward, so a serial can enter the window at most once before it would
// be evicted) — but there are no map operations and no allocations:
// the window embeds by value in the per-source state.
type missingWindow struct {
	ring [maxTrackedMissing]uint32
	live [maxTrackedMissing / 64]uint64
	n    int // total inserts
}

func (w *missingWindow) add(s uint32) {
	slot := w.n & (maxTrackedMissing - 1)
	w.ring[slot] = s // overwrite = evict oldest (no-op if already refunded)
	w.live[slot>>6] |= 1 << (slot & 63)
	w.n++
}

// refund reports whether s is a tracked loss, forgetting it if so. The
// scan touches only live slots (word-at-a-time over the bitset); refunds
// happen once per reordered late arrival, so this is off the hot path.
func (w *missingWindow) refund(s uint32) bool {
	for wi, word := range w.live {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			slot := wi<<6 | b
			if w.ring[slot] == s {
				w.live[wi] &^= 1 << b
				return true
			}
		}
	}
	return false
}

// New builds a single-source client engine from a session descriptor.
// setLevel is invoked whenever the effective subscription level changes
// (nil for single-layer sessions).
func New(info proto.SessionInfo, startLevel int, setLevel Leveler) (*Engine, error) {
	return NewMultiSource(info, 1, startLevel, setLevel)
}

// NewMultiSource builds a client engine harvesting the session from
// `sources` independent mirrors (ids 0..sources-1 are pre-registered;
// further ids may still appear via HandlePacketFrom). Every source's
// controller starts at startLevel; setLevel is invoked with the effective
// (minimum-across-sources) level whenever it changes.
func NewMultiSource(info proto.SessionInfo, sources, startLevel int, setLevel Leveler) (*Engine, error) {
	rcv, err := core.NewReceiver(info)
	if err != nil {
		return nil, err
	}
	if sources < 1 {
		sources = 1
	}
	e := &Engine{
		rcv:      rcv,
		setLevel: setLevel,
		info:     info,
		sources:  make(map[int]*source, sources),
	}
	for id := 0; id < sources; id++ {
		e.addSource(id, startLevel)
	}
	e.level = e.minLevel()
	return e, nil
}

// addSource registers a source whose controller starts at level. The
// per-layer serial and refund state is sized eagerly: a few KiB per
// (source, layer) buys a steady-state intake with no allocation at all.
func (e *Engine) addSource(id, level int) *source {
	ctrl := layered.New(int(e.info.Layers) - 1)
	ctrl.SetLevel(level)
	layers := int(e.info.Layers) // 1..16: core.NewReceiver checked
	s := &source{
		lastSerial: make([]uint32, layers),
		haveSerial: make([]bool, layers),
		missing:    make([]missingWindow, layers),
		ctrl:       ctrl,
	}
	e.sources[id] = s
	e.ids = append(e.ids, id)
	e.trace(id, s)
	return s
}

// trace binds a source's counted events to the engine's shard and actor.
func (e *Engine) trace(id int, s *source) {
	sess, src := e.info.Session, uint16(id)
	s.received.Trace(e.tr, evtrace.EvIntake, sess, src, e.trActor)
	s.corrupt.Trace(e.tr, evtrace.EvIntakeDrop, sess, src, e.trActor)
	s.distinct.Trace(e.tr, evtrace.EvSymbol, sess, src, e.trActor)
}

// minLevel computes the worst-source subscription level.
func (e *Engine) minLevel() int {
	min := int(e.info.Layers) - 1
	for _, s := range e.sources {
		if l := s.ctrl.Level(); l < min {
			min = l
		}
	}
	return min
}

// SetTrace attaches a flight-recorder shard and the actor (receiver) id
// stamped on this engine's events: packet intake, integrity drops, symbol
// releases, and the decode-completion transition — for every source,
// including those registered later. The engine is single-goroutine, so the
// shard may be shared with the delivering transport for causally ordered
// streams.
func (e *Engine) SetTrace(sh *evtrace.Shard, actor uint16) {
	e.tr, e.trActor = sh, actor
	for id, s := range e.sources {
		e.trace(id, s)
	}
}

// Controller exposes source 0's congestion controller (for tests/tuning of
// single-source clients). A level forced through it is reflected by
// Level() immediately; the transport setLevel callback still fires only on
// the next packet that shifts the cross-source minimum.
func (e *Engine) Controller() *layered.Controller { return e.sources[0].ctrl }

// HandlePacket ingests one wire packet from source 0 (the single-pipe
// client shape). It returns done=true once the file is decodable.
func (e *Engine) HandlePacket(pkt []byte) (done bool, err error) {
	return e.HandlePacketFrom(0, pkt)
}

// HandlePacketFrom ingests one wire packet received from the given source.
// Unknown source ids are registered on first use (their controller starts
// at the current effective level). The integrity trailer is verified
// before anything else: a corrupted packet is dropped before any byte
// reaches serial accounting or the decoder, counted per source
// (SourceStats.Corrupt), and returns no error — on a hostile channel
// corruption is an expected condition, like loss, not a client failure.
// Malformed or foreign packets return an error and are not counted. It
// returns done=true once the file is decodable.
func (e *Engine) HandlePacketFrom(src int, pkt []byte) (done bool, err error) {
	body, err := proto.VerifyPacket(pkt)
	if err == proto.ErrBadTag {
		s := e.sources[src]
		if s == nil {
			s = e.addSource(src, e.level)
		}
		s.corrupt.Add(1, 0, uint64(len(pkt)), 0)
		return e.rcv.Done(), nil
	}
	if err != nil {
		return e.rcv.Done(), err
	}
	h, payload, err := proto.ParseHeader(body)
	if err != nil {
		return e.rcv.Done(), err
	}
	if h.Session != e.info.Session {
		return e.rcv.Done(), fmt.Errorf("client: foreign session %#x", h.Session)
	}
	// Reject malformed packets before any accounting: these are the exact
	// conditions the decoder would error on, checked up front so a corrupt
	// datagram cannot leave half-updated serial/loss state behind.
	if h.Index >= e.info.N {
		return e.rcv.Done(), fmt.Errorf("client: packet index %d out of range [0,%d)", h.Index, e.info.N)
	}
	if len(payload) != int(e.info.PacketLen) {
		return e.rcv.Done(), fmt.Errorf("client: payload %d bytes, want %d", len(payload), e.info.PacketLen)
	}
	s := e.sources[src]
	if s == nil {
		s = e.addSource(src, e.level)
	}
	if int(h.Group) >= len(s.missing) {
		return e.rcv.Done(), fmt.Errorf("client: layer group %d out of range [0,%d)", h.Group, len(s.missing))
	}
	// Whole-download loss measurement from serial gaps, independently per
	// source: each mirror stamps its own dense serial space, so mixing them
	// would fabricate astronomical gaps. Serial arithmetic is modular: a
	// long-lived carousel wraps the uint32 serial, so the gap is the
	// unsigned difference, with deltas in the upper half-range treated as
	// reordered/old packets rather than as astronomical gaps. The serials
	// of a gap are remembered (up to a bounded window), so a late arrival
	// refunds its provisional loss exactly once — duplicates and genuinely
	// foreign old serials refund nothing.
	if s.haveSerial[h.Group] {
		switch delta := h.Serial - s.lastSerial[h.Group]; {
		case delta == 0:
			// Duplicate serial: nothing to account.
		case delta < 1<<31:
			s.lost.Add(int64(delta) - 1)
			if delta > 1 {
				w := &s.missing[h.Group]
				// Oldest-first so the window's FIFO eviction keeps the
				// newest serials; a huge gap only records its tail.
				lo := s.lastSerial[h.Group] + 1
				if delta-1 > maxTrackedMissing {
					lo = h.Serial - maxTrackedMissing
				}
				for ser := lo; ser != h.Serial; ser++ {
					w.add(ser)
				}
			}
			s.lastSerial[h.Group] = h.Serial
		default:
			// Late arrival from before lastSerial: refund its loss if it
			// is one we counted.
			if s.missing[h.Group].refund(h.Serial) {
				s.lost.Add(-1)
			}
		}
	} else {
		s.haveSerial[h.Group] = true
		s.lastSerial[h.Group] = h.Serial
	}
	s.received.Add(1, h.Group, uint64(h.Serial), uint64(h.Index))
	// Congestion control: only meaningful with multiple layers. The packet
	// feeds its own source's controller; the level requested from the
	// transport is the minimum across all sources — the highest rate every
	// joined path can sustain.
	if e.info.Layers > 1 {
		before := s.ctrl.Level()
		after := s.ctrl.OnPacket(h.Group, h.Serial, h.Flags&proto.FlagSP != 0, h.Flags&proto.FlagBurst != 0)
		if after != before {
			if eff := e.minLevel(); eff != e.level {
				e.level = eff
				if e.setLevel != nil {
					e.setLevel(eff)
				}
			}
		}
	}
	_, d0, _ := e.rcv.Stats()
	wasDone := e.rcv.Done()
	done, err = e.rcv.Handle(int(h.Index), payload)
	if err != nil {
		// Unreachable for well-formed input (index and length were
		// validated above — the decoder's only error conditions); undo the
		// reception count so Received == Distinct + Duplicate still holds
		// if a codec ever grows new failure modes.
		s.received.Undo()
		return done, err
	}
	if _, d1, _ := e.rcv.Stats(); d1 > d0 {
		s.distinct.Add(1, h.Group, uint64(h.Index), uint64(d1))
	} else {
		s.duplicate.Add(1)
	}
	if done && !wasDone && e.tr.On() {
		// This packet completed the decode. A decoder that counts the values
		// it resolved from coded packets resolves them all in the solve this
		// packet triggered; a systematic codec on a lossless channel resolves
		// none and emits no EvRelease — the property the zero-XOR
		// differential tests assert through the trace.
		if rel := e.rcv.Released(); rel > 0 {
			e.tr.Emit(evtrace.EvRelease, e.info.Session, uint16(src), e.trActor, h.Group,
				uint64(h.Index), uint64(rel))
		}
		total, distinct, k := e.rcv.Stats()
		e.tr.Emit(evtrace.EvDone, e.info.Session, uint16(src), e.trActor, 0,
			uint64(total), uint64(k)<<32|uint64(uint32(distinct)))
	}
	return done, nil
}

// HandleBatchFrom ingests a batch of wire packets received from one source
// (the shape transport.MultiClient.RecvBatchFrom delivers). Processing
// stops as soon as the file becomes decodable — trailing packets of the
// final batch are not accounted, matching the per-packet loop a caller
// would otherwise write. Stray datagrams (malformed, foreign session) are
// skipped, the remaining packets still processed; the first such error is
// returned for observability.
func (e *Engine) HandleBatchFrom(src int, pkts [][]byte) (done bool, err error) {
	for _, pkt := range pkts {
		d, herr := e.HandlePacketFrom(src, pkt)
		if herr != nil && err == nil {
			err = herr
		}
		if d {
			return true, err
		}
	}
	return e.rcv.Done(), err
}

// Done reports whether the file is decodable.
func (e *Engine) Done() bool { return e.rcv.Done() }

// File reassembles and verifies the download.
func (e *Engine) File() ([]byte, error) { return e.rcv.File() }

// Level returns the current effective subscription level (the minimum
// across source controllers), recomputed so externally forced controller
// levels (Controller().SetLevel) are observable without waiting for the
// next packet.
func (e *Engine) Level() int { return e.minLevel() }

// Sources returns the registered source ids, ascending.
func (e *Engine) Sources() []int {
	ids := append([]int(nil), e.ids...)
	sort.Ints(ids)
	return ids
}

// SourceStats returns the accounting snapshot of one source (zero value
// for unknown ids).
func (e *Engine) SourceStats(id int) SourceStats {
	s := e.sources[id]
	if s == nil {
		return SourceStats{}
	}
	st := SourceStats{
		Received:  int(s.received.Load()),
		Lost:      int(s.lost.Load()),
		Corrupt:   int(s.corrupt.Load()),
		Distinct:  int(s.distinct.Load()),
		Duplicate: int(s.duplicate.Load()),
		Level:     s.ctrl.Level(),
	}
	if total := st.Received + st.Lost; total > 0 {
		st.Loss = float64(st.Lost) / float64(total)
	}
	return st
}

// WorstSource returns the id and measured loss rate of the source with the
// highest observed loss (the one gating the subscription level). With no
// traffic it returns the first registered source and 0.
func (e *Engine) WorstSource() (id int, loss float64) {
	id = e.ids[0]
	for _, sid := range e.Sources() {
		if l := e.SourceStats(sid).Loss; l > loss {
			id, loss = sid, l
		}
	}
	return id, loss
}

// Corrupt returns the total number of packets dropped for failed
// integrity tags, aggregated across all sources.
func (e *Engine) Corrupt() int {
	var n uint64
	for _, s := range e.sources {
		n += s.corrupt.Load()
	}
	return int(n)
}

// MeasuredLoss returns the packet loss rate observed over the download,
// aggregated across all sources.
func (e *Engine) MeasuredLoss() float64 {
	var received, lost int64
	for _, s := range e.sources {
		received += int64(s.received.Load())
		lost += s.lost.Load()
	}
	total := received + lost
	if total == 0 {
		return 0
	}
	return float64(lost) / float64(total)
}

// RegisterMetrics exposes the engine's per-source accounting on a scrape
// registry, one labeled series set per source registered at call time
// (sources appearing later via HandlePacketFrom are not retroactively
// added — register after all mirrors are known). The scrape reads the
// same atomics the intake path updates, so it is safe while packets flow;
// everything else on the Engine remains single-goroutine.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	for _, id := range e.Sources() {
		s := e.sources[id]
		src := strconv.Itoa(id)
		r.CounterFunc(metrics.Label("fountain_client_received_total", "source", src),
			"packets accepted from the source", s.received.Load)
		r.CounterFunc(metrics.Label("fountain_client_lost_total", "source", src),
			"packets counted lost from serial gaps (net of reorder refunds)",
			func() uint64 { return uint64(s.lost.Load()) })
		r.CounterFunc(metrics.Label("fountain_client_corrupt_total", "source", src),
			"packets dropped for a failed integrity tag", s.corrupt.Load)
		r.CounterFunc(metrics.Label("fountain_client_distinct_total", "source", src),
			"packets that were new to the decoder", s.distinct.Load)
		r.CounterFunc(metrics.Label("fountain_client_duplicate_total", "source", src),
			"packets the decoder had already seen",
			func() uint64 { return uint64(s.duplicate.Load()) })
	}
}

// Stats returns the decoder-side (total received, distinct, k) counters —
// the exact integers behind Efficiency.
func (e *Engine) Stats() (total, distinct, k int) { return e.rcv.Stats() }

// Efficiency returns (η, ηc, ηd) as defined in §7.3, over the aggregate
// reception from all sources.
func (e *Engine) Efficiency() (eta, etaC, etaD float64) { return e.rcv.Efficiency() }
