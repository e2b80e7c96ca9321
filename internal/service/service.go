// Package service is the multi-session fountain server core: a registry of
// concurrent sessions keyed by the 12-byte-header session id, one shared
// pacing scheduler (a deadline min-heap per shard worker, GOMAXPROCS
// shards) driving every session's core.Carousel, one byte budget for the
// lazily encoded packets of all of them, and the control handler that
// answers hello and catalog probes.
//
// This is the shape the paper argues for in §1/§7 — a fountain server is
// stateless per receiver, so one process can carry many files for many
// heterogeneous receiver populations at once; all per-receiver state lives
// at the receivers. The service adds only per-session state: a carousel
// position, a rate, and one heap entry in the scheduler — no per-session
// goroutine, so 1 and 10,000 sessions cost the same goroutine count.
//
// The send path is zero-copy: rounds are built packet-by-packet into the
// emitting loop's own buffers, batched per layer, and handed to the
// unified transport.Sender batch interface — identical code whether the
// transport is the in-process Bus, the real UDP socket, or a test sink.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/transport"
)

// Config tunes a service instance.
type Config struct {
	// CacheBytes bounds the shared lazy-encoding packet cache
	// (0 = 64 MiB). Sessions whose codec encodes packet by packet keep only
	// their source packets resident plus at most this many repair bytes in
	// total, instead of full stretch-factor-n materialization each; repair
	// packets the budget has no room for are encoded at every emission.
	CacheBytes int64
	// BaseRate is the default base-layer pacing in packets/second for
	// sessions added without an explicit rate (0 = 512).
	BaseRate int
	// Shards is the number of scheduler worker goroutines sharing the
	// paced sessions (0 = GOMAXPROCS). The shard count bounds send-path
	// parallelism; it does not grow with the session count.
	Shards int
	// MaxSessions caps the registry (0 = unlimited): registrations beyond
	// the cap are refused with ErrSessionLimit. A fountain server's
	// per-session cost is small but not zero (a heap entry, cached packets),
	// so an operator can bound it.
	MaxSessions int
	// Trace attaches a flight recorder to the send path: scheduler slot
	// events, round starts and tx-batch flushes are recorded through it
	// (nil = no tracing, at the cost of one predictable branch per site).
	// Scheduler shard i emits through recorder shard i; the manual-emission
	// path (EmitRound) emits through shard 0.
	Trace *evtrace.Recorder
	// TraceID is the source id stamped on this service's trace events
	// (Event.Src) — harnesses tag each mirror with its index; a standalone
	// server leaves it 0.
	TraceID uint16
}

// ErrSessionLimit is returned by session registration when
// Config.MaxSessions is reached — admission control, not a fault.
var ErrSessionLimit = errors.New("service: session limit reached")

// ErrDraining is returned by session registration after Drain began: a
// draining service finishes what it carries but admits nothing new.
var ErrDraining = errors.New("service: draining")

// Stats is a snapshot of the service counters.
type Stats struct {
	Sessions    int    // registered sessions
	Shards      int    // scheduler worker goroutines
	PacketsSent uint64 // data packets handed to the transport
	BytesSent   uint64 // data bytes handed to the transport
	// SendErrors counts transport send failure events: at least one
	// errored write in a batch — transports isolate errors per subscriber,
	// so the rest of the fan-out was still attempted.
	SendErrors uint64
	// Scheduler accounting: total carousel rounds emitted; rounds emitted
	// beyond the first of their pop — the token bucket working as designed
	// (a session whose round interval is shorter than a timer wake is
	// served several owed rounds per wake), not a symptom; and pops that
	// found a session further behind than its burst bound (maxBurst) and
	// dropped the excess. DebtDropped alone is the overload signal: when
	// it rises, the configured rates exceed what the shards or the
	// transport can emit.
	RoundsEmitted uint64
	CatchupRounds uint64
	DebtDropped   uint64
	Draining      bool
	CacheUsed     int64 // bytes currently held by the shared packet cache
	CachePeak     int64 // high-water mark of the shared packet cache
	CacheLookups  uint64
	CacheHits     uint64
	CacheMisses   uint64
}

type entry struct {
	sess  *core.Session
	rate  int
	phase int
	car   *core.Carousel // the scheduler-driven carousel (nil for manual)
	ev    *schedEvent    // heap entry (nil for manual)

	// emitMu serializes this session's round emission against removal:
	// a worker holds it while emitting, Remove sets stopped under it.
	emitMu  sync.Mutex
	stopped bool
}

// Service runs any number of fountain sessions over one transport.
type Service struct {
	cfg    Config
	tx     transport.Sender
	cache  *core.BlockCache
	sched  *scheduler
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	sessions map[uint16]*entry
	closed   bool

	// manualMu guards the emitter shared by EmitRound callers (manual
	// sessions are typically driven from one virtual-clock pump, so this
	// lock is uncontended).
	manualMu sync.Mutex
	manualEm emitter

	sendErrors atomic.Uint64
	draining   atomic.Bool

	// Scheduler counters (see Stats); metrics.Counter so the registry can
	// expose them directly — one atomic add on the emit path each. Rounds,
	// packets and bytes are the emitters' own (see sent).
	catchupRounds metrics.Counter
	debtDropped   metrics.Counter

	reg *metrics.Registry
}

// New creates a service transmitting on tx, which receives every round as
// whole per-layer batches (SendBatch). Close releases the service.
func New(tx transport.Sender, cfg Config) *Service {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.BaseRate <= 0 {
		cfg.BaseRate = 512
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		tx:       tx,
		cache:    core.NewBlockCache(cfg.CacheBytes),
		ctx:      ctx,
		cancel:   cancel,
		sessions: make(map[uint16]*entry),
	}
	s.manualEm = newEmitter(s, cfg.Trace.Shard(0))
	s.sched = newScheduler(s, ctx, cfg.Shards)
	s.reg = metrics.NewRegistry()
	s.registerMetrics(s.reg)
	return s
}

// Metrics returns the service's scrape registry: every series below plus
// whatever the caller registers on top (transport counters, build info).
// Mount Registry.Handler on an HTTP mux for a Prometheus /metrics endpoint.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// registerMetrics wires the service's existing counters to a registry as
// func-backed series — nothing on the emit path changes, the scraper reads
// the same atomics (or takes the same short locks Stats does).
func (s *Service) registerMetrics(r *metrics.Registry) {
	r.CounterFunc("fountain_packets_sent_total", "data packets handed to the transport",
		func() uint64 { _, n, _ := s.sent(); return n })
	r.CounterFunc("fountain_bytes_sent_total", "data bytes handed to the transport",
		func() uint64 { _, _, n := s.sent(); return n })
	r.CounterFunc("fountain_send_errors_total",
		"transport send failure events (batches with at least one errored write)", s.sendErrors.Load)
	r.CounterFunc("fountain_sched_rounds_total", "carousel rounds emitted",
		func() uint64 { n, _, _ := s.sent(); return n })
	r.AddCounter("fountain_sched_catchup_rounds_total",
		"owed rounds emitted beyond the first of their pop (normal whenever a round interval is below timer granularity)", &s.catchupRounds)
	r.AddCounter("fountain_sched_debt_dropped_total",
		"pops that found a session behind by more than its burst bound and dropped the excess: the overload signal", &s.debtDropped)
	r.GaugeFunc("fountain_sessions", "registered sessions", func() float64 {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		return float64(n)
	})
	r.GaugeFunc("fountain_scheduler_shards", "scheduler worker goroutines",
		func() float64 { return float64(len(s.sched.shards)) })
	r.GaugeFunc("fountain_draining", "1 once Drain has begun", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	for i, sh := range s.sched.shards {
		sh := sh
		r.GaugeFunc(metrics.Label("fountain_sched_backlog", "shard", strconv.Itoa(i)),
			"paced sessions queued on the shard's deadline heap",
			func() float64 {
				sh.mu.Lock()
				n := len(sh.heap)
				sh.mu.Unlock()
				return float64(n)
			})
	}
	r.GaugeFunc("fountain_cache_used_bytes", "charged bytes resident in the packet cache",
		func() float64 { return float64(s.cache.Used()) })
	r.GaugeFunc("fountain_cache_peak_bytes", "high-water mark of charged cache bytes",
		func() float64 { return float64(s.cache.Peak()) })
	r.GaugeFunc("fountain_cache_cap_bytes", "configured cache byte budget",
		func() float64 { return float64(s.cache.Cap()) })
	r.CounterFunc("fountain_cache_lookups_total", "coded-packet touches of cached sessions (hits + misses)",
		func() uint64 { return s.cache.StatsSnapshot().Lookups })
	r.CounterFunc("fountain_cache_hits_total", "coded packets sent from a resident row",
		func() uint64 { return s.cache.StatsSnapshot().Hits })
	r.CounterFunc("fountain_cache_misses_total", "coded packets encoded at emission (one encode each)",
		func() uint64 { return s.cache.StatsSnapshot().Misses })
}

// Cache exposes the shared packet cache (for inspection and tests).
func (s *Service) Cache() *core.BlockCache { return s.cache }

// AddDataPhased encodes data under cfg — lazily, against the shared cache,
// when the codec supports it — and registers the session like AddPhased.
// rate <= 0 uses the service default. The session keeps data: do not
// modify it.
func (s *Service) AddDataPhased(data []byte, cfg core.Config, rate, phase int) (*core.Session, error) {
	sess, err := core.NewSessionCached(data, cfg, s.cache)
	if err != nil {
		return nil, err
	}
	if err := s.AddPhased(sess, rate, phase); err != nil {
		return nil, err
	}
	return sess, nil
}

// AddPhased registers an existing session and schedules its paced
// emission; rate <= 0 uses the service default. The session id
// (Config().Session) must be unused and must not be the transport
// wildcard. The session's carousel starts transmitting at round phase
// instead of round 0, and the phase is advertised in the session's control
// descriptor. Mirrors of a shared encoding register the same session at
// staggered phases (§8), so a multi-source receiver sees mostly-disjoint
// packets early on.
func (s *Service) AddPhased(sess *core.Session, rate, phase int) error {
	_, err := s.register(sess, rate, phase, false)
	return err
}

// AddManual registers a session — visible to control/catalog like any
// other, phase advertised — but schedules no emission: the caller drives
// the returned carousel through EmitRound, which runs the same batched
// send path the scheduler uses. This is the virtual-time shape:
// deterministic experiments and the loss-injection harness step mirrors on
// a virtual clock instead of real pacing.
func (s *Service) AddManual(sess *core.Session, rate, phase int) (*core.Carousel, error) {
	if _, err := s.register(sess, rate, phase, true); err != nil {
		return nil, err
	}
	return core.NewCarouselAt(sess, phase), nil
}

// register validates and inserts a fully initialized registry entry, and
// (unless manual) schedules its paced emission. It holds the registry lock
// throughout so a concurrent Remove can never observe a half-built entry.
func (s *Service) register(sess *core.Session, rate, phase int, manual bool) (*entry, error) {
	if rate <= 0 {
		rate = s.cfg.BaseRate
	}
	if phase < 0 {
		phase = 0 // keep the advertised phase equal to the carousel's clamp
	}
	id := sess.Config().Session
	if id == transport.SessionAny {
		return nil, fmt.Errorf("service: session id %#x is the wildcard id", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("service: closed")
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		return nil, ErrSessionLimit
	}
	if _, dup := s.sessions[id]; dup {
		return nil, fmt.Errorf("service: session id %#x already registered", id)
	}
	e := &entry{sess: sess, rate: rate, phase: phase}
	if !manual {
		e.car = core.NewCarouselAt(sess, phase)
		s.sched.add(e, PaceInterval(sess, rate))
	}
	s.sessions[id] = e
	return e, nil
}

// EmitRound emits one round of a manual session's carousel through the
// batched send path — byte-for-byte the code the scheduler's shard
// workers run, so virtual-time harnesses exercise the real emission
// machinery and their determinism tests oracle it.
func (s *Service) EmitRound(car *core.Carousel) error {
	s.manualMu.Lock()
	defer s.manualMu.Unlock()
	s.manualEm.emitRound(car)
	return nil
}

// sent sums what every emitter — the manual path's and each scheduler
// shard's — handed the transport: rounds, packets and bytes.
func (s *Service) sent() (rounds, packets, bytes uint64) {
	add := func(em *emitter) {
		rounds += em.rounds.Load()
		packets += em.batches.Load()
		bytes += em.bytes.Load()
	}
	add(&s.manualEm)
	for _, sh := range s.sched.shards {
		add(&sh.em)
	}
	return rounds, packets, bytes
}

// Remove stops a session's paced emission — waiting out any in-flight
// round — and returns the session's packets and charge to the shared cache.
func (s *Service) Remove(id uint16) error {
	s.mu.Lock()
	e, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("service: unknown session %#x", id)
	}
	s.sched.remove(e)
	s.cache.Drop(e.sess)
	return nil
}

// Lookup returns the control descriptor of one session.
func (s *Service) Lookup(id uint16) (proto.SessionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.sessions[id]
	if !ok {
		return proto.SessionInfo{}, false
	}
	return s.describe(e), true
}

func (s *Service) describe(e *entry) proto.SessionInfo {
	info := e.sess.Info()
	info.BaseRate = uint32(e.rate)
	info.Phase = uint32(e.phase)
	return info
}

// Catalog returns the descriptors of all registered sessions, ordered by
// session id (deterministic announce order).
func (s *Service) Catalog() []proto.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]proto.SessionInfo, 0, len(s.sessions))
	for _, e := range s.sessions {
		out = append(out, s.describe(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// HandleControl answers one control datagram (nil = no reply), in the shape
// transport.ServeControlFunc expects: catalog requests get the announce
// message; a hello for a specific session gets that session's descriptor; a
// bare legacy hello gets the lowest-id session. A hello for a session the
// service does not carry gets a NAK, so clients can tell a wrong id from a
// dead server.
func (s *Service) HandleControl(req []byte) []byte {
	if proto.IsCatalogRequest(req) {
		return proto.AppendCatalog(nil, s.Catalog())
	}
	if proto.IsStatsRequest(req) {
		return s.StatsSnapshot().Append(nil)
	}
	if id, specific, ok := proto.HelloSession(req); ok {
		if specific {
			if info, found := s.Lookup(id); found {
				return info.Append(nil)
			}
			return proto.AppendNak(nil, id)
		}
		if cat := s.Catalog(); len(cat) > 0 {
			return cat[0].Append(nil)
		}
		return proto.AppendNak(nil, transport.SessionAny)
	}
	return nil
}

// StatsSnapshot builds the wire-format stats answer served to
// proto.IsStatsRequest probes: the service counters plus whatever traffic
// accounting the underlying transport exposes (zero for transports that
// keep none).
func (s *Service) StatsSnapshot() proto.StatsSnapshot {
	st := s.Stats()
	snap := proto.StatsSnapshot{
		Sessions:      uint32(st.Sessions),
		Shards:        uint32(st.Shards),
		PacketsSent:   st.PacketsSent,
		BytesSent:     st.BytesSent,
		SendErrors:    st.SendErrors,
		RoundsEmitted: st.RoundsEmitted,
		CatchupRounds: st.CatchupRounds,
		DebtDropped:   st.DebtDropped,
		CacheUsed:     uint64(st.CacheUsed),
		CachePeak:     uint64(st.CachePeak),
		CacheLookups:  st.CacheLookups,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
	}
	if st.Draining {
		snap.Draining = 1
	}
	if sc, ok := s.tx.(interface{ SubscriberTotal() int }); ok {
		snap.Subscribers = uint32(sc.SubscriberTotal())
	}
	if tc, ok := s.tx.(interface{ Traffic() (uint64, uint64) }); ok {
		snap.TxPackets, snap.TxBytes = tc.Traffic()
	}
	return snap
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	cs := s.cache.StatsSnapshot()
	rounds, packets, bytes := s.sent()
	return Stats{
		Sessions:      n,
		Shards:        len(s.sched.shards),
		PacketsSent:   packets,
		BytesSent:     bytes,
		SendErrors:    s.sendErrors.Load(),
		RoundsEmitted: rounds,
		CatchupRounds: s.catchupRounds.Load(),
		DebtDropped:   s.debtDropped.Load(),
		Draining:      s.draining.Load(),
		CacheUsed:     cs.Used,
		CachePeak:     cs.Peak,
		CacheLookups:  cs.Lookups,
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
	}
}

// Drain retires the service gracefully: admission stops immediately
// (further registrations return ErrDraining), every round already in
// flight on a shard worker finishes emitting, and all shard workers are
// joined before Drain returns. The registry and control plane stay up —
// clients mid-download can still resolve descriptors — but no further data
// packets are paced out. Drain is idempotent and safe to call concurrently
// with Add, Remove, Close, and itself (shard done channels are closed, so
// every waiter is released).
func (s *Service) Drain() {
	s.draining.Store(true)
	s.cancel()
	for _, sh := range s.sched.shards {
		<-sh.done
	}
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// Close stops the scheduler and waits for every shard worker to exit. The
// service cannot be reused afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	for id := range s.sessions {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	s.cancel()
	for _, sh := range s.sched.shards {
		<-sh.done
	}
}
