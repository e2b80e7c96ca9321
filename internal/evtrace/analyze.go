package evtrace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Analysis is the latency decomposition of one event stream: per-session,
// per-mirror emission accounting and pacing jitter, per-receiver intake
// and decode accounting, and the time-to-decode distribution across the
// receiver population. It is computed from the trace alone — the
// acceptance tests require its rounds/overhead figures to match the
// harness's own accounting exactly.
type Analysis struct {
	Sessions map[uint16]*SessionAnalysis
}

// SessionAnalysis groups one wire session's mirrors and receivers.
type SessionAnalysis struct {
	Session   uint16
	Mirrors   map[uint16]*MirrorStats
	Receivers map[uint16]*ReceiverStats
}

// MirrorStats is the emission-side accounting of one source/mirror.
type MirrorStats struct {
	Src      uint16
	Rounds   uint64 // EvRound events (rounds begun)
	Batches  uint64 // EvTxBatch events
	Packets  uint64 // packets across flushed batches
	Bytes    uint64 // payload bytes across flushed batches
	Jitter   JitterStats
	Sched    uint64 // EvSlotScheduled events
	FirstTS  int64
	LastTS   int64
	anyEvent bool
}

// JitterStats summarizes scheduled-vs-actual slot emission times (the
// pacing jitter of EvSlotFired events), in nanoseconds.
type JitterStats struct {
	Count   uint64
	Max     int64
	sum     int64
	Buckets [len(jitterBounds) + 1]uint64 // histogram; +Inf last
}

// jitterBounds are the jitter histogram's upper bounds in nanoseconds:
// 10µs .. 100ms in decade-and-a-half steps, wide enough to show both a
// quiet scheduler and one drowning in debt.
var jitterBounds = [...]int64{
	10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000,
}

func (j *JitterStats) observe(ns int64) {
	j.Count++
	j.sum += ns
	if ns > j.Max {
		j.Max = ns
	}
	i := 0
	for i < len(jitterBounds) && ns > jitterBounds[i] {
		i++
	}
	j.Buckets[i]++
}

// Mean returns the mean jitter in nanoseconds.
func (j *JitterStats) Mean() float64 {
	if j.Count == 0 {
		return 0
	}
	return float64(j.sum) / float64(j.Count)
}

// ChannelStats mirrors the transport fault pipeline's ground truth for one
// (receiver, mirror) feed.
type ChannelStats struct {
	Delivered, Lost, Corrupted, Duplicated uint64
}

// ReceiverStats is the intake-side accounting of one receiver.
type ReceiverStats struct {
	Actor        uint16
	Received     uint64 // EvIntake events (accepted packets)
	CorruptDrops uint64 // EvIntakeDrop events
	Distinct     uint64 // EvSymbol events
	Channel      map[uint16]*ChannelStats

	// Decode completion, from the EvDone record.
	Done      bool
	DoneTotal uint64 // packets accepted at completion
	DoneDist  uint64 // distinct symbols at completion
	K         uint64
	FirstTS   int64 // first intake timestamp
	DoneTS    int64
	// RoundsAtDone[src] counts that mirror's EvRound events preceding this
	// receiver's EvDone in stream order — the trace twin of the harness's
	// doneRounds snapshot. Exact where each round is flushed before the next
	// begins (Service.EmitRound, the harness); the paced scheduler begins
	// every round a pop owes before the batch carrying them leaves, so on
	// its streams this reads up to one burst bound high.
	RoundsAtDone map[uint16]uint64

	// Release latency: intake→release per released symbol, measurable when
	// intake and symbol events interleave (ns). For threshold decoders a
	// release follows its intake immediately; LT-style lazy release shows
	// up as nonzero latency.
	ReleaseLat LatencyStats

	hasFirst bool
}

// LatencyStats accumulates a simple latency population.
type LatencyStats struct {
	Count uint64
	Max   int64
	sum   int64
}

func (l *LatencyStats) observe(ns int64) {
	l.Count++
	l.sum += ns
	if ns > l.Max {
		l.Max = ns
	}
}

// Mean returns the mean latency in nanoseconds.
func (l *LatencyStats) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.Count)
}

// RoundsToDecode returns the max per-mirror round count at completion —
// the harness's RoundsToDecode — or -1 while incomplete.
func (r *ReceiverStats) RoundsToDecode() int {
	if !r.Done {
		return -1
	}
	max := uint64(0)
	for _, n := range r.RoundsAtDone {
		if n > max {
			max = n
		}
	}
	return int(max)
}

// Overhead returns total-accepted / k at completion (reception overhead;
// 1/η in the paper's terms), or 0 while incomplete.
func (r *ReceiverStats) Overhead() float64 {
	if !r.Done || r.K == 0 {
		return 0
	}
	return float64(r.DoneTotal) / float64(r.K)
}

// TimeToDecode returns DoneTS - FirstTS in nanoseconds, or -1 while
// incomplete.
func (r *ReceiverStats) TimeToDecode() int64 {
	if !r.Done || !r.hasFirst {
		return -1
	}
	return r.DoneTS - r.FirstTS
}

func (a *Analysis) session(id uint16) *SessionAnalysis {
	sa := a.Sessions[id]
	if sa == nil {
		sa = &SessionAnalysis{
			Session:   id,
			Mirrors:   make(map[uint16]*MirrorStats),
			Receivers: make(map[uint16]*ReceiverStats),
		}
		a.Sessions[id] = sa
	}
	return sa
}

func (sa *SessionAnalysis) mirror(src uint16) *MirrorStats {
	m := sa.Mirrors[src]
	if m == nil {
		m = &MirrorStats{Src: src}
		sa.Mirrors[src] = m
	}
	return m
}

func (sa *SessionAnalysis) receiver(actor uint16) *ReceiverStats {
	r := sa.Receivers[actor]
	if r == nil {
		r = &ReceiverStats{
			Actor:        actor,
			Channel:      make(map[uint16]*ChannelStats),
			RoundsAtDone: make(map[uint16]uint64),
		}
		sa.Receivers[actor] = r
	}
	return r
}

func (r *ReceiverStats) channel(src uint16) *ChannelStats {
	c := r.Channel[src]
	if c == nil {
		c = &ChannelStats{}
		r.Channel[src] = c
	}
	return c
}

// Analyze folds an ordered event stream (Snapshot or ReadBinary output)
// into an Analysis. Stream order matters for RoundsAtDone: the stream must
// preserve emission order within each (mirror, receiver) — Snapshot of a
// single-shard recorder guarantees it globally.
func Analyze(events []Event) *Analysis {
	a := &Analysis{Sessions: make(map[uint16]*SessionAnalysis)}
	// pendingIntake tracks, per (session, actor), the timestamp of the most
	// recent intake whose release has not been observed: a following
	// EvSymbol resolves to intake→release latency.
	type key struct {
		sess, actor uint16
	}
	pending := make(map[key]int64)
	for _, ev := range events {
		sa := a.session(ev.Sess)
		switch ev.Type {
		case EvSlotScheduled:
			m := sa.mirror(ev.Src)
			m.Sched++
			m.touch(ev.TS)
		case EvSlotFired:
			m := sa.mirror(ev.Src)
			if ev.B >= ev.A {
				m.Jitter.observe(int64(ev.B - ev.A))
			}
			m.touch(ev.TS)
		case EvRound:
			m := sa.mirror(ev.Src)
			m.Rounds++
			m.touch(ev.TS)
		case EvTxBatch:
			m := sa.mirror(ev.Src)
			m.Batches++
			m.Packets += ev.A
			m.Bytes += ev.B
			m.touch(ev.TS)
		case EvChDeliver:
			sa.receiver(ev.Actor).channel(ev.Src).Delivered++
		case EvChLoss:
			sa.receiver(ev.Actor).channel(ev.Src).Lost++
		case EvChCorrupt:
			sa.receiver(ev.Actor).channel(ev.Src).Corrupted++
		case EvChDup:
			sa.receiver(ev.Actor).channel(ev.Src).Duplicated++
		case EvIntake:
			r := sa.receiver(ev.Actor)
			r.Received++
			if !r.hasFirst {
				r.hasFirst, r.FirstTS = true, ev.TS
			}
			pending[key{ev.Sess, ev.Actor}] = ev.TS
		case EvIntakeDrop:
			sa.receiver(ev.Actor).CorruptDrops++
		case EvSymbol:
			r := sa.receiver(ev.Actor)
			r.Distinct++
			if ts, ok := pending[key{ev.Sess, ev.Actor}]; ok {
				r.ReleaseLat.observe(ev.TS - ts)
			}
		case EvDone:
			r := sa.receiver(ev.Actor)
			if !r.Done {
				r.Done = true
				r.DoneTS = ev.TS
				r.DoneTotal = ev.A
				r.DoneDist = ev.B & 0xFFFFFFFF
				r.K = ev.B >> 32
				for src, m := range sa.Mirrors {
					r.RoundsAtDone[src] = m.Rounds
				}
			}
		}
	}
	return a
}

func (m *MirrorStats) touch(ts int64) {
	if !m.anyEvent || ts < m.FirstTS {
		m.FirstTS = ts
	}
	if !m.anyEvent || ts > m.LastTS {
		m.LastTS = ts
	}
	m.anyEvent = true
}

// sortedMirrors returns the session's mirrors in src order.
func (sa *SessionAnalysis) sortedMirrors() []*MirrorStats {
	out := make([]*MirrorStats, 0, len(sa.Mirrors))
	for _, m := range sa.Mirrors {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// sortedReceivers returns the session's receivers in actor order.
func (sa *SessionAnalysis) sortedReceivers() []*ReceiverStats {
	out := make([]*ReceiverStats, 0, len(sa.Receivers))
	for _, r := range sa.Receivers {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Actor < out[j].Actor })
	return out
}

// TTDQuantiles returns the given quantiles (0..1) of the session's
// time-to-decode population in nanoseconds (completed receivers only;
// nil when none completed).
func (sa *SessionAnalysis) TTDQuantiles(qs ...float64) []int64 {
	var ttds []int64
	for _, r := range sa.Receivers {
		if t := r.TimeToDecode(); t >= 0 {
			ttds = append(ttds, t)
		}
	}
	if len(ttds) == 0 {
		return nil
	}
	sort.Slice(ttds, func(i, j int) bool { return ttds[i] < ttds[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(ttds)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ttds) {
			idx = len(ttds) - 1
		}
		out[i] = ttds[idx]
	}
	return out
}

// fmtNS renders nanoseconds human-first (µs/ms/s as magnitude warrants).
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// WriteSummary renders the analysis as an operator-facing text report:
// per-mirror emission and pacing jitter, per-receiver decode accounting,
// and the time-to-decode distribution.
func (a *Analysis) WriteSummary(w io.Writer) error {
	ids := make([]int, 0, len(a.Sessions))
	for id := range a.Sessions {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		sa := a.Sessions[uint16(id)]
		fmt.Fprintf(w, "session %#04x: %d mirrors, %d receivers\n", sa.Session, len(sa.Mirrors), len(sa.Receivers))
		for _, m := range sa.sortedMirrors() {
			fmt.Fprintf(w, "  mirror %d: rounds=%d batches=%d packets=%d bytes=%d",
				m.Src, m.Rounds, m.Batches, m.Packets, m.Bytes)
			if m.Jitter.Count > 0 {
				fmt.Fprintf(w, " jitter mean=%s max=%s (%d slots)",
					fmtNS(int64(m.Jitter.Mean())), fmtNS(m.Jitter.Max), m.Jitter.Count)
			}
			fmt.Fprintln(w)
			if m.Jitter.Count > 0 {
				fmt.Fprintf(w, "    jitter histogram:")
				for i, b := range m.Jitter.Buckets {
					if b == 0 {
						continue
					}
					le := "+Inf"
					if i < len(jitterBounds) {
						le = fmtNS(jitterBounds[i])
					}
					fmt.Fprintf(w, " le=%s:%d", le, b)
				}
				fmt.Fprintln(w)
			}
		}
		for _, r := range sa.sortedReceivers() {
			fmt.Fprintf(w, "  receiver %d: received=%d distinct=%d corrupt-drops=%d",
				r.Actor, r.Received, r.Distinct, r.CorruptDrops)
			if r.Done {
				fmt.Fprintf(w, " done: k=%d total=%d overhead=%.4f rounds=%d ttd=%s",
					r.K, r.DoneTotal, r.Overhead(), r.RoundsToDecode(), fmtNS(r.TimeToDecode()))
			}
			fmt.Fprintln(w)
			if r.ReleaseLat.Count > 0 && r.ReleaseLat.Max > 0 {
				fmt.Fprintf(w, "    intake→release: mean=%s max=%s over %d releases\n",
					fmtNS(int64(r.ReleaseLat.Mean())), fmtNS(r.ReleaseLat.Max), r.ReleaseLat.Count)
			}
			srcs := make([]int, 0, len(r.Channel))
			for src := range r.Channel {
				srcs = append(srcs, int(src))
			}
			sort.Ints(srcs)
			for _, src := range srcs {
				c := r.Channel[uint16(src)]
				fmt.Fprintf(w, "    channel from mirror %d: delivered=%d lost=%d corrupted=%d duplicated=%d\n",
					src, c.Delivered, c.Lost, c.Corrupted, c.Duplicated)
			}
		}
		if qs := sa.TTDQuantiles(0.10, 0.50, 0.90, 0.99); qs != nil {
			fmt.Fprintf(w, "  time-to-decode CDF: p10=%s p50=%s p90=%s p99=%s\n",
				fmtNS(qs[0]), fmtNS(qs[1]), fmtNS(qs[2]), fmtNS(qs[3]))
		}
	}
	return nil
}

// WriteTable renders the analysis as an EXPERIMENTS.md-style markdown
// table, one row per (session, receiver) — the trace-derived twin of the
// tables the harness scenarios print.
func (a *Analysis) WriteTable(w io.Writer) error {
	fmt.Fprintln(w, "| session | receiver | mirrors | received | distinct | k | overhead | rounds | time-to-decode |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	ids := make([]int, 0, len(a.Sessions))
	for id := range a.Sessions {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		sa := a.Sessions[uint16(id)]
		for _, r := range sa.sortedReceivers() {
			rounds, overhead, ttd := "-", "-", "-"
			if r.Done {
				rounds = fmt.Sprintf("%d", r.RoundsToDecode())
				overhead = fmt.Sprintf("%.4f", r.Overhead())
				ttd = fmtNS(r.TimeToDecode())
			}
			fmt.Fprintf(w, "| %#04x | %d | %d | %d | %d | %d | %s | %s | %s |\n",
				sa.Session, r.Actor, len(sa.Mirrors), r.Received, r.Distinct, r.K, overhead, rounds, ttd)
		}
	}
	return nil
}
