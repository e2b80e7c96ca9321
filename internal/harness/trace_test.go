package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/netsim"
)

// tracedMatrixRun executes the PR 6 full fault matrix — loss, corruption,
// duplication, reordering, duty-cycling, a mirror crash/restart, the
// rejoin watchdog — with a flight recorder attached, and returns the
// recorder plus the harness's own accounting for reconciliation.
type tracedOutcome struct {
	rec        *evtrace.Recorder
	rounds     int   // harness RoundsToDecode
	doneRounds []int // per-mirror rounds at completion
	total      int   // Engine.Stats() total
	distinct   int
	k          int
	corrupt    int
	faults     []evtrace.ChannelStats // per mirror, from BusClient ground truth
}

func tracedMatrixRun(t *testing.T) tracedOutcome {
	t.Helper()
	data := testData(43, 60_000)
	// One shard: every event of the single-goroutine pump lands in one ring
	// in causal order. Sized generously — the completeness assertions below
	// require zero overwrites.
	rec := evtrace.New(evtrace.Config{Shards: 1, ShardSize: 1 << 19})
	rec.Enable()
	tb, err := New(Config{Mirrors: 3, Data: data, Session: singleLayerConfig(), Rate: 100, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	mk := mirrorLoss(5500, 0, []float64{0.08, 0.10, 0.12})
	r, err := tb.AddReceiverWith(ReceiverOpts{
		Loss:           func(mirror, layer int) netsim.LossProcess { return mk(mirror) },
		Corrupt:        func(mirror int) netsim.LossProcess { return bern(0.05, 5600, mirror) },
		Dup:            func(mirror int) netsim.LossProcess { return bern(0.10, 5700, mirror) },
		ReorderDepth:   16,
		ReorderSeed:    7,
		WakeFor:        0.5,
		SleepFor:       0.2,
		RejoinInterval: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.At(0.35, func() { tb.Mirrors[2].Crash() })
	tb.At(1.10, func() { tb.Mirrors[2].Restart() })
	if _, err := tb.Run(80 * tb.sess.Codec().N()); err != nil {
		t.Fatal(err)
	}
	if !r.Done() || r.Err() != nil {
		t.Fatalf("never decoded under the full matrix: %v", r.Err())
	}
	rec.Disable()
	o := tracedOutcome{
		rec:        rec,
		rounds:     r.RoundsToDecode(),
		doneRounds: append([]int(nil), r.doneRounds...),
		corrupt:    r.Engine.Corrupt(),
	}
	o.total, o.distinct, o.k = r.Engine.Stats()
	for mi := range tb.Mirrors {
		fs := r.FaultStats(mi)
		o.faults = append(o.faults, evtrace.ChannelStats{
			Delivered: fs.Delivered, Lost: fs.Lost,
			Corrupted: fs.Corrupted, Duplicated: fs.Duplicated,
		})
	}
	return o
}

// TestTraceBitIdentical: the deterministic fault-matrix scenario, traced in
// virtual time, must produce byte-for-byte identical binary dumps across
// two independent runs — the acceptance property that makes traces diffable
// artifacts rather than one-off observations.
func TestTraceBitIdentical(t *testing.T) {
	a, b := tracedMatrixRun(t), tracedMatrixRun(t)
	if n := a.rec.Dropped(); n != 0 {
		t.Fatalf("run A overwrote %d events — ring too small for completeness", n)
	}
	if n := b.rec.Dropped(); n != 0 {
		t.Fatalf("run B overwrote %d events", n)
	}
	var da, db bytes.Buffer
	if err := evtrace.WriteBinary(&da, a.rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := evtrace.WriteBinary(&db, b.rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if da.Len() <= 16 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(da.Bytes(), db.Bytes()) {
		t.Fatalf("traces diverged: %d vs %d bytes", da.Len(), db.Len())
	}
}

// TestTraceDumpHash pins the fault-matrix scenario's binary dump by
// SHA-256: the trace format, the order of every event and each event's
// arguments. It covers all nine event types that are also counters —
// round, tx_batch, the four channel faults, intake, intake_drop and
// symbol — plus release and done, so a change to how any of them is
// counted or recorded must leave the stream byte-identical.
func TestTraceDumpHash(t *testing.T) {
	const want = "ae78bc3802027bc0da49ea0515a8aea9ca882d43349ba20e9ee64562a8e6fa3e"
	o := tracedMatrixRun(t)
	var dump bytes.Buffer
	if err := evtrace.WriteBinary(&dump, o.rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(dump.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		counts := map[evtrace.Type]int{}
		for _, ev := range o.rec.Snapshot() {
			counts[ev.Type]++
		}
		t.Fatalf("trace dump (%d B) hashes to %s, want %s; events by type: %v", dump.Len(), got, want, counts)
	}
}

// TestTraceReproducesHarnessAccounting: analyzing the trace alone must
// reproduce the harness's own numbers exactly — per-mirror rounds at the
// receiver's completion (and so rounds-to-decode), the decoder's
// total/distinct/k (and so reception overhead), the integrity-drop count,
// and the channel fault pipeline's ground truth.
func TestTraceReproducesHarnessAccounting(t *testing.T) {
	o := tracedMatrixRun(t)

	// Round-trip through the dump format: the analyzer input is what a
	// fountain-trace user would read back from disk.
	var dump bytes.Buffer
	if err := evtrace.WriteBinary(&dump, o.rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	events, err := evtrace.ReadBinary(&dump)
	if err != nil {
		t.Fatal(err)
	}
	an := evtrace.Analyze(events)
	sa := an.Sessions[singleLayerConfig().Session]
	if sa == nil {
		t.Fatal("session missing from trace")
	}
	if len(sa.Mirrors) != 3 || len(sa.Receivers) != 1 {
		t.Fatalf("trace shows %d mirrors, %d receivers", len(sa.Mirrors), len(sa.Receivers))
	}
	r := sa.Receivers[0]
	if !r.Done {
		t.Fatal("trace shows no completion")
	}
	for mi, want := range o.doneRounds {
		if got := r.RoundsAtDone[uint16(mi)]; got != uint64(want) {
			t.Errorf("mirror %d rounds at completion: trace %d, harness %d", mi, got, want)
		}
	}
	if got := r.RoundsToDecode(); got != o.rounds {
		t.Errorf("rounds-to-decode: trace %d, harness %d", got, o.rounds)
	}
	if int(r.DoneTotal) != o.total || int(r.DoneDist) != o.distinct || int(r.K) != o.k {
		t.Errorf("decode accounting: trace total=%d dist=%d k=%d, harness %d/%d/%d",
			r.DoneTotal, r.DoneDist, r.K, o.total, o.distinct, o.k)
	}
	wantOverhead := float64(o.total) / float64(o.k)
	if got := r.Overhead(); got != wantOverhead {
		t.Errorf("overhead: trace %v, harness %v", got, wantOverhead)
	}
	if int(r.CorruptDrops) != o.corrupt {
		t.Errorf("integrity drops: trace %d, engine %d", r.CorruptDrops, o.corrupt)
	}
	for mi, want := range o.faults {
		got := r.Channel[uint16(mi)]
		if got == nil {
			t.Fatalf("mirror %d channel missing from trace", mi)
		}
		if *got != want {
			t.Errorf("mirror %d channel stats: trace %+v, bus ground truth %+v", mi, *got, want)
		}
	}
	// The send side must reconcile too: every mirror traced at least the
	// rounds the harness counted (mirrors keep emitting until the pump's
	// done-check, so the trace may hold a few more).
	for mi := range o.doneRounds {
		m := sa.Mirrors[uint16(mi)]
		if m == nil {
			t.Fatalf("mirror %d missing from trace", mi)
		}
		if m.Rounds < uint64(o.doneRounds[mi]) {
			t.Errorf("mirror %d: trace holds %d rounds, harness counted %d at completion",
				mi, m.Rounds, o.doneRounds[mi])
		}
		if m.Batches == 0 || m.Packets == 0 {
			t.Errorf("mirror %d traced no tx batches", mi)
		}
	}
}
