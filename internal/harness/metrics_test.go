package harness

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/transport"
)

// scraped reads one series value from a registry snapshot (fails the test
// if the series is absent). Values in this file are small integers, so the
// float64 round-trip is exact.
func scraped(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	t.Fatalf("series %q not in registry snapshot", name)
	return 0
}

// TestMetricsMatchChannelGroundTruth is the "metrics that can't lie"
// acceptance test: a deterministic fault matrix runs the full
// service→transport→client path, and every observability readout — the
// service's metrics registry, its Stats snapshot, and the control-plane
// stats message — must agree exactly with what the channel verifiably did
// (the BusClient fault-pipeline counts and the carousel's own emission
// count). No sampling, no estimation: exact equalities.
func TestMetricsMatchChannelGroundTruth(t *testing.T) {
	type row struct {
		name                string
		loss, corrupt, dup  float64
		rounds              int
		runToCompletion     bool
		reconcileEngineView bool // requires the decoder NOT to finish
	}
	rows := []row{
		// A clean channel: every emitted packet arrives exactly once.
		{name: "clean", rounds: 0, runToCompletion: true},
		// Heavy loss, too few rounds to decode: the engine sees exactly
		// the surviving packets.
		{name: "loss", loss: 0.5, rounds: 20, reconcileEngineView: true},
		// Corruption only: everything arrives, flipped copies are counted
		// once by the channel and once by the CRC check.
		{name: "corrupt", corrupt: 0.25, rounds: 20, reconcileEngineView: true},
		// Duplication only: extra copies, same serials.
		{name: "dup", dup: 0.3, rounds: 20, reconcileEngineView: true},
		// Everything at once: the conservation identity must still hold.
		{name: "mixed", loss: 0.2, corrupt: 0.1, dup: 0.2, rounds: 20},
	}
	for _, rw := range rows {
		rw := rw
		t.Run(rw.name, func(t *testing.T) {
			data := testData(77, 20_000)
			tb, err := New(Config{Mirrors: 1, Data: data, Session: singleLayerConfig(), Rate: 100})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			opts := ReceiverOpts{}
			if rw.loss > 0 {
				opts.Loss = func(mirror, layer int) netsim.LossProcess { return bern(rw.loss, 7100, mirror) }
			}
			if rw.corrupt > 0 {
				opts.Corrupt = func(mirror int) netsim.LossProcess { return bern(rw.corrupt, 7200, mirror) }
			}
			if rw.dup > 0 {
				opts.Dup = func(mirror int) netsim.LossProcess { return bern(rw.dup, 7300, mirror) }
			}
			r, err := tb.AddReceiverWith(opts)
			if err != nil {
				t.Fatal(err)
			}
			rounds := rw.rounds
			if rw.runToCompletion {
				rounds = 60 * tb.sess.Codec().N()
			}
			if _, err := tb.Run(rounds); err != nil {
				t.Fatal(err)
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if rw.runToCompletion {
				if !r.Done() {
					t.Fatal("clean channel never decoded")
				}
				got, err := r.File()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("file mismatch on clean channel")
				}
			}
			if rw.reconcileEngineView && r.Done() {
				t.Fatal("test premise broken: decoder completed, engine counts stop tracking the channel; reduce rounds")
			}

			m := tb.Mirrors[0]
			emitted := uint64(m.Carousel.Sent()) // the channel's own emission count
			fs := r.FaultStats(0)
			st := m.Service.Stats()

			// Conservation: every emitted packet was delivered, lost, or
			// delivered extra times by duplication — nothing else.
			if fs.Delivered != emitted-fs.Lost+fs.Duplicated {
				t.Fatalf("channel books don't balance: delivered=%d, emitted=%d lost=%d dup=%d",
					fs.Delivered, emitted, fs.Lost, fs.Duplicated)
			}
			// The harness's independent per-feed delivery count agrees.
			if r.got[0] != fs.Delivered {
				t.Fatalf("harness counted %d deliveries, channel %d", r.got[0], fs.Delivered)
			}
			// The service counter and the metrics registry report exactly
			// the carousel's emission count.
			if st.PacketsSent != emitted {
				t.Fatalf("service says %d packets sent, carousel emitted %d", st.PacketsSent, emitted)
			}
			if v := scraped(t, m.Service.Metrics(), "fountain_packets_sent_total"); v != emitted {
				t.Fatalf("registry says %d packets sent, carousel emitted %d", v, emitted)
			}
			// EmitRound runs the scheduler's own emission path, so manual
			// rounds land in the same round counter — it must match the
			// carousel exactly, and no catch-up activity may be invented.
			if v := scraped(t, m.Service.Metrics(), "fountain_sched_rounds_total"); v != uint64(m.Carousel.Rounds()) {
				t.Fatalf("registry counted %d rounds, carousel emitted %d", v, m.Carousel.Rounds())
			}
			if v := scraped(t, m.Service.Metrics(), "fountain_sched_catchup_rounds_total"); v != 0 {
				t.Fatalf("catch-up rounds %d on a virtual-time harness", v)
			}

			// The control-plane stats message carries the same numbers.
			snap, err := proto.ParseStats(m.Service.HandleControl(proto.AppendStatsRequest(nil)))
			if err != nil {
				t.Fatal(err)
			}
			if snap.PacketsSent != emitted || snap.BytesSent != st.BytesSent {
				t.Fatalf("control stats (pkts=%d bytes=%d) disagree with service (pkts=%d bytes=%d)",
					snap.PacketsSent, snap.BytesSent, emitted, st.BytesSent)
			}
			if snap.Sessions != 1 || snap.Subscribers != 1 || snap.Draining != 0 {
				t.Fatalf("control stats shape: %+v", snap)
			}

			// Fault-specific equalities against the channel's ground truth.
			es := r.Engine.SourceStats(0)
			if rw.name == "clean" && (fs.Lost != 0 || fs.Corrupted != 0 || fs.Duplicated != 0) {
				t.Fatalf("faults on a clean channel: %+v", fs)
			}
			if rw.loss > 0 && fs.Lost == 0 {
				t.Fatal("loss configured but channel dropped nothing")
			}
			if rw.reconcileEngineView {
				// Every delivery reached the engine: valid packets were
				// counted received, flipped ones corrupt.
				if got := uint64(es.Received) + uint64(es.Corrupt); got != fs.Delivered {
					t.Fatalf("engine saw %d packets (recv=%d corrupt=%d), channel delivered %d",
						got, es.Received, es.Corrupt, fs.Delivered)
				}
				switch rw.name {
				case "corrupt":
					if fs.Corrupted == 0 || uint64(es.Corrupt) != fs.Corrupted {
						t.Fatalf("engine counted %d corrupt, channel flipped %d", es.Corrupt, fs.Corrupted)
					}
				case "dup":
					if fs.Duplicated == 0 || uint64(es.Duplicate) != fs.Duplicated {
						t.Fatalf("engine counted %d duplicates, channel duplicated %d", es.Duplicate, fs.Duplicated)
					}
				}
				// The client's per-source counters are themselves exported
				// series; the registry view must match the engine view.
				reg := metrics.NewRegistry()
				r.Engine.RegisterMetrics(reg)
				if v := scraped(t, reg, `fountain_client_corrupt_total{source="0"}`); v != uint64(es.Corrupt) {
					t.Fatalf("client registry corrupt=%d, engine %d", v, es.Corrupt)
				}
				if v := scraped(t, reg, `fountain_client_received_total{source="0"}`); v != uint64(es.Received) {
					t.Fatalf("client registry received=%d, engine %d", v, es.Received)
				}
			}
		})
	}
}

// TestCacheMetricsGroundTruth drives a lazily encoded session three
// carousel cycles through a budget far too small for its coded rows and
// checks that the cache's own ledger — the sixteen rows that got in hitting
// on every later cycle, everything else encoded per emission — is visible,
// identically, through the service Stats snapshot, the metrics registry,
// and the control-plane stats message.
func TestCacheMetricsGroundTruth(t *testing.T) {
	data := testData(88, 60_000)
	cfg := core.DefaultConfig()
	cfg.Codec = proto.CodecCauchy
	cfg.Layers = 1
	cfg.PacketLen = 500
	cfg.Seed = 88
	cfg.Session = 0x6001

	const budget = 16
	bus := transport.NewBus(cfg.Layers)
	svc := service.New(bus, service.Config{BaseRate: 100, CacheBytes: int64(budget * core.PadPacketLen(500))})
	defer svc.Close()
	sess, err := core.NewSessionCached(data, cfg, svc.Cache())
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Lazy() {
		t.Fatal("Cauchy session did not take the lazy path")
	}
	car, err := svc.AddManual(sess, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 3
	for i := 0; i < cycles*sess.Codec().N(); i++ {
		if err := svc.EmitRound(car); err != nil {
			t.Fatal(err)
		}
	}

	cs := svc.Cache().StatsSnapshot()
	coded := uint64(sess.Codec().N() - sess.Codec().K())
	if cs.Hits != (cycles-1)*budget || cs.Misses != cycles*coded-cs.Hits || cs.Lookups != cycles*coded {
		t.Fatalf("cache ledger: hits=%d misses=%d lookups=%d over %d cycles of %d coded rows, %d resident",
			cs.Hits, cs.Misses, cs.Lookups, cycles, coded, budget)
	}
	if cs.Used != cs.Cap || cs.Peak != cs.Cap {
		t.Fatalf("used %d, peak %d under a full budget of %d", cs.Used, cs.Peak, cs.Cap)
	}
	st := svc.Stats()
	if st.CacheHits != cs.Hits || st.CacheMisses != cs.Misses || st.CacheLookups != cs.Lookups ||
		st.CacheUsed != cs.Used || st.CachePeak != cs.Peak {
		t.Fatalf("Stats %+v disagrees with cache %+v", st, cs)
	}
	for name, want := range map[string]uint64{
		"fountain_cache_hits_total":    cs.Hits,
		"fountain_cache_misses_total":  cs.Misses,
		"fountain_cache_lookups_total": cs.Lookups,
		"fountain_cache_used_bytes":    uint64(cs.Used),
		"fountain_cache_peak_bytes":    uint64(cs.Peak),
	} {
		if v := scraped(t, svc.Metrics(), name); v != want {
			t.Fatalf("registry %s = %d, cache %d", name, v, want)
		}
	}
	snap, err := proto.ParseStats(svc.HandleControl(proto.AppendStatsRequest(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits != cs.Hits || snap.CacheMisses != cs.Misses || snap.CacheLookups != cs.Lookups ||
		snap.CacheUsed != uint64(cs.Used) || snap.CachePeak != uint64(cs.Peak) {
		t.Fatalf("control stats %+v disagree with cache %+v", snap, cs)
	}
}
