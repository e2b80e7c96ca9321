package service

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/transport"
)

// counterSeries are the monotone series the churn test watches. Gauges
// (sessions, backlog, cache_used) legitimately move both ways and are
// excluded.
var counterSeries = []string{
	"fountain_packets_sent_total",
	"fountain_bytes_sent_total",
	"fountain_sched_rounds_total",
	"fountain_cache_lookups_total",
	"fountain_cache_hits_total",
	"fountain_cache_misses_total",
}

func snapshotMap(reg *metrics.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

// TestMetricsConsistentUnderChurn scrapes the registry, the Stats
// snapshot, and the control-plane stats message continuously while
// sessions churn, subscribers attach and detach, and a drain lands in the
// middle — the -race scenario for the whole observability surface. Every
// counter must be monotone across consecutive scrapes (a torn or
// double-counted read would show up as a dip), the cache lookup ledger
// must balance in every single snapshot, and the text exposition must
// stay serveable throughout.
func TestMetricsConsistentUnderChurn(t *testing.T) {
	bus := transport.NewBus(4)
	svc := New(bus, Config{BaseRate: 5000, Shards: 2})
	defer svc.Close()

	data := randBytes(61, 30_000)
	for id := uint16(1); id <= 3; id++ {
		if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, id, 61), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for svc.Stats().PacketsSent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no emission before churn")
		}
		time.Sleep(time.Millisecond)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}

	// Scraper 1: programmatic registry snapshots. Counters must be
	// monotone scrape over scrape. (Cross-series identities like the cache
	// ledger are NOT asserted here: a registry scrape reads each series
	// atomically but not the set as a whole, the standard Prometheus
	// semantics — the ledger is checked below on the single
	// snapshots, where it must hold exactly.)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := snapshotMap(svc.Metrics())
		for !stop.Load() {
			cur := snapshotMap(svc.Metrics())
			for _, name := range counterSeries {
				if cur[name] < prev[name] {
					report(name + " went backwards")
				}
			}
			prev = cur
		}
	}()
	// Scraper 2: the text exposition endpoint and the Stats snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for !stop.Load() {
			if _, err := svc.Metrics().WriteTo(io.Discard); err != nil {
				report("WriteTo errored: " + err.Error())
			}
			st := svc.Stats()
			if st.PacketsSent < last.PacketsSent || st.RoundsEmitted < last.RoundsEmitted {
				report("Stats counters went backwards")
			}
			if st.CacheHits+st.CacheMisses != st.CacheLookups {
				report("cache ledger unbalanced in Stats")
			}
			last = st
		}
	}()
	// Scraper 3: the control-plane stats message.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last proto.StatsSnapshot
		for !stop.Load() {
			snap, err := proto.ParseStats(svc.HandleControl(proto.AppendStatsRequest(nil)))
			if err != nil {
				report("control stats unparseable: " + err.Error())
				return
			}
			if snap.PacketsSent < last.PacketsSent || snap.CacheLookups < last.CacheLookups {
				report("control stats went backwards")
			}
			if snap.CacheHits+snap.CacheMisses != snap.CacheLookups {
				report("cache ledger unbalanced in control stats")
			}
			last = snap
		}
	}()
	// Session churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint16(0); !stop.Load(); i++ {
			id := 100 + i%8
			if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, id, 61), 0, 0); err == nil {
				svc.Remove(id)
			}
		}
	}()
	// Subscriber churn on the bus.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			c := bus.NewClient(3, nil, func(int, []byte) {})
			bus.SubscriberTotal()
			c.Close()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	svc.Drain() // the drain lands mid-scrape; scrapers keep running
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	st := svc.Stats()
	if !st.Draining {
		t.Fatal("Stats does not report the drain")
	}
	snap, err := proto.ParseStats(svc.HandleControl(proto.AppendStatsRequest(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Draining != 1 {
		t.Fatal("control stats do not report the drain")
	}
	if snap.PacketsSent != st.PacketsSent {
		t.Fatalf("post-drain control stats (%d) disagree with Stats (%d)", snap.PacketsSent, st.PacketsSent)
	}
}
