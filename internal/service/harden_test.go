package service

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/transport"
)

// TestAdmissionControl: a service with MaxSessions refuses registrations
// beyond the cap with ErrSessionLimit, admits again once a slot frees, and
// refuses everything with ErrDraining once Drain begins.
func TestAdmissionControl(t *testing.T) {
	bus := transport.NewBus(4)
	svc := New(bus, Config{BaseRate: 500, MaxSessions: 2})
	defer svc.Close()

	data := randBytes(51, 20_000)
	if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, 1, 51), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, 2, 51), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, 3, 51), 0, 0); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third session admitted past MaxSessions=2: err = %v", err)
	}
	if err := svc.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, 3, 51), 0, 0); err != nil {
		t.Fatalf("admission after Remove freed a slot: %v", err)
	}

	svc.Drain()
	if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, 4, 51), 0, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission during drain: err = %v", err)
	}
	if !svc.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

// TestDrainGraceful exercises the drain path under contention (this is the
// scenario CI runs with -race): sessions are added and removed from
// several goroutines while other goroutines call Drain concurrently.
// Every Drain call must return with all shard workers joined, emission
// must have fully stopped, the registry must still answer control probes,
// and a subsequent Close must be a clean no-op.
func TestDrainGraceful(t *testing.T) {
	bus := transport.NewBus(4)
	svc := New(bus, Config{BaseRate: 5000, Shards: 4})
	defer svc.Close()

	data := randBytes(53, 30_000)
	for id := uint16(1); id <= 4; id++ {
		if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, id, 53), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Let the carousels emit for real before draining.
	deadline := time.Now().Add(2 * time.Second)
	for svc.Stats().PacketsSent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no emission before drain")
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		base := uint16(100 + 10*g)
		go func() { // churn alongside the drain
			defer wg.Done()
			for i := uint16(0); i < 5; i++ {
				if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, base+i, 53), 0, 0); err == nil {
					svc.Remove(base + i)
				}
			}
		}()
		go func() { // concurrent drains must all return
			defer wg.Done()
			svc.Drain()
		}()
	}
	wg.Wait()

	// Emission has stopped for good: the counter is frozen.
	sent := svc.Stats().PacketsSent
	time.Sleep(20 * time.Millisecond)
	if now := svc.Stats().PacketsSent; now != sent {
		t.Fatalf("packets still flowing after drain: %d -> %d", sent, now)
	}
	// The control plane survives the drain: descriptors stay resolvable.
	if _, ok := svc.Lookup(1); !ok {
		t.Fatal("drained service lost its registry")
	}
	if reply := svc.HandleControl(proto.AppendHelloFor(nil, 1)); reply == nil {
		t.Fatal("drained service stopped answering control probes")
	}
}

// TestSoakChurn is the long-haul churn soak (CI's scheduled job runs it
// with FOUNTAIN_SOAK_CYCLES raised): sessions continually registered and
// removed under an admission cap while subscribers join, download a
// little, and flap — half leaving cleanly, half vanishing mid-stream —
// with a drain-and-dispose epilogue. The assertions are the leak
// detectors: goroutine count and heap must return to baseline, because a
// production fountain server runs this churn for months.
func TestSoakChurn(t *testing.T) {
	cycles := 4
	if v := os.Getenv("FOUNTAIN_SOAK_CYCLES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cycles = n
		}
	}

	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	for cycle := 0; cycle < cycles; cycle++ {
		udp, err := transport.NewUDPServer("127.0.0.1:0", 4)
		if err != nil {
			t.Fatal(err)
		}
		udp.SetLimits(transport.UDPLimits{MaxSubscribers: 64, EvictAfter: 4})
		svc := New(udp, Config{BaseRate: 4000, MaxSessions: 8, CacheBytes: 1 << 20})

		data := randBytes(int64(59+cycle), 25_000)
		ids := []uint16{}
		for i := 0; i < 12; i++ { // deliberately overshoots MaxSessions
			id := uint16(1 + i)
			_, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, id, int64(59+cycle)), 0, 0)
			switch {
			case err == nil:
				ids = append(ids, id)
			case errors.Is(err, ErrSessionLimit):
			default:
				t.Fatal(err)
			}
		}
		if len(ids) != 8 {
			t.Fatalf("cycle %d: admitted %d sessions under cap 8", cycle, len(ids))
		}

		var wg sync.WaitGroup
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := transport.NewUDPClientSession(udp.Addr(), ids[c%len(ids)], 2)
				if err != nil {
					return
				}
				var rb transport.RecvBatch
				for i := 0; i < 10; i++ {
					cl.RecvBatch(&rb, 10*time.Millisecond)
				}
				rb.Free()
				if c%2 == 0 {
					cl.Close() // clean leave
				} else {
					cl.Resubscribe() // flap: rejoin, then vanish without UNSUB
					cl.Close()
				}
			}(c)
		}
		// Session churn concurrent with the subscriber flapping.
		for i, id := range ids {
			if i%2 == 0 {
				if err := svc.Remove(id); err != nil {
					t.Fatal(err)
				}
				if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, id, int64(59+cycle)), 0, 0); err != nil {
					t.Fatalf("cycle %d: re-add after remove: %v", cycle, err)
				}
			}
		}
		wg.Wait()

		svc.Drain()
		if _, err := svc.AddDataPhased(data, sessionConfig(proto.CodecCauchy, 99, int64(59+cycle)), 0, 0); !errors.Is(err, ErrDraining) {
			t.Fatalf("cycle %d: admission during drain: %v", cycle, err)
		}
		svc.Close()
		udp.Close()
	}

	// Leak detectors: everything spawned above must be gone. A couple of
	// runtime-internal goroutines (GC workers, timer scavenger) may have
	// started; allow a small fixed slack, never growth per cycle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines+3 {
		buf := make([]byte, 64<<10)
		t.Fatalf("goroutine leak: %d at start, %d after churn\n%s",
			baseGoroutines, g, buf[:runtime.Stack(buf, true)])
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > base.HeapAlloc+32<<20 {
		t.Fatalf("heap leak: %d bytes at start, %d after churn", base.HeapAlloc, after.HeapAlloc)
	}
}
