package client

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/transport"
)

// TestEndToEndSingleLayer runs server -> lossy bus -> client at several
// loss rates and verifies file integrity and efficiency accounting.
func TestEndToEndSingleLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 100_000)
	rng.Read(data)
	for _, p := range []float64{0, 0.2, 0.5} {
		cfg := core.DefaultConfig()
		cfg.Layers = 1
		sess, err := core.NewSession(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bus := transport.NewBus(1)
		eng, err := New(sess.Info(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		bc := bus.NewClient(0, &netsim.Bernoulli{P: p, Rng: netsim.NewRNG(uint64(p * 1000))}, func(layer int, pkt []byte) {
			eng.HandlePacket(pkt)
		})
		defer bc.Close()
		car := core.NewCarousel(sess)
		for steps := 0; !eng.Done(); steps++ {
			if err := car.NextRound(bus.Send); err != nil {
				t.Fatal(err)
			}
			if steps > 50*sess.Codec().N() {
				t.Fatalf("p=%v: never completed", p)
			}
		}
		got, err := eng.File()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("p=%v: corrupted file", p)
		}
		eta, etaC, etaD := eng.Efficiency()
		if p == 0 && (etaD < 0.999 || etaC < 0.85) {
			t.Fatalf("lossless efficiencies too low: ηc=%v ηd=%v", etaC, etaD)
		}
		if eta <= 0 || eta > 1.01 {
			t.Fatalf("p=%v: η=%v out of range", p, eta)
		}
		if p > 0 {
			ml := eng.MeasuredLoss()
			if ml < p-0.1 || ml > p+0.1 {
				t.Fatalf("measured loss %v, injected %v", ml, p)
			}
		}
	}
}

// TestEndToEndLayered exercises the 4-layer protocol with congestion
// control: a lossy client must still complete and stay at a sane level.
func TestEndToEndLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 60_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 4
	cfg.SPInterval = 8
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := transport.NewBus(4)
	var bc *transport.BusClient
	eng, err := New(sess.Info(), 1, func(level int) { bc.SetLevel(level) })
	if err != nil {
		t.Fatal(err)
	}
	bc = bus.NewClient(1, &netsim.Bernoulli{P: 0.1, Rng: netsim.NewRNG(2)}, func(layer int, pkt []byte) {
		eng.HandlePacket(pkt)
	})
	defer bc.Close()
	car := core.NewCarousel(sess)
	for steps := 0; !eng.Done(); steps++ {
		if err := car.NextRound(bus.Send); err != nil {
			t.Fatal(err)
		}
		if steps > 100*sess.Codec().N() {
			t.Fatal("layered client never completed")
		}
	}
	got, err := eng.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted file")
	}
	if lvl := eng.Level(); lvl < 0 || lvl > 3 {
		t.Fatalf("level %d out of range", lvl)
	}
	eta, _, _ := eng.Efficiency()
	if eta <= 0.2 {
		t.Fatalf("layered efficiency suspiciously low: %v", eta)
	}
}

// TestLayeredAdaptsDown: a client subscribed high with heavy loss must
// drop levels.
func TestLayeredAdaptsDown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 40_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 4
	cfg.SPInterval = 4
	sess, _ := core.NewSession(data, cfg)
	bus := transport.NewBus(4)
	var bc *transport.BusClient
	eng, _ := New(sess.Info(), 3, func(level int) { bc.SetLevel(level) })
	bc = bus.NewClient(3, &netsim.Bernoulli{P: 0.55, Rng: netsim.NewRNG(3)}, func(layer int, pkt []byte) {
		eng.HandlePacket(pkt)
	})
	defer bc.Close()
	car := core.NewCarousel(sess)
	minLevel := 3
	// Keep stepping past completion: the point is the controller's
	// adaptation, which runs on every SP regardless of decode state.
	for steps := 0; steps < 400; steps++ {
		car.NextRound(bus.Send)
		if eng.Level() < minLevel {
			minLevel = eng.Level()
		}
	}
	if minLevel == 3 {
		t.Fatal("controller never dropped under 55% loss")
	}
}

func TestRejectsForeignPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 5_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, _ := core.NewSession(data, cfg)
	eng, _ := New(sess.Info(), 0, nil)
	// A foreign-session packet with a *valid* integrity tag: re-tag after
	// flipping the session id, so it is the session check that must reject.
	pkt := sess.Packet(0, 0, 1, 0)
	pkt[10] ^= 0x55
	pkt = proto.AppendTag(pkt[:len(pkt)-proto.TagLen])
	if _, err := eng.HandlePacket(pkt); err == nil {
		t.Fatal("foreign packet accepted")
	}
	if _, err := eng.HandlePacket([]byte{1}); err == nil {
		t.Fatal("short packet accepted")
	}
	// A corrupted packet (bad tag) is not an error — it is dropped before
	// any accounting and counted per source, like loss on a bad channel.
	bad := sess.Packet(0, 0, 2, 0)
	bad[proto.HeaderLen] ^= 0xFF
	if _, err := eng.HandlePacket(bad); err != nil {
		t.Fatalf("corrupted packet returned error: %v", err)
	}
	if got := eng.SourceStats(0).Corrupt; got != 1 {
		t.Fatalf("Corrupt = %d, want 1", got)
	}
	if total, _, _ := eng.Stats(); total != 0 {
		t.Fatalf("corrupted packet reached the decoder: total=%d", total)
	}
}

// TestLossAccountingWrapAndReorder: whole-download loss measurement must
// survive uint32 serial wraparound (a long-lived carousel) and not corrupt
// the estimate on reordered packets.
func TestLossAccountingWrapAndReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 5_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(eng *Engine, serial uint32) {
		if _, err := eng.HandlePacket(sess.Packet(0, 0, serial, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// Crossing the wrap boundary with one packet lost in the gap:
	// ..fffe, ..ffff, then 2 (0 and 1 were lost... no: ffff -> 2 skips 0
	// and 1, a gap of 2).
	eng, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(eng, 0xFFFFFFFE)
	feed(eng, 0xFFFFFFFF)
	feed(eng, 2) // wraps: serials 0 and 1 lost
	if got, want := eng.MeasuredLoss(), 2.0/5.0; got != want {
		t.Fatalf("wrap loss = %v, want %v", got, want)
	}

	// A pre-fix client would compute h.Serial > last as false across the
	// wrap and silently miss the gap — worse, a huge spurious gap appears
	// when serials are compared the other way. Reordering: late arrival of
	// a previously-counted-lost packet must refund exactly one loss.
	eng2, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(eng2, 1)
	feed(eng2, 4) // 2 and 3 presumed lost
	if got := eng2.MeasuredLoss(); got != 2.0/4.0 {
		t.Fatalf("gap loss = %v, want 0.5", got)
	}
	feed(eng2, 3) // late arrival: refund one
	if got, want := eng2.MeasuredLoss(), 1.0/4.0; got != want {
		t.Fatalf("post-reorder loss = %v, want %v", got, want)
	}
	// Duplicate serial: no change to the loss count.
	feed(eng2, 4)
	if got, want := eng2.MeasuredLoss(), 1.0/5.0; got != want {
		t.Fatalf("post-duplicate loss = %v, want %v", got, want)
	}
	// A duplicated *late* packet must not refund twice: serial 3 was
	// already refunded above, so this one changes only the receive count.
	feed(eng2, 3)
	if got, want := eng2.MeasuredLoss(), 1.0/6.0; got != want {
		t.Fatalf("double-refund guard: loss = %v, want %v", got, want)
	}
	// An old serial that was never counted lost (e.g. a stray from before
	// the first packet) must not refund anything either.
	feed(eng2, 1)
	if got, want := eng2.MeasuredLoss(), 1.0/7.0; got != want {
		t.Fatalf("uncounted-old-serial refund: loss = %v, want %v", got, want)
	}
}

// TestLossWindowDoesNotSaturate: after far more than maxTrackedMissing
// genuine losses, freshly lost serials must still be refundable — the
// window evicts oldest entries instead of refusing new ones.
func TestLossWindowDoesNotSaturate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 5_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(serial uint32) {
		if _, err := eng.HandlePacket(sess.Packet(0, 0, serial, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// 2000 gaps of one serial each: every even serial received, odd lost.
	var serial uint32
	for i := 0; i < 2000; i++ {
		serial += 2
		feed(serial)
	}
	lostBefore := eng.SourceStats(0).Lost
	if lostBefore < 1999 {
		t.Fatalf("expected ~1999 provisional losses, got %d", lostBefore)
	}
	// The most recent odd serial must still be tracked and refundable.
	feed(serial - 1)
	if got := eng.SourceStats(0).Lost; got != lostBefore-1 {
		t.Fatalf("recent loss not refunded after long run: lost=%d want %d", got, lostBefore-1)
	}
	// An ancient one fell out of the window: no refund.
	feed(3)
	if got := eng.SourceStats(0).Lost; got != lostBefore-1 {
		t.Fatalf("ancient serial refunded: lost=%d", got)
	}
}

// TestTwoSourceWrapAndReorderStress is the missing-window refund path
// under multi-source fire: two mirrors whose serial spaces straddle
// ^uint32(0) at different offsets, with interleaved gaps, reordered late
// arrivals, and duplicates on both. Each source's accounting must stay
// fully independent — a refund on one source must never touch the other —
// and the aggregate must be the exact sum.
func TestTwoSourceWrapAndReorderStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 5_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewMultiSource(sess.Info(), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(src int, serial uint32) {
		t.Helper()
		if _, err := eng.HandlePacketFrom(src, sess.Packet(0, 0, serial, 0)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(src, wantRecv, wantLost int) {
		t.Helper()
		st := eng.SourceStats(src)
		if st.Received != wantRecv || st.Lost != wantLost {
			t.Fatalf("source %d: received=%d lost=%d, want %d/%d",
				src, st.Received, st.Lost, wantRecv, wantLost)
		}
	}

	// Source 0 approaches the wrap from 0xFFFFFFF0; source 1 from
	// 0xFFFFFFFA. Interleave their streams: deltas straddle the boundary
	// independently.
	feed(0, 0xFFFFFFF0)
	feed(1, 0xFFFFFFFA)
	feed(0, 0xFFFFFFF3) // gap of 2 on source 0 (F1, F2 lost)
	feed(1, 0xFFFFFFFD) // gap of 2 on source 1 (FB, FC lost)
	check(0, 2, 2)
	check(1, 2, 2)

	// Both wrap, each skipping serials across the boundary.
	feed(0, 2) // F4..FF + 0,1 lost: 14 more on source 0
	feed(1, 1) // FE, FF, 0 lost: 3 more on source 1
	check(0, 3, 16)
	check(1, 3, 5)

	// Late arrivals from before the wrap: refund exactly one loss on the
	// right source only.
	feed(0, 0xFFFFFFF1)
	check(0, 4, 15)
	check(1, 3, 5) // untouched
	feed(1, 0xFFFFFFFF)
	check(0, 4, 15) // untouched
	check(1, 4, 4)

	// A duplicated late packet must not refund twice on its source.
	feed(0, 0xFFFFFFF1)
	check(0, 5, 15)
	// The same serial value on the *other* source was never lost there
	// (it's below source 1's first-seen serial and untracked): no refund.
	feed(1, 0xFFFFFFF1)
	check(1, 5, 4)

	// Same-serial duplicates of the current head: received only.
	feed(0, 2)
	feed(1, 1)
	check(0, 6, 15)
	check(1, 6, 4)

	// Aggregate loss is the exact per-source sum.
	if got, want := eng.MeasuredLoss(), float64(15+4)/float64(15+4+6+6); got != want {
		t.Fatalf("aggregate loss %v, want %v", got, want)
	}
}

// TestWorstSourceGovernsLevel: with two mirrors feeding the 4-layer
// protocol, a clean source must not raise the subscription while the other
// source is losing heavily — the effective level is the minimum across
// per-source controllers, and it must recover once the bad path heals.
func TestWorstSourceGovernsLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 40_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 4
	cfg.SPInterval = 4
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var levels []int
	eng, err := NewMultiSource(sess.Info(), 2, 2, func(l int) { levels = append(levels, l) })
	if err != nil {
		t.Fatal(err)
	}
	if eng.Level() != 2 {
		t.Fatalf("start level %d, want 2", eng.Level())
	}

	// Drive both sources from independent carousels; source 1 loses 60%.
	carA, carB := core.NewCarousel(sess), core.NewCarouselAt(sess, 3)
	lossy := rand.New(rand.NewSource(99))
	for round := 0; round < 200; round++ {
		carA.NextRound(func(layer int, pkt []byte) error {
			if layer <= eng.Level() {
				eng.HandlePacketFrom(0, pkt)
			}
			return nil
		})
		carB.NextRound(func(layer int, pkt []byte) error {
			if layer <= eng.Level() && lossy.Float64() >= 0.6 {
				eng.HandlePacketFrom(1, pkt)
			}
			return nil
		})
	}
	if st := eng.SourceStats(0); st.Loss != 0 {
		t.Fatalf("clean source measured loss %v", st.Loss)
	}
	if st := eng.SourceStats(1); st.Loss < 0.3 {
		t.Fatalf("lossy source measured only %v", st.Loss)
	}
	if eng.Level() >= 2 {
		t.Fatalf("effective level %d did not drop despite 60%% loss on source 1", eng.Level())
	}
	if id, loss := eng.WorstSource(); id != 1 || loss < 0.3 {
		t.Fatalf("worst source (%d, %v), want source 1", id, loss)
	}
	// The clean source's own controller may sit higher: the minimum rule is
	// what gates the subscription.
	if s0 := eng.SourceStats(0).Level; s0 < eng.Level() {
		t.Fatalf("source 0 level %d below effective %d", s0, eng.Level())
	}
	if len(levels) == 0 {
		t.Fatal("setLevel never invoked")
	}

	// Heal source 1: with both paths clean the controller must climb again.
	floor := eng.Level()
	for round := 200; round < 600 && eng.Level() <= floor; round++ {
		carA.NextRound(func(layer int, pkt []byte) error {
			if layer <= eng.Level() {
				eng.HandlePacketFrom(0, pkt)
			}
			return nil
		})
		carB.NextRound(func(layer int, pkt []byte) error {
			if layer <= eng.Level() {
				eng.HandlePacketFrom(1, pkt)
			}
			return nil
		})
	}
	if eng.Level() <= floor {
		t.Fatalf("level stuck at %d after both paths healed", eng.Level())
	}
}

// TestPerSourceDuplicateBookkeeping: two lossless mirrors sending the same
// single-layer carousel in phase — every packet from the second-arriving
// source is a cross-source duplicate and must be charged to that source,
// while both sources' Received counts stay honest.
func TestPerSourceDuplicateBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 20_000)
	rng.Read(data)
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	sess, err := core.NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewMultiSource(sess.Info(), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	carA, carB := core.NewCarousel(sess), core.NewCarousel(sess) // same phase!
	for round := 0; !eng.Done(); round++ {
		carA.NextRound(func(_ int, pkt []byte) error {
			eng.HandlePacketFrom(0, pkt)
			return nil
		})
		if eng.Done() {
			break
		}
		carB.NextRound(func(_ int, pkt []byte) error {
			eng.HandlePacketFrom(1, pkt)
			return nil
		})
		if round > 10*sess.Codec().N() {
			t.Fatal("never decoded")
		}
	}
	a, b := eng.SourceStats(0), eng.SourceStats(1)
	if a.Duplicate != 0 {
		t.Fatalf("first source charged %d duplicates", a.Duplicate)
	}
	if b.Distinct != 0 || b.Duplicate != b.Received {
		t.Fatalf("in-phase mirror not all-duplicate: %+v", b)
	}
	if a.Distinct != a.Received {
		t.Fatalf("first source not all-distinct: %+v", a)
	}
	if _, err := eng.File(); err != nil {
		t.Fatal(err)
	}
}
