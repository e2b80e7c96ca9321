package service

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// batchCapture is a sink that copies every packet (pooled buffers are
// recycled after SendBatch returns) keyed by (session, layer). Its Send
// fails the test: a Service reaches its transport by SendBatch only.
type batchCapture struct {
	t              *testing.T
	mu             sync.Mutex
	seq            map[[2]uint16][][]byte
	packets, bytes uint64
}

func newBatchCapture(t *testing.T) *batchCapture {
	return &batchCapture{t: t, seq: make(map[[2]uint16][][]byte)}
}

func (c *batchCapture) SendBatch(layer int, pkts [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pkt := range pkts {
		h, _, err := proto.ParseHeader(pkt)
		if err != nil {
			return err
		}
		key := [2]uint16{h.Session, uint16(layer)}
		c.seq[key] = append(c.seq[key], append([]byte(nil), pkt...))
		c.packets++
		c.bytes += uint64(len(pkt))
	}
	return nil
}

func (c *batchCapture) minLen(session uint16, layers int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := -1
	for l := 0; l < layers; l++ {
		n := len(c.seq[[2]uint16{session, uint16(l)}])
		if m < 0 || n < m {
			m = n
		}
	}
	return m
}

// TestSchedulerEmissionOrderMatchesCarousel: per (session, layer), the
// service's pooled, batched emission — paced by the scheduler and stepped
// by hand through EmitRound — must be bit-identical to driving the
// session's carousel directly with the per-packet NextRound: same packets,
// same order, SP/burst flags included. Every packet leaves by SendBatch,
// so Stats must equal exactly what SendBatch saw.
func TestSchedulerEmissionOrderMatchesCarousel(t *testing.T) {
	capt := newBatchCapture(t)
	svc := New(capt, Config{BaseRate: 50000, Shards: 3})
	defer svc.Close()

	type ses struct {
		id    uint16
		phase int
		sess  *core.Session
	}
	var sessions []ses
	var manualCar *core.Carousel // the last session is stepped by hand
	for i, phase := range []int{0, 5, 12, 3} {
		id := uint16(0x41 + i)
		cfg := sessionConfig(proto.CodecTornadoA, id, int64(100+i))
		sess, err := core.NewSession(randBytes(int64(i), 15_000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			err = svc.AddPhased(sess, 0, phase)
		} else {
			manualCar, err = svc.AddManual(sess, 0, phase)
		}
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, ses{id, phase, sess})
	}

	const wantPerLayer = 120
	for capt.minLen(manualCar.Session().Config().Session, 4) < wantPerLayer {
		if err := svc.EmitRound(manualCar); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, s := range sessions {
			if capt.minLen(s.id, 4) < wantPerLayer {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler too slow to emit the comparison window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Close()
	if st := svc.Stats(); st.PacketsSent != capt.packets || st.BytesSent != capt.bytes {
		t.Fatalf("Stats count %d packets / %d bytes, SendBatch saw %d / %d",
			st.PacketsSent, st.BytesSent, capt.packets, capt.bytes)
	}

	for _, s := range sessions {
		// Reference: the carousel's own emission, packet-at-a-time.
		ref := make(map[int][][]byte)
		car := core.NewCarouselAt(s.sess, s.phase)
		for rounds := 0; rounds < 4*wantPerLayer; rounds++ {
			err := car.NextRound(func(layer int, pkt []byte) error {
				ref[layer] = append(ref[layer], append([]byte(nil), pkt...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for layer := 0; layer < 4; layer++ {
			got := capt.seq[[2]uint16{s.id, uint16(layer)}]
			if len(got) < wantPerLayer {
				t.Fatalf("session %#x layer %d captured only %d packets", s.id, layer, len(got))
			}
			for i := 0; i < len(got) && i < len(ref[layer]); i++ {
				if !bytes.Equal(got[i], ref[layer][i]) {
					t.Fatalf("session %#x layer %d packet %d diverges from the carousel oracle",
						s.id, layer, i)
				}
			}
		}
	}
}

// nullBatchSink counts packets without retaining or allocating.
type nullBatchSink struct{ packets atomic.Uint64 }

func (n *nullBatchSink) SendBatch(layer int, pkts [][]byte) error {
	n.packets.Add(uint64(len(pkts)))
	return nil
}

// TestConcurrentAddRemoveStats hammers the registry from many goroutines
// while the scheduler is emitting (run under -race in CI): concurrent
// Add/Remove/Stats/Lookup/Catalog must stay consistent, every Remove must
// win against in-flight emission, and Close must join all shard workers —
// observed as the packet counter freezing afterwards.
func TestConcurrentAddRemoveStats(t *testing.T) {
	sink := &nullBatchSink{}
	svc := New(sink, Config{BaseRate: 100000, Shards: 4})

	// A stable base session so emission never goes idle.
	baseCfg := sessionConfig(proto.CodecTornadoA, 0x1000, 1)
	base, err := core.NewSession(randBytes(1, 10_000), baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Add(base, 0); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			id := uint16(0x2000 + w)
			cfg := sessionConfig(proto.CodecTornadoA, id, int64(w+2))
			sess, err := core.NewSession(randBytes(int64(w+2), 8_000), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			registered := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					if !registered {
						if err := svc.Add(sess, 1+rng.Intn(100000)); err != nil {
							t.Errorf("worker %d add: %v", w, err)
							return
						}
						registered = true
					}
				case 1:
					if registered {
						if err := svc.Remove(id); err != nil {
							t.Errorf("worker %d remove: %v", w, err)
							return
						}
						registered = false
					}
				case 2:
					st := svc.Stats()
					if st.Sessions < 1 || st.Shards != 4 {
						t.Errorf("stats inconsistent: %+v", st)
						return
					}
				case 3:
					svc.Lookup(id)
					svc.Catalog()
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if svc.Stats().PacketsSent == 0 {
		t.Fatal("scheduler never emitted under churn")
	}

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not join the shard workers")
	}
	after := sink.packets.Load()
	time.Sleep(50 * time.Millisecond)
	if got := sink.packets.Load(); got != after {
		t.Fatalf("emission continued after Close: %d -> %d", after, got)
	}
}

// TestRemoveStopsEmissionPromptly: after Remove returns, not one more
// packet of that session may reach the transport.
func TestRemoveStopsEmissionPromptly(t *testing.T) {
	capt := newBatchCapture(t)
	svc := New(capt, Config{BaseRate: 100000, Shards: 2})
	defer svc.Close()
	cfg := sessionConfig(proto.CodecTornadoA, 0x77, 7)
	sess, err := core.NewSession(randBytes(7, 10_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Add(sess, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for capt.minLen(0x77, 1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never emitted")
		}
	}
	if err := svc.Remove(0x77); err != nil {
		t.Fatal(err)
	}
	n := capt.minLen(0x77, 4)
	time.Sleep(50 * time.Millisecond)
	if got := capt.minLen(0x77, 4); got != n {
		t.Fatalf("emission continued after Remove: %d -> %d packets", n, got)
	}
}

// TestEmitRoundZeroAlloc: steady-state emission through the pooled, batched
// path must not allocate — the property the sender benchmark suite gates in
// CI — for an eagerly encoded session and for the rateless codecs, whose
// coded packets are encoded per emission straight into the pooled buffer
// (raptor starts past its systematic prefix, so every packet is a repair).
func TestEmitRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool instrumentation allocates; the sender bench gates this without -race")
	}
	for _, tc := range []struct {
		name  string
		codec uint8
		phase int
	}{
		{"tornado-a", proto.CodecTornadoA, 0},
		{"raptor-repair", proto.CodecRaptor, 100},
		{"lt", proto.CodecLT, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(&nullBatchSink{}, Config{})
			defer svc.Close()
			sess, err := core.NewSession(randBytes(8, 30_000), sessionConfig(tc.codec, 0x88, 8))
			if err != nil {
				t.Fatal(err)
			}
			car, err := svc.AddManual(sess, 0, tc.phase)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the pool, the scratch slices and the carousel index buffer.
			for i := 0; i < 64; i++ {
				if err := svc.EmitRound(car); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := svc.EmitRound(car); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("steady-state EmitRound allocates %.2f times per round", allocs)
			}
		})
	}
}

// TestSchedulerPacing: a session registered at a modest rate must emit at
// roughly that rate, not at shard saturation speed — the heap deadline is
// real pacing, not a busy loop.
func TestSchedulerPacing(t *testing.T) {
	sink := &nullBatchSink{}
	svc := New(sink, Config{Shards: 2})
	defer svc.Close()
	cfg := sessionConfig(proto.CodecTornadoA, 0x99, 9)
	cfg.Layers = 1
	sess, err := core.NewSession(randBytes(9, 5_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 500 // single layer: one packet per round
	if err := svc.Add(sess, rate); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	got := svc.Stats().PacketsSent
	// 400 ms at 500 pps ≈ 200 packets; generous CI margins either way.
	if got < 50 || got > 800 {
		t.Fatalf("paced session emitted %d packets in 400ms at %d pps", got, rate)
	}
}

// TestManySessionsOneSchedulerGoroutineCount: registering hundreds of
// sessions must not add goroutines — the whole point of the shared
// scheduler. We observe it through the public surface: shard count stays
// fixed while sessions scale, and all sessions make progress.
func TestManySessionsShareShards(t *testing.T) {
	capt := newBatchCapture(t)
	svc := New(capt, Config{BaseRate: 20000, Shards: 2})
	defer svc.Close()
	const n = 100
	for i := 0; i < n; i++ {
		cfg := sessionConfig(proto.CodecTornadoA, uint16(0x3000+i), int64(i))
		cfg.Layers = 1
		sess, err := core.NewSession(randBytes(int64(i), 2_000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Add(sess, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Sessions != n || st.Shards != 2 {
		t.Fatalf("stats = %+v, want %d sessions on 2 shards", svc.Stats(), n)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		stalled := 0
		for i := 0; i < n; i++ {
			if capt.minLen(uint16(0x3000+i), 1) < 3 {
				stalled++
			}
		}
		if stalled == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions made no progress", stalled, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// paceSink records the size of every batch it is handed, retains nothing,
// and can block one SendBatch — a stalled transport — on request.
type paceSink struct {
	mu      sync.Mutex
	sizes   []int         // packets of each SendBatch, in arrival order
	packets int           // their sum
	stall   time.Duration // the next SendBatch blocks this long, once
	stalled int           // index in sizes of the batch that blocked
}

func (p *paceSink) SendBatch(layer int, pkts [][]byte) error {
	p.mu.Lock()
	d := p.stall
	if d > 0 {
		p.stall, p.stalled = 0, len(p.sizes)
	}
	p.sizes = append(p.sizes, len(pkts))
	p.packets += len(pkts)
	p.mu.Unlock()
	time.Sleep(d)
	return nil
}

// batched reports whether some SendBatch carried more than one packet.
func (p *paceSink) batched() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.ContainsFunc(p.sizes, func(n int) bool { return n > 1 })
}

func (p *paceSink) counts() (packets, batches int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.packets, len(p.sizes)
}

// pacedRateless puts one single-layer rateless session — one packet per
// round, the shape the pacer's batching exists for — on a one-shard
// service over sink and waits for its first packet. SPInterval 16 is the
// servers' default: one §7.1.1 burst round per 16, so the wire carries
// 1.0625x the requested base rate.
func pacedRateless(t *testing.T, sink *paceSink, rate int) *Service {
	t.Helper()
	svc := New(sink, Config{Shards: 1})
	t.Cleanup(svc.Close)
	cfg := sessionConfig(proto.CodecLT, 0xA1, 11)
	cfg.Layers, cfg.SPInterval = 1, 16
	if _, err := svc.AddData(randBytes(11, 100_000), cfg, rate); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, _ := sink.counts(); n > 0 {
			return svc
		}
		if time.Now().After(deadline) {
			t.Fatal("session never emitted")
		}
		time.Sleep(time.Millisecond)
	}
}

// measureRate returns the sink's packet rate and mean batch size over the
// next d of wall time.
func measureRate(sink *paceSink, d time.Duration) (pps, perBatch float64) {
	p0, b0 := sink.counts()
	t0 := time.Now()
	time.Sleep(d)
	p1, b1 := sink.counts()
	return float64(p1-p0) / time.Since(t0).Seconds(), float64(p1-p0) / float64(max(1, b1-b0))
}

// TestSchedulerReachesRate: a 20 000 pkts/s session of 1-packet rounds asks
// for a round every 50 µs, far below what a timer wake can honour, so the
// rate is only reachable by emitting every owed round per wake — and those
// rounds must leave as real batches. The parent's 4-rounds-per-pop cap
// delivered 0.25x in batches of exactly one packet.
func TestSchedulerReachesRate(t *testing.T) {
	const rate = 20_000
	sink := &paceSink{}
	pacedRateless(t, sink, rate)
	pps, perBatch := measureRate(sink, 300*time.Millisecond)
	if pps < 0.7*rate || pps > 1.15*rate {
		t.Fatalf("paced session ran at %.0f pkts/s, requested %d", pps, rate)
	}
	if perBatch <= 2 {
		t.Fatalf("mean SendBatch carried %.2f packets: owed rounds are not leaving as batches", perBatch)
	}
}

// TestSchedulerStallDropsDebt: a transport that blocks for 50 ms leaves a
// 20 000 pkts/s session 1 000 rounds behind. The pop that follows may make
// up one burst bound of them — a single batch of maxBurst rounds plus
// their §7.1.1 burst rounds — the rest is dropped and counted, and the
// session is back at its requested rate, not above it repaying the stall.
func TestSchedulerStallDropsDebt(t *testing.T) {
	const rate = 20_000
	sink := &paceSink{}
	svc := pacedRateless(t, sink, rate)
	dropped := svc.Stats().DebtDropped
	sink.mu.Lock()
	sink.stall = 50 * time.Millisecond
	sink.mu.Unlock()

	catchup := 0
	for deadline := time.Now().Add(10 * time.Second); catchup == 0; {
		sink.mu.Lock()
		if sink.stall == 0 && len(sink.sizes) > sink.stalled+1 {
			catchup = sink.sizes[sink.stalled+1]
		}
		sink.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("no batch followed the stalled one")
		}
		time.Sleep(time.Millisecond)
	}
	if catchup < maxBurst || catchup > maxBurst+maxBurst/16+1 {
		t.Fatalf("catch-up after a 50 ms stall was a batch of %d packets, want the burst bound %d (+ burst rounds)",
			catchup, maxBurst)
	}
	if got := svc.Stats().DebtDropped; got <= dropped {
		t.Fatalf("DebtDropped stayed at %d across a stall of 1000 rounds", got)
	}
	if pps, _ := measureRate(sink, 200*time.Millisecond); pps < 0.7*rate || pps > 1.15*rate {
		t.Fatalf("after the stall the session ran at %.0f pkts/s, requested %d", pps, rate)
	}
}

// TestRemoveStopsBatchedEmission is TestRemoveStopsEmissionPromptly for
// the batching pacer: a 1-packet-round session at a rate no shard reaches,
// so every pop is a full multi-round batch, must not leak one packet of a
// batch in progress past Remove's return — the flush happens under the
// lock Remove takes.
func TestRemoveStopsBatchedEmission(t *testing.T) {
	sink := &paceSink{}
	svc := pacedRateless(t, sink, 1<<20)
	// Under load a pop may find only one round owed; wait for a batched one.
	for deadline := time.Now().Add(5 * time.Second); !sink.batched(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no SendBatch carried more than one packet: the session never batched, the test shows nothing")
		}
	}
	if err := svc.Remove(0xA1); err != nil {
		t.Fatal(err)
	}
	n, _ := sink.counts()
	time.Sleep(50 * time.Millisecond)
	if got, _ := sink.counts(); got != n {
		t.Fatalf("emission continued after Remove: %d -> %d packets", n, got)
	}
}
