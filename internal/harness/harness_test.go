package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
)

func testData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func singleLayerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Layers = 1
	cfg.Session = 0x5001
	cfg.Seed = 42
	return cfg
}

// mirrorLoss builds a per-(receiver, mirror) Bernoulli loss process whose
// randomness is derived only from (seed, receiver, mirror) — the same
// mirror feed gets the identical loss sequence whether it runs inside a
// multi-source testbed or alone, which is what makes the speedup
// comparison below apples-to-apples.
func mirrorLoss(seed int64, rcv int, rates []float64) func(mirror int) netsim.LossProcess {
	return func(mirror int) netsim.LossProcess {
		return &netsim.Bernoulli{P: rates[mirror], Rng: netsim.ReceiverRNG(seed, rcv*64+mirror)}
	}
}

// TestMultiSourceBeatsSingleMirror is the acceptance scenario: a client
// harvesting from 3 staggered mirrors under 10-20% injected loss must
// decode the file in measurably fewer carousel rounds than it needs from
// any one of those mirrors alone (same loss processes, same seeds). The
// whole round-trip — service registry, control descriptor with phase,
// carousel, bus, source-aware client, decoder — runs on the virtual clock:
// no sockets, no sleeps, deterministic.
func TestMultiSourceBeatsSingleMirror(t *testing.T) {
	data := testData(7, 120_000)
	lossRates := []float64{0.10, 0.15, 0.20} // every path ≥10% loss
	const seed = 900

	run := func(mirrors int, pick int) int {
		t.Helper()
		cfg := Config{Data: data, Session: singleLayerConfig(), Rate: 100}
		mk := mirrorLoss(seed, 0, lossRates)
		if mirrors == 1 {
			cfg.Mirrors = 1
			cfg.Phases = []int{0}
		} else {
			cfg.Mirrors = mirrors
		}
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		r, err := tb.AddReceiver(0, func(mirror, layer int) netsim.LossProcess {
			if mirrors == 1 {
				return mk(pick) // the lone mirror gets mirror `pick`'s path
			}
			return mk(mirror)
		})
		if err != nil {
			t.Fatal(err)
		}
		n := tb.sess.Codec().N()
		if _, err := tb.Run(40 * n); err != nil {
			t.Fatal(err)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if !r.Done() {
			t.Fatalf("mirrors=%d pick=%d: never decoded", mirrors, pick)
		}
		got, err := r.File()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mirrors=%d pick=%d: corrupted file", mirrors, pick)
		}
		return r.RoundsToDecode()
	}

	multi := run(3, -1)
	bestSingle := -1
	for m := range lossRates {
		single := run(1, m)
		t.Logf("single mirror %d (%.0f%% loss): %d rounds", m, 100*lossRates[m], single)
		if bestSingle < 0 || single < bestSingle {
			bestSingle = single
		}
	}
	t.Logf("3 staggered mirrors: %d rounds (best single %d)", multi, bestSingle)
	if multi*2 > bestSingle {
		t.Fatalf("multi-source %d rounds not measurably better than best single mirror %d", multi, bestSingle)
	}
}

// TestHarnessDeterministic: the fixed-seed testbed must be bit-reproducible
// — identical rounds-to-decode, packet counts, and per-source accounting on
// every run. This is the property every future scenario test builds on.
func TestHarnessDeterministic(t *testing.T) {
	data := testData(11, 60_000)
	type outcome struct {
		rounds  int
		eta     float64
		sources []int
		stats   []string
	}
	once := func() outcome {
		t.Helper()
		tb, err := New(Config{Mirrors: 3, Data: data, Session: singleLayerConfig(), Rate: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		mk := mirrorLoss(77, 0, []float64{0.12, 0.12, 0.12})
		r, err := tb.AddReceiver(0, func(mirror, layer int) netsim.LossProcess { return mk(mirror) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Run(40 * tb.sess.Codec().N()); err != nil {
			t.Fatal(err)
		}
		if !r.Done() || r.Err() != nil {
			t.Fatalf("did not decode: %v", r.Err())
		}
		o := outcome{rounds: r.RoundsToDecode(), sources: r.Engine.Sources()}
		o.eta, _, _ = r.Engine.Efficiency()
		for _, id := range o.sources {
			o.stats = append(o.stats, fmt.Sprintf("%+v", r.Engine.SourceStats(id)))
		}
		return o
	}
	a, b := once(), once()
	if a.rounds != b.rounds || a.eta != b.eta {
		t.Fatalf("runs diverged: %d/%v vs %d/%v", a.rounds, a.eta, b.rounds, b.eta)
	}
	for i := range a.stats {
		if a.stats[i] != b.stats[i] {
			t.Fatalf("source %d stats diverged:\n%s\n%s", a.sources[i], a.stats[i], b.stats[i])
		}
	}
	if len(a.sources) != 3 {
		t.Fatalf("sources = %v, want 3", a.sources)
	}
}

// TestPhasesAdvertisedAndStaggered: the control path must carry each
// mirror's phase (HELLO answer via the service registry), the default
// stagger must spread mirrors across one carousel cycle, and the phases
// must actually shift the carousels.
func TestPhasesAdvertisedAndStaggered(t *testing.T) {
	data := testData(13, 40_000)
	tb, err := New(Config{Mirrors: 3, Data: data, Session: singleLayerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cycle := CyclePeriod(tb.sess)
	seen := map[uint32]bool{}
	for i, m := range tb.Mirrors {
		want := uint32(cycle * i / 3)
		if m.Info.Phase != want {
			t.Fatalf("mirror %d advertises phase %d, want %d", i, m.Info.Phase, want)
		}
		if got := m.Carousel.Phase(); got != int(want) {
			t.Fatalf("mirror %d carousel phase %d, want %d", i, got, want)
		}
		if seen[m.Info.Phase] {
			t.Fatalf("duplicate phase %d", m.Info.Phase)
		}
		seen[m.Info.Phase] = true
		if m.Info.Session != tb.sess.Config().Session {
			t.Fatalf("mirror %d advertises session %#x", i, m.Info.Session)
		}
	}
	// Phase staggering is the §8 duplicate-minimizer: a lossless receiver
	// must see zero cross-mirror duplicates until the carousels wrap into
	// each other's start positions.
	r, err := tb.AddReceiver(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := cycle / 3 // rounds until mirror 0 reaches mirror 1's phase
	if _, err := tb.Run(probe - 1); err != nil {
		t.Fatal(err)
	}
	dup := 0
	for _, id := range r.Engine.Sources() {
		dup += r.Engine.SourceStats(id).Duplicate
	}
	if dup != 0 {
		t.Fatalf("%d duplicates before the staggered carousels overlapped", dup)
	}
}

// TestSoakGilbertElliott is the end-to-end soak of the harness: 3 mirrors,
// 8 receivers, bursty Gilbert-Elliott loss (mean ≈12%) injected per
// (receiver, mirror, layer) on the 4-layer protocol. Every receiver must
// reconstruct its file bit-exactly and keep the duplicate-efficiency ηd
// and reception efficiency η within bounds. Runs under -race in CI like
// every other test; the harness itself is single-threaded and
// deterministic.
func TestSoakGilbertElliott(t *testing.T) {
	data := testData(17, 90_000)
	cfg := core.DefaultConfig()
	cfg.Layers = 4
	cfg.SPInterval = 8
	cfg.Session = 0x5002
	cfg.Seed = 43
	tb, err := New(Config{Mirrors: 3, Data: data, Session: cfg, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	const receivers = 8
	rs := make([]*Receiver, receivers)
	for i := 0; i < receivers; i++ {
		rcv := i
		rs[i], err = tb.AddReceiver(1, func(mirror, layer int) netsim.LossProcess {
			rng := netsim.ReceiverRNG(3000+int64(rcv), mirror*8+layer)
			return &netsim.GilbertElliott{
				PGB: 0.05, PBG: 0.25, LossGood: 0.05, LossBad: 0.55, Rng: rng,
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ge := &netsim.GilbertElliott{PGB: 0.05, PBG: 0.25, LossGood: 0.05, LossBad: 0.55}
	if mean := ge.MeanLoss(); mean < 0.10 || mean > 0.20 {
		t.Fatalf("soak loss model mean %.3f outside the 10-20%% band", mean)
	}
	if _, err := tb.Run(60 * tb.sess.Codec().N()); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if err := r.Err(); err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		if !r.Done() {
			t.Fatalf("receiver %d never decoded", i)
		}
		got, err := r.File()
		if err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("receiver %d: corrupted file", i)
		}
		eta, _, etaD := r.Engine.Efficiency()
		if eta <= 0.10 || eta > 1.01 {
			t.Fatalf("receiver %d: η=%.3f out of bounds", i, eta)
		}
		if etaD < 0.40 {
			t.Fatalf("receiver %d: duplicate efficiency ηd=%.3f below bound", i, etaD)
		}
		// Per-source bookkeeping must cover all three mirrors and add up
		// to the aggregate the decoder saw.
		total, distinct := 0, 0
		for _, id := range r.Engine.Sources() {
			st := r.Engine.SourceStats(id)
			total += st.Received
			distinct += st.Distinct
		}
		rTotal, rDistinct, _ := r.Engine.Stats()
		if total != rTotal || distinct != rDistinct {
			t.Fatalf("receiver %d: per-source sums (%d, %d) != receiver (%d, %d)",
				i, total, distinct, rTotal, rDistinct)
		}
	}
}

// TestHelloDescriptorDecodes: a receiver built purely from the descriptor
// the mirror's control path returned (not from the session object) must
// decode — proving the HELLO advertisement carries everything needed,
// phase included.
func TestHelloDescriptorDecodes(t *testing.T) {
	data := testData(19, 30_000)
	tb, err := New(Config{Mirrors: 2, Data: data, Session: singleLayerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for i, m := range tb.Mirrors {
		reparsed, err := proto.ParseSessionInfo(m.Info.Append(nil))
		if err != nil {
			t.Fatal(err)
		}
		if reparsed != m.Info {
			t.Fatalf("mirror %d descriptor does not round-trip", i)
		}
	}
	r, err := tb.AddReceiver(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(10 * tb.sess.Codec().N()); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("lossless receiver never decoded")
	}
	got, err := r.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted file")
	}
}
