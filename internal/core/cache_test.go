package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/code"
	"repro/internal/proto"
)

// cachePkt is the charged size of one coded packet of lazySessionForCache.
var cachePkt = int64(PadPacketLen(500))

// countingRows counts EncodeInto calls on a session's row encoder (single
// goroutine only).
type countingRows struct {
	code.RowEncoder
	encodes *int
}

func (c countingRows) EncodeInto(dst []byte, src [][]byte, idx int) {
	*c.encodes++
	c.RowEncoder.EncodeInto(dst, src, idx)
}

// countEncodes makes sess count its EncodeInto calls.
func countEncodes(sess *Session) *int {
	n := new(int)
	sess.rows = countingRows{sess.rows, n}
	return n
}

func lazySessionForCache(t *testing.T, cache *BlockCache, seed int64) (*Session, *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 60_000)
	rng.Read(data)
	cfg := DefaultConfig()
	cfg.Codec = proto.CodecCauchy
	cfg.Layers = 1
	cfg.PacketLen = 500
	cfg.Seed = seed
	lazy, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Lazy() {
		t.Fatal("Cauchy session did not take the lazy path")
	}
	eager, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// TestBlockCacheBudgetUnderConcurrency: with many goroutines hammering
// get/put through Session.Payload on two sessions sharing one cache, the
// charged byte count observable from outside must never exceed the budget
// (eviction runs inside the same critical section as the insert), and the
// recorded peak may overshoot by at most one in-flight packet.
func TestBlockCacheBudgetUnderConcurrency(t *testing.T) {
	capBytes := 32 * cachePkt
	cache := NewBlockCache(capBytes)
	s1, e1 := lazySessionForCache(t, cache, 101)
	s2, e2 := lazySessionForCache(t, cache, 102)

	stop := make(chan struct{})
	violation := make(chan int64, 1)
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if used := cache.Used(); used > capBytes {
				select {
				case violation <- used:
				default:
				}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				sess, eager := s1, e1
				if g%2 == 1 {
					sess, eager = s2, e2
				}
				// Repair region only: the source prefix never touches the
				// cache by design.
				idx := sess.Codec().K() + rng.Intn(sess.Codec().N()-sess.Codec().K())
				if !bytes.Equal(sess.Payload(idx), eager.Payload(idx)) {
					t.Errorf("goroutine %d: lazy payload %d differs from eager", g, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	select {
	case used := <-violation:
		t.Fatalf("cache used %d exceeded budget %d", used, capBytes)
	default:
	}
	if used := cache.Used(); used > capBytes {
		t.Fatalf("final used %d > cap %d", used, capBytes)
	}
	// Peak is recorded before the same-lock eviction, so it may exceed the
	// budget by at most one packet insertion.
	if peak := cache.Peak(); peak > capBytes+cachePkt {
		t.Fatalf("peak %d blew past cap %d + one packet %d", peak, capBytes, cachePkt)
	}
	// Exactly one hit or one miss per lookup, even under concurrency.
	st := cache.StatsSnapshot()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate traffic: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("probe accounting broken: hits %d + misses %d != lookups %d",
			st.Hits, st.Misses, st.Lookups)
	}
}

// TestBlockCacheLookupAndEvictionAccounting: a deterministic probe
// sequence against a three-packet budget where every count is known in
// advance — each Payload on the repair region is exactly one lookup and
// one hit-or-miss, and each insert past the third evicts exactly the
// least recently used packet.
func TestBlockCacheLookupAndEvictionAccounting(t *testing.T) {
	const resident, cycled = 3, 4
	cache := NewBlockCache(resident * cachePkt)
	sess, eager := lazySessionForCache(t, cache, 104)
	k := sess.Codec().K()

	probes := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < cycled; i++ {
			if !bytes.Equal(sess.Payload(k+i), eager.Payload(k+i)) {
				t.Fatalf("packet %d payload mismatch", k+i)
			}
			probes++
		}
	}

	st := cache.StatsSnapshot()
	if st.Lookups != uint64(probes) {
		t.Fatalf("lookups = %d, want one per probe (%d)", st.Lookups, probes)
	}
	// Cycling 4 packets through a 3-packet LRU: every probe misses (the
	// packet touched 4 probes ago was evicted one probe ago), and every
	// insert past the third displaces exactly one packet.
	if st.Misses != uint64(probes) || st.Hits != 0 {
		t.Fatalf("cycling working set should always miss: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if want := uint64(probes - resident); st.Evictions != want || st.EvictedBytes != want*uint64(cachePkt) {
		t.Fatalf("evictions = %d (%d bytes), want %d whole packets", st.Evictions, st.EvictedBytes, want)
	}
	if st.Entries != resident || st.Used != resident*cachePkt {
		t.Fatalf("resident = %d entries / %d bytes, want %d packets", st.Entries, st.Used, resident)
	}

	// An immediate re-touch of the last packet is the one guaranteed hit;
	// the counters must move by exactly (1 lookup, 1 hit, 0 misses).
	sess.Payload(k + cycled - 1)
	st2 := cache.StatsSnapshot()
	if st2.Lookups != st.Lookups+1 || st2.Hits != st.Hits+1 || st2.Misses != st.Misses {
		t.Fatalf("hit accounting: lookups %d→%d hits %d→%d misses %d→%d",
			st.Lookups, st2.Lookups, st.Hits, st2.Hits, st.Misses, st2.Misses)
	}
}

// TestBlockCacheSinglePacketRefill: re-touching an evicted packet encodes
// that one packet again — one EncodeInto, one miss, one packet charged —
// and an immediate second touch hits the refilled entry.
func TestBlockCacheSinglePacketRefill(t *testing.T) {
	cache := NewBlockCache(2 * cachePkt)
	sess, eager := lazySessionForCache(t, cache, 103)
	encodes := countEncodes(sess)
	first := sess.Codec().K() + 5

	sess.Payload(first)
	for i := 1; i <= 2; i++ { // fill the two-packet budget with others
		sess.Payload(first + i)
	}
	before := cache.StatsSnapshot()
	if before.Evictions != 1 || before.Used != 2*cachePkt || *encodes != 3 {
		t.Fatalf("after 3 inserts into 2 packets: %d evictions, %d bytes, %d encodes",
			before.Evictions, before.Used, *encodes)
	}

	if !bytes.Equal(sess.Payload(first), eager.Payload(first)) {
		t.Fatal("post-eviction refill returned wrong payload")
	}
	refill := cache.StatsSnapshot()
	if *encodes != 4 || refill.Misses != before.Misses+1 || refill.Used != 2*cachePkt {
		t.Fatalf("refill: %d encodes, misses %d→%d, used %d; want one packet re-encoded",
			*encodes, before.Misses, refill.Misses, refill.Used)
	}
	if !bytes.Equal(sess.Payload(first), eager.Payload(first)) {
		t.Fatal("refill hit returned wrong payload")
	}
	hit := cache.StatsSnapshot()
	if *encodes != 4 || hit.Misses != refill.Misses || hit.Hits != refill.Hits+1 {
		t.Fatalf("refill entry not hit: hits %d→%d misses %d→%d encodes %d",
			refill.Hits, hit.Hits, refill.Misses, hit.Misses, *encodes)
	}
}

// TestLazyCachePerPacket: a coded packet is the one unit of laziness. Two
// full carousel cycles of a lazy Cauchy session under an ample budget cost
// one miss and one EncodeInto per coded index, all on the first cycle; the
// second is hits only; source packets reach neither the encoder nor the
// cache. Under a budget of a few packets the cache evicts whole packets and
// never holds more than the budget plus the one being inserted.
func TestLazyCachePerPacket(t *testing.T) {
	cache := NewBlockCache(1 << 30)
	sess, eager := lazySessionForCache(t, cache, 105)
	encodes := countEncodes(sess)
	k, n := sess.Codec().K(), sess.Codec().N()
	coded := uint64(n - k)
	cycle := func() {
		t.Helper()
		for round := 0; round < n; round++ {
			for _, idx := range sess.CarouselIndices(0, round) {
				if !bytes.Equal(sess.Payload(idx), eager.Payload(idx)) {
					t.Fatalf("payload %d differs from eager", idx)
				}
			}
		}
	}
	cycle()
	st := cache.StatsSnapshot()
	if st.Lookups != coded || st.Misses != coded || st.Hits != 0 || *encodes != int(coded) {
		t.Fatalf("first cycle: %d lookups, %d misses, %d hits, %d encodes; want %d, %d, 0, %d",
			st.Lookups, st.Misses, st.Hits, *encodes, coded, coded, coded)
	}
	if st.Entries != int(coded) || st.Used != int64(coded)*cachePkt {
		t.Fatalf("resident %d entries / %d bytes, want the %d coded packets only", st.Entries, st.Used, coded)
	}
	cycle()
	st = cache.StatsSnapshot()
	if st.Lookups != 2*coded || st.Misses != coded || st.Hits != coded || *encodes != int(coded) {
		t.Fatalf("second cycle: %d lookups, %d misses, %d hits, %d encodes; want hits only",
			st.Lookups, st.Misses, st.Hits, *encodes)
	}
	if st.Evictions != 0 {
		t.Fatalf("%d evictions under an ample budget", st.Evictions)
	}

	const budget = 5
	small := NewBlockCache(budget*cachePkt + cachePkt/2) // not a whole number of packets
	tight, _ := lazySessionForCache(t, small, 105)
	tightEncodes := countEncodes(tight)
	for pass := 0; pass < 2; pass++ {
		for idx := 0; idx < n; idx++ {
			tight.Payload(idx)
			if used := small.Used(); used > small.Cap() {
				t.Fatalf("used %d > cap %d after an insert", used, small.Cap())
			}
		}
	}
	st = small.StatsSnapshot()
	if st.Hits+st.Misses != st.Lookups || st.Lookups != 2*coded {
		t.Fatalf("hits %d + misses %d != lookups %d (want %d)", st.Hits, st.Misses, st.Lookups, 2*coded)
	}
	if uint64(*tightEncodes) != st.Misses {
		t.Fatalf("%d encodes for %d misses", *tightEncodes, st.Misses)
	}
	if st.Evictions != st.Misses-budget || st.EvictedBytes != st.Evictions*uint64(cachePkt) {
		t.Fatalf("%d evictions / %d bytes for %d misses: not whole packets past the first %d",
			st.Evictions, st.EvictedBytes, st.Misses, budget)
	}
	if st.Used != budget*cachePkt || st.Peak > small.Cap()+cachePkt {
		t.Fatalf("used %d peak %d, want %d resident and peak within cap %d + one packet",
			st.Used, st.Peak, budget*cachePkt, small.Cap())
	}
}
