package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/proto"
)

// cachePkt is the charged size of one coded packet of lazySessionForCache.
var cachePkt = int64(PadPacketLen(500))

// countingRows counts EncodeInto calls on a session's codec (single
// goroutine only).
type countingRows struct {
	code.Codec
	encodes *int
}

func (c countingRows) EncodeInto(dst []byte, cols [][]byte, idx int) {
	*c.encodes++
	c.Codec.EncodeInto(dst, cols, idx)
}

// countEncodes makes sess count its EncodeInto calls.
func countEncodes(sess *Session) *int {
	n := new(int)
	sess.codec = countingRows{sess.codec, n}
	return n
}

// lazySessionForCache builds the same 60 000-byte file twice: lazily
// against cache, and eagerly as the reference.
func lazySessionForCache(t *testing.T, codec uint8, cache *BlockCache, seed int64) (*Session, *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 60_000)
	rng.Read(data)
	cfg := DefaultConfig()
	cfg.Codec = codec
	cfg.Layers = 1
	cfg.PacketLen = 500
	cfg.Seed = seed
	lazy, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Lazy() {
		t.Fatalf("codec %d: session did not take the lazy path", codec)
	}
	eager, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// residentBytes is the ground truth for a table's charge: its kept rows.
func residentBytes(s *Session) int64 {
	var n int64
	for i := range s.table.rows {
		if p := s.table.rows[i].Load(); p != nil {
			n += int64(len(*p))
		}
	}
	return n
}

// TestBlockCacheBudgetUnderConcurrency: with many goroutines touching four
// sessions that share one budget — while another keeps dropping one of
// them — the charged byte count observable from outside never exceeds the
// budget, not even by the packet in flight; no reader ever sees a
// half-written row; and once everyone has stopped, the charge is exactly
// the rows that are resident.
func TestBlockCacheBudgetUnderConcurrency(t *testing.T) {
	capBytes := 32*cachePkt + cachePkt/2
	cache := NewBlockCache(capBytes)
	var lazy, eager [4]*Session
	for i := range lazy {
		lazy[i], eager[i] = lazySessionForCache(t, proto.CodecCauchy, cache, 101+int64(i))
	}

	stop := make(chan struct{})
	violation := make(chan int64, 1)
	var monWG sync.WaitGroup
	monWG.Add(2)
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
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cache.Drop(lazy[0])
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			sess, ref := lazy[g%len(lazy)], eager[g%len(lazy)]
			buf := make([]byte, 0, sess.WireLen())
			for i := 0; i < 400; i++ {
				// Repair region only: the source prefix never touches the
				// budget by design.
				idx := sess.Codec().K() + rng.Intn(sess.Codec().N()-sess.Codec().K())
				if !bytes.Equal(sess.Payload(idx), ref.Payload(idx)) {
					t.Errorf("goroutine %d: lazy payload %d differs from eager", g, idx)
					return
				}
				if !bytes.Equal(sess.AppendPacket(buf, idx, 0, 1, 0), ref.AppendPacket(nil, idx, 0, 1, 0)) {
					t.Errorf("goroutine %d: lazy packet %d differs from eager", g, idx)
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
	var resident int64
	for _, s := range lazy {
		resident += residentBytes(s)
	}
	st := cache.StatsSnapshot()
	if st.Used != resident || st.Used > capBytes || st.Peak > capBytes || st.Peak < st.Used {
		t.Fatalf("used %d, peak %d, cap %d, resident rows %d bytes", st.Used, st.Peak, capBytes, resident)
	}
	// Exactly one hit or one miss per lookup, even under concurrency.
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate traffic: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Lookups != 8*400*2 || st.Hits+st.Misses != st.Lookups {
		t.Fatalf("probe accounting broken: hits %d + misses %d, lookups %d, want %d",
			st.Hits, st.Misses, st.Lookups, 8*400*2)
	}
}

// TestBlockCacheLookupAndEvictionAccounting: a deterministic probe
// sequence against a three-packet budget where every count is known in
// advance — each Payload on the repair region is exactly one lookup and
// one hit-or-miss, and the eviction account is empty: the fourth packet of
// a four-packet cycle is refused, every time, and the three that got there
// first keep hitting.
func TestBlockCacheLookupAndEvictionAccounting(t *testing.T) {
	const resident, cycled, rounds = 3, 4, 3
	cache := NewBlockCache(resident * cachePkt)
	sess, eager := lazySessionForCache(t, proto.CodecCauchy, cache, 104)
	encodes := countEncodes(sess)
	k := sess.Codec().K()

	for round := 0; round < rounds; round++ {
		for i := 0; i < cycled; i++ {
			if !bytes.Equal(sess.Payload(k+i), eager.Payload(k+i)) {
				t.Fatalf("packet %d payload mismatch", k+i)
			}
		}
	}

	st := cache.StatsSnapshot()
	wantMisses := uint64(cycled + (rounds-1)*(cycled-resident))
	wantHits := uint64((rounds - 1) * resident)
	if st.Lookups != rounds*cycled || st.Misses != wantMisses || st.Hits != wantHits || *encodes != int(wantMisses) {
		t.Fatalf("%d lookups, %d misses, %d hits, %d encodes; want %d, %d, %d, one encode per miss",
			st.Lookups, st.Misses, st.Hits, *encodes, rounds*cycled, wantMisses, wantHits)
	}
	if st.Used != resident*cachePkt || st.Peak != st.Used || residentBytes(sess) != st.Used {
		t.Fatalf("used %d peak %d resident %d, want %d packets", st.Used, st.Peak, residentBytes(sess), resident)
	}

	// The refused packet misses again; a resident one moves the counters by
	// exactly (1 lookup, 1 hit, 0 misses).
	sess.Payload(k + cycled - 1)
	sess.Payload(k)
	st2 := cache.StatsSnapshot()
	if st2.Lookups != st.Lookups+2 || st2.Hits != st.Hits+1 || st2.Misses != st.Misses+1 || st2.Used != st.Used {
		t.Fatalf("accounting: lookups %d→%d hits %d→%d misses %d→%d used %d→%d",
			st.Lookups, st2.Lookups, st.Hits, st2.Hits, st.Misses, st2.Misses, st.Used, st2.Used)
	}
}

// TestCyclicScan: a carousel is a cyclic scan of its rows, so whatever the
// budget admitted on the first cycle hits on every later one — an LRU of
// any size short of everything scores zero here. A lazy session, one
// layer, four full cycles through AppendPacket into one reused wire buffer:
// a coded packet is the one unit of laziness (one miss = one EncodeInto),
// source packets reach neither the encoder nor the ledger, charged bytes
// never exceed the budget, neither a hit nor a refused miss allocates, and
// every wire byte equals the eager session's.
func TestCyclicScan(t *testing.T) {
	const cycles = 4
	for _, codec := range []uint8{proto.CodecInterleaved, proto.CodecCauchy} {
		_, eager := lazySessionForCache(t, codec, NewBlockCache(0), 105)
		k, n := eager.Codec().K(), eager.Codec().N()
		coded := n - k
		for _, rows := range []int{0, coded / 2, coded + 7} {
			t.Run(fmt.Sprintf("codec%d/budget%d", codec, rows), func(t *testing.T) {
				// Not a whole number of packets: the half packet is never used.
				cache := NewBlockCache(int64(rows)*cachePkt + cachePkt/2)
				sess, _ := lazySessionForCache(t, codec, cache, 105)
				encodes := countEncodes(sess)
				resident := min(rows, coded)
				buf := make([]byte, 0, sess.WireLen())
				var idxs []int
				for round := 0; round < cycles*n; round++ {
					idxs = sess.AppendCarouselIndices(idxs[:0], 0, round)
					for _, idx := range idxs {
						pkt := sess.AppendPacket(buf, idx, 0, uint32(round), 0)
						if !bytes.Equal(pkt, eager.AppendPacket(nil, idx, 0, uint32(round), 0)) {
							t.Fatalf("round %d: packet %d differs from eager", round, idx)
						}
						if used := cache.Used(); used > cache.Cap() {
							t.Fatalf("round %d: used %d > cap %d", round, used, cache.Cap())
						}
					}
				}
				st := cache.StatsSnapshot()
				wantHits := uint64((cycles - 1) * resident)
				wantMisses := uint64(coded + (cycles-1)*(coded-resident))
				if st.Hits != wantHits || st.Misses != wantMisses || st.Lookups != uint64(cycles*coded) {
					t.Fatalf("hits %d misses %d lookups %d, want %d, %d, %d (%d of %d coded rows resident)",
						st.Hits, st.Misses, st.Lookups, wantHits, wantMisses, cycles*coded, resident, coded)
				}
				if *encodes != int(st.Misses) {
					t.Fatalf("%d encodes for %d misses", *encodes, st.Misses)
				}
				if want := int64(resident) * cachePkt; st.Used != want || st.Peak != want || residentBytes(sess) != want {
					t.Fatalf("used %d peak %d resident %d, want %d", st.Used, st.Peak, residentBytes(sess), want)
				}

				// One resident and one absent coded row, if the budget left any.
				hit, miss := -1, -1
				for idx := 0; idx < n; idx++ {
					switch {
					case sess.codec.SourceOf(idx) >= 0:
					case sess.table.rows[idx].Load() != nil:
						hit = idx
					default:
						miss = idx
					}
				}
				for what, idx := range map[string]int{"a hit": hit, "a miss the budget refuses": miss} {
					if idx < 0 {
						continue
					}
					if a := testing.AllocsPerRun(50, func() { sess.AppendPacket(buf, idx, 0, 1, 0) }); a != 0 {
						t.Errorf("%s allocates %.0f times per packet", what, a)
					}
				}
			})
		}
	}
}

// TestBlockCacheDropRefill: Drop returns a session's rows and charge and
// nobody else's, and leaves the session usable: a dropped row is encoded
// again on its next touch — one EncodeInto, one miss — becomes resident
// again, and hits after that.
func TestBlockCacheDropRefill(t *testing.T) {
	cache := NewBlockCache(1 << 20)
	sess, eager := lazySessionForCache(t, proto.CodecCauchy, cache, 103)
	other, _ := lazySessionForCache(t, proto.CodecCauchy, cache, 106)
	encodes := countEncodes(sess)
	k := sess.Codec().K()
	const touched = 5
	for i := 0; i < touched; i++ {
		sess.Payload(k + i)
		other.Payload(k + i)
	}
	if used := cache.Used(); used != 2*touched*cachePkt || *encodes != touched {
		t.Fatalf("after %d touches each: used %d, %d encodes", touched, used, *encodes)
	}

	NewBlockCache(1 << 20).Drop(sess) // not the budget sess is charged to
	if used := cache.Used(); used != 2*touched*cachePkt {
		t.Fatalf("a foreign Drop released %d bytes", 2*touched*cachePkt-used)
	}
	cache.Drop(sess)
	if used := cache.Used(); used != touched*cachePkt || residentBytes(sess) != 0 || residentBytes(other) != used {
		t.Fatalf("after Drop: used %d, dropped session holds %d, the other %d",
			used, residentBytes(sess), residentBytes(other))
	}

	before := cache.StatsSnapshot()
	for pass := 0; pass < 2; pass++ {
		for idx := 0; idx < k+touched; idx++ { // source rows survive a Drop
			if !bytes.Equal(sess.Payload(idx), eager.Payload(idx)) {
				t.Fatalf("pass %d: payload %d wrong after Drop", pass, idx)
			}
		}
	}
	after := cache.StatsSnapshot()
	if *encodes != 2*touched || after.Misses != before.Misses+touched || after.Hits != before.Hits+touched {
		t.Fatalf("refill: %d encodes, misses %d→%d, hits %d→%d; want %d rows encoded once more, then hit",
			*encodes, before.Misses, after.Misses, before.Hits, after.Hits, touched)
	}
	if after.Used != 2*touched*cachePkt {
		t.Fatalf("used %d after the refill, want %d", after.Used, 2*touched*cachePkt)
	}
	cache.Drop(sess)
	cache.Drop(sess) // idempotent
	cache.Drop(other)
	if used := cache.Used(); used != 0 {
		t.Fatalf("used %d after dropping every session", used)
	}
}

// TestBlockCacheAbandonedSessionReturnsCharge: a session that becomes
// garbage without a Drop — one filled again after Service.Remove, say —
// gives its charge back once it is collected.
func TestBlockCacheAbandonedSessionReturnsCharge(t *testing.T) {
	cache := NewBlockCache(1 << 20)
	func() {
		sess, _ := lazySessionForCache(t, proto.CodecInterleaved, cache, 107)
		for idx := 0; idx < sess.Codec().N(); idx++ {
			sess.Payload(idx)
		}
	}()
	if cache.Used() == 0 {
		t.Fatal("nothing was charged")
	}
	deadline := time.Now().Add(10 * time.Second)
	for cache.Used() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still charged to a collected session", cache.Used())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
