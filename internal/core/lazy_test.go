package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/proto"
)

func lazyTestConfig(codec uint8) Config {
	cfg := DefaultConfig()
	cfg.Codec = codec
	cfg.Layers = 1
	return cfg
}

// TestLazyMatchesEager: every packet of a lazy session must be byte-identical
// to the eager session's, for every range-encodable codec.
func TestLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]byte, 60_000)
	rng.Read(data)
	for _, codec := range []uint8{proto.CodecCauchy, proto.CodecVandermonde, proto.CodecInterleaved} {
		cfg := lazyTestConfig(codec)
		eager, err := NewSession(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewBlockCache(1 << 30) // effectively unbounded
		lazy, err := NewSessionCached(data, cfg, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !lazy.Lazy() {
			t.Fatalf("codec %d: session not lazy", codec)
		}
		if eager.Lazy() {
			t.Fatal("eager session claims lazy")
		}
		n := eager.Codec().N()
		order := rng.Perm(n)
		for _, i := range order {
			if !bytes.Equal(lazy.Payload(i), eager.Payload(i)) {
				t.Fatalf("codec %d: payload %d differs between lazy and eager", codec, i)
			}
		}
		// Wire packets must agree too (header + payload).
		for _, i := range []int{0, 1, n / 2, n - 1} {
			if !bytes.Equal(lazy.Packet(i, 0, 7, 0), eager.Packet(i, 0, 7, 0)) {
				t.Fatalf("codec %d: packet %d differs", codec, i)
			}
		}
	}
}

// TestLazyCacheBounded: with a cap far below full materialization, walking
// the whole carousel repeatedly must keep the cache's peak within the cap —
// the memory-bounded property the multi-session service relies on — and
// what the cap did admit keeps paying.
func TestLazyCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 120_000)
	rng.Read(data)
	cfg := lazyTestConfig(proto.CodecCauchy)
	cache := NewBlockCache(16 << 10) // 16 KiB; repair region is ~120 KB
	sess, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	n := sess.Codec().N()
	k := sess.Codec().K()
	pktBytes := int64(PadPacketLen(cfg.PacketLen))
	fullRepair := int64(n-k) * pktBytes
	if cache.Cap()+pktBytes >= fullRepair {
		t.Fatalf("test misconfigured: cap %d not clearly below full materialization %d", cache.Cap(), fullRepair)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			sess.Payload(i)
		}
	}
	resident := cache.Cap() / pktBytes
	if used, peak := cache.Used(), cache.Peak(); used != resident*pktBytes || peak != used {
		t.Fatalf("cache use %d, peak %d; want the %d packets that fit cap %d", used, peak, resident, cache.Cap())
	}
	// A sequential walk of 3× the working set: the rows that fit on the
	// first pass hit on the other two, the rest are encoded every time.
	want := CacheStats{Hits: uint64(2 * resident), Misses: uint64(3*(n-k)) - uint64(2*resident)}
	if st := cache.StatsSnapshot(); st.Hits != want.Hits || st.Misses != want.Misses {
		t.Fatalf("hits %d misses %d, want %d and %d", st.Hits, st.Misses, want.Hits, want.Misses)
	}
}

// TestLazySourceBytesNotCharged: the systematic prefix aliases the file
// buffer; its packets are neither looked up in the cache nor charged to it.
func TestLazySourceBytesNotCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := make([]byte, 60_000)
	rng.Read(data)
	cfg := lazyTestConfig(proto.CodecCauchy)
	cache := NewBlockCache(1 << 30)
	sess, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	k := sess.Codec().K()
	for i := 0; i < k; i++ {
		sess.Payload(i)
	}
	if st := cache.StatsSnapshot(); st.Used != 0 || st.Lookups != 0 {
		t.Fatalf("source-only touches: %d bytes charged, %d lookups", st.Used, st.Lookups)
	}
}

// TestLazyTornadoFallsBackToEager: Tornado cannot range-encode; a cached
// construction must still work, just eagerly.
func TestLazyTornadoFallsBackToEager(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	data := make([]byte, 30_000)
	rng.Read(data)
	cfg := lazyTestConfig(proto.CodecTornadoA)
	cache := NewBlockCache(1 << 20)
	sess, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Lazy() {
		t.Fatal("tornado session claims lazy encoding")
	}
	if used := cache.Used(); used != 0 {
		t.Fatalf("eager fallback touched the cache: %d bytes", used)
	}
	sess.Payload(sess.Codec().N() - 1) // must not panic
}

// TestLazyConcurrentReaders: many goroutines hammering Payload through a
// tiny cache must agree with the eager encoding (run under -race).
func TestLazyConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	data := make([]byte, 40_000)
	rng.Read(data)
	cfg := lazyTestConfig(proto.CodecVandermonde)
	eager, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBlockCache(8 << 10)
	lazy, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	n := lazy.Codec().N()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				idx := r.Intn(n)
				if !bytes.Equal(lazy.Payload(idx), eager.Payload(idx)) {
					select {
					case errs <- "payload mismatch under concurrency":
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
