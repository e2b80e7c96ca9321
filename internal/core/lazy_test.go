package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/proto"
	"repro/internal/tornado"
)

func lazyTestConfig(codec uint8) Config {
	cfg := DefaultConfig()
	cfg.Codec = codec
	cfg.Layers = 1
	return cfg
}

// TestLazyMatchesEager: every packet of a lazy session must be byte-identical
// to the eager session's, for every fixed-rate codec. The Tornado file has
// k = 2 500 packets, enough for a cascade: its columns past the source are
// computed, not only its dense tail.
func TestLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		codec uint8
		size  int
	}{
		{proto.CodecCauchy, 60_000},
		{proto.CodecInterleaved, 60_000},
		{proto.CodecTornadoA, 2500 * PadPacketLen(500)},
		{proto.CodecTornadoB, 2500 * PadPacketLen(500)},
	} {
		codec := tc.codec
		data := make([]byte, tc.size)
		rng.Read(data)
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
		if tc, ok := lazy.Codec().(*tornado.Codec); ok && len(tc.Levels()) == 0 {
			t.Fatalf("codec %d: no cascade at k = %d", codec, tc.K())
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
			if !bytes.Equal(lazy.AppendPacket(nil, i, 0, 7, 0), eager.AppendPacket(nil, i, 0, 7, 0)) {
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

// TestLazyTornado: a cached Tornado session is lazy like any other. Its
// cascade values are columns, computed once beside the file, served
// without a lookup and not charged; only its dense tail is looked up and
// kept against the budget, one row at its first touch.
func TestLazyTornado(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	data := make([]byte, 2500*PadPacketLen(500)) // k = 2 500: a cascade of 1 875 values, 625 dense rows
	rng.Read(data)
	cfg := lazyTestConfig(proto.CodecTornadoA)
	cache := NewBlockCache(1 << 30)
	sess, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Lazy() {
		t.Fatal("cached tornado session is not lazy")
	}
	n := sess.Codec().N()
	tc := sess.Codec().(*tornado.Codec)
	_, dense := tc.DenseSize()
	if len(tc.Levels()) == 0 || dense >= n-tc.K() {
		t.Fatalf("no cascade: %d dense rows of %d coded packets", dense, n-tc.K())
	}
	for cycle := range 2 {
		for i := range n {
			sess.Payload(i)
		}
		want := CacheStats{
			Lookups: uint64((cycle + 1) * dense),
			Hits:    uint64(cycle * dense),
			Misses:  uint64(dense),
			Used:    int64(dense * sess.Config().PacketLen),
		}
		want.Peak, want.Cap = want.Used, cache.Cap()
		if got := cache.StatsSnapshot(); got != want {
			t.Fatalf("after cycle %d: %+v, want %+v (only the %d dense rows looked up and charged)", cycle+1, got, want, dense)
		}
	}
	t.Logf("resident: the file (%d packets), %d cascade columns, %d dense rows charged (%d B)",
		tc.K(), len(sess.cols())-tc.K(), dense, cache.Used())
	eager, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sess.Payload(n-1), eager.Payload(n-1)) {
		t.Fatal("last dense-tail packet differs from the eager session's")
	}
}

// TestLazyConcurrentReaders: many goroutines hammering Payload through a
// tiny cache must agree with the eager encoding (run under -race).
func TestLazyConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	data := make([]byte, 40_000)
	rng.Read(data)
	cfg := lazyTestConfig(proto.CodecCauchy)
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
