package proto

import (
	"bytes"
	"math/rand"
	"testing"
)

// randInfo draws an arbitrary descriptor so the encoders are exercised
// across the whole field space, not just handpicked values.
func randInfo(rng *rand.Rand) SessionInfo {
	var digest [32]byte
	rng.Read(digest[:])
	return SessionInfo{
		Session:     uint16(rng.Uint32()),
		Codec:       uint8(rng.Intn(7)),
		Layers:      uint8(1 + rng.Intn(16)),
		K:           rng.Uint32(),
		N:           rng.Uint32(),
		PacketLen:   rng.Uint32(),
		FileLen:     rng.Uint64(),
		Seed:        rng.Int63() - rng.Int63(),
		BaseRate:    rng.Uint32(),
		SPInterval:  rng.Uint32(),
		InterleaveK: rng.Uint32(),
		Phase:       rng.Uint32(),
		Digest:      digest,
	}
}

// TestAppendAfterPrefix: every Append* encoder, handed a buffer that
// already holds bytes (the pooled-buffer shape), must leave them alone and
// add exactly what it adds to a nil buffer.
func TestAppendAfterPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	check := func(name string, appendFn func(dst []byte) []byte) {
		t.Helper()
		want := appendFn(nil)
		got := appendFn(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%s: append clobbered the prefix", name)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: append-after-prefix %x != append-to-nil %x", name, got[len(prefix):], want)
		}
	}

	check("hello", AppendHello)
	check("catalog-request", AppendCatalogRequest)
	check("stats-request", AppendStatsRequest)
	for trial := 0; trial < 200; trial++ {
		id := uint16(rng.Uint32())
		check("hello-for", func(dst []byte) []byte { return AppendHelloFor(dst, id) })
		check("nak", func(dst []byte) []byte { return AppendNak(dst, id) })
		check("session-info", randInfo(rng).Append)
		check("stats", StatsSnapshot{Sessions: rng.Uint32(), PacketsSent: rng.Uint64(), TxBytes: rng.Uint64()}.Append)
		infos := make([]SessionInfo, rng.Intn(5))
		for i := range infos {
			infos[i] = randInfo(rng)
		}
		check("catalog", func(dst []byte) []byte { return AppendCatalog(dst, infos) })
	}
}

// TestAppendCatalogTruncates: a catalog beyond MaxCatalogEntries is cut to
// the first entries, and what is left parses.
func TestAppendCatalogTruncates(t *testing.T) {
	infos := make([]SessionInfo, MaxCatalogEntries+7)
	for i := range infos {
		infos[i] = SessionInfo{Session: uint16(i), K: 1, N: 2, PacketLen: 16}
	}
	parsed, err := ParseCatalog(AppendCatalog(nil, infos))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != MaxCatalogEntries {
		t.Fatalf("parsed %d entries, want %d", len(parsed), MaxCatalogEntries)
	}
}

// TestAppendNoAlloc: appending into a buffer with capacity must not
// allocate — this is the property the zero-copy control path leans on.
func TestAppendNoAlloc(t *testing.T) {
	info := SessionInfo{Session: 7, Codec: CodecTornadoA, Layers: 4, K: 100,
		N: 200, PacketLen: 512, FileLen: 50_000, Seed: 1998, Digest: [32]byte{0xAB}}
	buf := make([]byte, 0, 4*sessionInfoLen)
	allocs := testing.AllocsPerRun(100, func() {
		buf = info.Append(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("SessionInfo.Append allocates %.1f times per call", allocs)
	}
	h := Header{Index: 1, Serial: 2, Group: 3, Session: 4}
	allocs = testing.AllocsPerRun(100, func() {
		buf = h.Marshal(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Header.Marshal into capacity allocates %.1f times per call", allocs)
	}
}
