package proto

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	err := quick.Check(func(index, serial uint32, group, flags uint8, session uint16) bool {
		h := Header{Index: index, Serial: serial, Group: group, Flags: flags, Session: session}
		buf := h.Marshal(nil)
		if len(buf) != HeaderLen {
			return false
		}
		got, payload, err := ParseHeader(append(buf, 0xAB, 0xCD))
		if err != nil {
			return false
		}
		return got == h && bytes.Equal(payload, []byte{0xAB, 0xCD})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeaderLenIs12(t *testing.T) {
	// The paper tags packets with exactly 12 bytes (§7.3).
	if HeaderLen != 12 {
		t.Fatalf("HeaderLen = %d, want 12", HeaderLen)
	}
	if got := len(Header{}.Marshal(nil)); got != 12 {
		t.Fatalf("marshalled header is %d bytes, want 12", got)
	}
}

func TestParseHeaderShort(t *testing.T) {
	if _, _, err := ParseHeader(make([]byte, 11)); err != ErrShortPacket {
		t.Fatalf("err = %v, want ErrShortPacket", err)
	}
}

func TestHeaderMarshalAppends(t *testing.T) {
	prefix := []byte{1, 2, 3}
	out := (Header{Index: 7}).Marshal(prefix)
	if len(out) != 3+HeaderLen || !bytes.Equal(out[:3], prefix) {
		t.Fatal("Marshal does not append")
	}
}

func TestSessionInfoRoundTrip(t *testing.T) {
	err := quick.Check(func(session uint16, codec, layers uint8, k, n, pl, rate, spi, phase uint32, fl uint64, digest [32]byte, seed int64) bool {
		s := SessionInfo{
			Session: session, Codec: codec % 5, Layers: layers,
			K: k, N: n, PacketLen: pl, FileLen: fl, Seed: seed,
			BaseRate: rate, SPInterval: spi, Digest: digest,
			InterleaveK: k % 97, Phase: phase,
		}
		got, err := ParseSessionInfo(s.Append(nil))
		return err == nil && got == s
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseSessionInfoErrors(t *testing.T) {
	if _, err := ParseSessionInfo(make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
	good := SessionInfo{}.Append(nil)
	good[0] = 0x00
	if _, err := ParseSessionInfo(good); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestControlRefusesOldLayout: a descriptor in the 99-byte layout that
// carried LT and raptor words at bytes 51..66 parses neither alone nor as a
// catalog entry — read as the new layout, those words would become the
// digest, and the mismatch would surface only after a whole download.
func TestControlRefusesOldLayout(t *testing.T) {
	info := SessionInfo{Session: 3, Codec: CodecRaptor, Layers: 1, K: 400, N: 1<<31 - 1,
		PacketLen: 512, FileLen: 204_800, Seed: 9, Digest: [32]byte{0xAB, 31: 0xCD}}
	cur := info.Append(nil)
	old := slices.Concat(cur[:51], []byte{0, 0, 0x75, 0x30, 0, 0x07, 0xA1, 0x20, 0, 0, 0, 0x2C, 0, 0, 0, 0x28}, cur[51:])
	if len(old) != 99 {
		t.Fatalf("old layout is %d bytes", len(old))
	}
	if _, err := ParseSessionInfo(old); err == nil {
		t.Error("99-byte descriptor parsed")
	}
	if _, err := ParseSessionInfo(append(cur, 0)); err == nil {
		t.Error("descriptor with a trailing byte parsed")
	}
	catalog := append(AppendCatalog(nil, nil)[:3], 0, 1)
	if _, err := ParseCatalog(append(catalog, old...)); err == nil {
		t.Error("catalog of one 99-byte entry parsed")
	}
	if _, err := ParseCatalog(append(catalog, cur...)); err != nil {
		t.Errorf("catalog of one %d-byte entry refused: %v", len(cur), err)
	}
	if _, err := ParseCatalog(append(append(catalog, cur...), 0)); err == nil {
		t.Error("catalog with a trailing byte parsed")
	}
}

func TestHello(t *testing.T) {
	if !IsHello(AppendHello(nil)) {
		t.Fatal("hello does not parse")
	}
	if IsHello([]byte{1, 2}) || IsHello(SessionInfo{}.Append(nil)) {
		t.Fatal("false positive hello")
	}
}

func TestHelloForSession(t *testing.T) {
	bare := AppendHello(nil)
	if id, specific, ok := HelloSession(bare); !ok || specific || id != 0 {
		t.Fatalf("bare hello parsed as (%v, %v, %v)", id, specific, ok)
	}
	h := AppendHelloFor(nil, 0xDF98)
	if !IsHello(h) {
		t.Fatal("hello-for not recognized as hello")
	}
	id, specific, ok := HelloSession(h)
	if !ok || !specific || id != 0xDF98 {
		t.Fatalf("hello-for parsed as (%#x, %v, %v)", id, specific, ok)
	}
	if _, _, ok := HelloSession([]byte("nope")); ok {
		t.Fatal("garbage parsed as hello")
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	req := AppendCatalogRequest(nil)
	if !IsCatalogRequest(req) {
		t.Fatal("request not recognized")
	}
	if IsCatalogRequest(AppendHello(nil)) || IsHello(req) {
		t.Fatal("hello/catalog confusion")
	}
	infos := []SessionInfo{
		{Session: 1, Codec: CodecTornadoA, Layers: 4, K: 100, N: 200, PacketLen: 512,
			FileLen: 50_000, Seed: 1998, BaseRate: 2048, SPInterval: 16, Digest: [32]byte{0xAB}},
		{Session: 2, Codec: CodecInterleaved, Layers: 1, K: 400, N: 800, PacketLen: 512,
			FileLen: 200_000, Seed: -7, BaseRate: 512, SPInterval: 8, Digest: [32]byte{31: 0xCD}, InterleaveK: 50},
	}
	got, err := ParseCatalog(AppendCatalog(nil, infos))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(infos) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range infos {
		if got[i] != infos[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], infos[i])
		}
	}
	if empty, err := ParseCatalog(AppendCatalog(nil, nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty catalog: %v %v", empty, err)
	}
	if _, err := ParseCatalog(AppendCatalog(nil, infos)[:20]); err == nil {
		t.Fatal("truncated catalog parsed")
	}
	if _, err := ParseCatalog([]byte("junk")); err == nil {
		t.Fatal("junk parsed as catalog")
	}
}

func TestCatalogClampedToDatagram(t *testing.T) {
	infos := make([]SessionInfo, MaxCatalogEntries+50)
	for i := range infos {
		infos[i] = SessionInfo{Session: uint16(i), K: 1, N: 2, PacketLen: 16}
	}
	msg := AppendCatalog(nil, infos)
	if len(msg) > 65507 {
		t.Fatalf("catalog datagram %d bytes exceeds UDP payload limit", len(msg))
	}
	got, err := ParseCatalog(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxCatalogEntries {
		t.Fatalf("got %d entries, want clamp at %d", len(got), MaxCatalogEntries)
	}
	if got[0].Session != 0 || got[len(got)-1].Session != uint16(MaxCatalogEntries-1) {
		t.Fatal("clamp did not keep the leading prefix")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := StatsSnapshot{
		Sessions: 3, Shards: 4,
		PacketsSent: 1_000_001, BytesSent: 512_000_512, SendErrors: 7,
		RoundsEmitted: 9999, CatchupRounds: 12, DebtDropped: 2,
		Draining:  1,
		CacheUsed: 1 << 20, CachePeak: 1 << 21, CacheLookups: 5000,
		CacheHits: 4800, CacheMisses: 200,
		Subscribers: 250_000, TxPackets: 1 << 40, TxBytes: 1 << 50,
	}
	buf := want.Append(nil)
	if len(buf) != statsLen {
		t.Fatalf("stats message is %d bytes, want %d", len(buf), statsLen)
	}
	got, err := ParseStats(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, err := ParseStats(buf[:statsLen-1]); err == nil {
		t.Fatal("truncated stats message accepted")
	}
	if _, err := ParseStats(AppendHello(nil)); err == nil {
		t.Fatal("hello parsed as stats message")
	}
}

func TestStatsRequest(t *testing.T) {
	req := AppendStatsRequest(nil)
	if !IsStatsRequest(req) {
		t.Fatal("request does not self-identify")
	}
	if IsStatsRequest(AppendHello(nil)) || IsStatsRequest(AppendCatalogRequest(nil)) {
		t.Fatal("other control messages identified as stats requests")
	}
	if IsHello(req) || IsCatalogRequest(req) {
		t.Fatal("stats request confused with other requests")
	}
	if _, _, ok := HelloSession(req); ok {
		t.Fatal("stats request parsed as hello")
	}
}

func TestNakRoundTrip(t *testing.T) {
	id, ok := ParseNak(AppendNak(nil, 0xDF99))
	if !ok || id != 0xDF99 {
		t.Fatalf("nak parsed as (%#x, %v)", id, ok)
	}
	if _, ok := ParseNak(AppendHello(nil)); ok {
		t.Fatal("hello parsed as nak")
	}
	if _, ok := ParseNak([]byte("x")); ok {
		t.Fatal("garbage parsed as nak")
	}
	if IsHello(AppendNak(nil, 1)) || IsCatalogRequest(AppendNak(nil, 1)) {
		t.Fatal("nak confused with requests")
	}
}
