package proto

import (
	"bytes"
	"testing"
)

// FuzzParsePacket: ParseHeader must never panic, must reject anything
// shorter than a header, and parse→marshal must reproduce the input
// header bytes exactly (the parser is a bijection on its accept set).
// The integrity layer rides the same corpus: VerifyPacket/ParsePacket must
// never panic, anything they accept must re-tag to identical bytes, a
// freshly tagged body must always verify, and flipping any byte of a
// tagged packet must fail verification (CRC32 detects all single-byte
// errors).
func FuzzParsePacket(f *testing.F) {
	// Seeds: the canonical prototype header, a wrap-boundary serial, an
	// SP|burst-flagged layered packet, a correctly tagged wire packet, and
	// degenerate inputs.
	f.Add(Header{Index: 1, Serial: 1, Group: 0, Session: 0xDF98}.Marshal(nil))
	f.Add(append(Header{Index: 7, Serial: 0xFFFFFFFF, Group: 3,
		Flags: FlagSP | FlagBurst, Session: 0xCAFE}.Marshal(nil), 0xAB, 0xCD))
	f.Add(AppendTag(append(Header{Index: 3, Serial: 9, Session: 0xDF98}.Marshal(nil),
		1, 2, 3, 4, 5, 6, 7, 8)))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderLen-1))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		h, payload, err := ParseHeader(pkt)
		if len(pkt) < HeaderLen {
			if err != ErrShortPacket {
				t.Fatalf("%d-byte packet: err = %v, want ErrShortPacket", len(pkt), err)
			}
		} else {
			if err != nil {
				t.Fatalf("full-length packet rejected: %v", err)
			}
			if len(payload) != len(pkt)-HeaderLen {
				t.Fatalf("payload %d bytes of %d-byte packet", len(payload), len(pkt))
			}
			if got := h.Marshal(nil); !bytes.Equal(got, pkt[:HeaderLen]) {
				t.Fatalf("parse→append diverges: %x vs %x", got, pkt[:HeaderLen])
			}
		}

		// Integrity trailer: accept set is exactly {AppendTag(body)}.
		if body, err := VerifyPacket(pkt); err == nil {
			if !bytes.Equal(AppendTag(append([]byte(nil), body...)), pkt) {
				t.Fatal("verify→re-tag diverges from input")
			}
			if _, _, err := ParsePacket(pkt); err != nil {
				t.Fatalf("ParsePacket rejects what VerifyPacket accepts: %v", err)
			}
		} else if err != ErrShortPacket && err != ErrBadTag {
			t.Fatalf("VerifyPacket: unexpected error %v", err)
		}
		if len(pkt) < HeaderLen {
			return
		}
		tagged := AppendTag(append([]byte(nil), pkt...))
		body, err := VerifyPacket(tagged)
		if err != nil || !bytes.Equal(body, pkt) {
			t.Fatalf("fresh tag rejected: %v", err)
		}
		// Any single corrupted byte must be caught — probe the first,
		// last, and a content-dependent middle position.
		for _, pos := range []int{0, len(tagged) / 2, len(tagged) - 1} {
			tagged[pos] ^= 0x40
			if _, err := VerifyPacket(tagged); err != ErrBadTag {
				t.Fatalf("flip at %d not detected: %v", pos, err)
			}
			tagged[pos] ^= 0x40
		}
	})
}

// FuzzParseControl throws arbitrary bytes at every control-message parser
// at once: none may panic, truncated inputs must be rejected (not
// misparsed), and any input accepted as a session descriptor or catalog
// must survive a marshal round-trip.
func FuzzParseControl(f *testing.F) {
	// Seeds from the existing control-plane test vectors.
	f.Add(AppendHello(nil))
	f.Add(AppendHelloFor(nil, 0xDF98))
	f.Add(AppendNak(nil, 0xDF99))
	f.Add(AppendCatalogRequest(nil))
	f.Add(SessionInfo{Session: 1, Codec: CodecTornadoA, Layers: 4, K: 100, N: 200,
		PacketLen: 512, FileLen: 50_000, Seed: 1998, BaseRate: 2048, SPInterval: 16, Phase: 33,
		Digest: [32]byte{1, 2, 3, 0xDF, 0x98, 31: 0xFF}}.Append(nil))
	f.Add(AppendCatalog(nil, []SessionInfo{
		{Session: 1, K: 10, N: 20, PacketLen: 16},
		{Session: 2, K: 30, N: 60, PacketLen: 16, InterleaveK: 5, Phase: 7},
	}))
	f.Add([]byte{controlMag0, controlMag1})
	f.Add(AppendStatsRequest(nil))
	f.Add(StatsSnapshot{Sessions: 1, Shards: 2, PacketsSent: 3,
		Draining: 1, Subscribers: 4, TxPackets: 5}.Append(nil))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if s, err := ParseSessionInfo(buf); err == nil {
			if len(buf) < sessionInfoLen {
				t.Fatalf("truncated session info accepted (%d bytes)", len(buf))
			}
			if !bytes.Equal(s.Append(nil), buf[:sessionInfoLen]) {
				t.Fatal("session info parse→append diverges")
			}
		}
		if infos, err := ParseCatalog(buf); err == nil {
			if len(buf) < 5+len(infos)*sessionInfoLen {
				t.Fatalf("catalog of %d entries accepted from %d bytes", len(infos), len(buf))
			}
			round, err := ParseCatalog(AppendCatalog(nil, infos))
			if err != nil && len(infos) <= MaxCatalogEntries {
				t.Fatalf("catalog re-marshal rejected: %v", err)
			}
			if err == nil && len(round) != len(infos) {
				t.Fatalf("catalog round-trip %d → %d entries", len(infos), len(round))
			}
		}
		if id, specific, ok := HelloSession(buf); ok {
			if !IsHello(buf) {
				t.Fatal("HelloSession accepted what IsHello rejects")
			}
			if specific && len(buf) < 5 {
				t.Fatalf("specific hello for %#x from %d bytes", id, len(buf))
			}
		}
		if _, ok := ParseNak(buf); ok && len(buf) < 5 {
			t.Fatal("truncated NAK accepted")
		}
		if s, err := ParseStats(buf); err == nil {
			if len(buf) < statsLen {
				t.Fatalf("truncated stats accepted (%d bytes)", len(buf))
			}
			if !bytes.Equal(s.Append(nil), buf[:statsLen]) {
				t.Fatal("stats parse→append diverges")
			}
		}
		IsCatalogRequest(buf) // must simply not panic
		IsStatsRequest(buf)   // must simply not panic
	})
}
