package core

import (
	"math/rand"
	"testing"

	"repro/internal/proto"
)

// TestPacketIntegrityTag: every emitted packet carries a valid CRC32C
// trailer, the receiver rejects any single corrupted byte with
// proto.ErrBadTag before the decoder sees it, and the corrupted packet
// does not move the reception counters.
func TestPacketIntegrityTag(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randData(rng, 20_000)
	cfg := DefaultConfig()
	cfg.Layers = 1
	s, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(s.Info())
	if err != nil {
		t.Fatal(err)
	}
	pkt := s.Packet(0, 0, 1, 0)
	if len(pkt) != s.WireLen() {
		t.Fatalf("packet %d bytes, WireLen %d", len(pkt), s.WireLen())
	}
	if _, err := proto.VerifyPacket(pkt); err != nil {
		t.Fatalf("fresh packet fails verification: %v", err)
	}
	for _, pos := range []int{0, proto.HeaderLen, len(pkt) / 2, len(pkt) - 1} {
		bad := append([]byte(nil), pkt...)
		bad[pos] ^= 0x01
		if _, err := r.HandleRaw(bad); err != proto.ErrBadTag {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadTag", pos, err)
		}
	}
	if total, _, _ := r.Stats(); total != 0 {
		t.Fatalf("corrupted packets reached the decoder: total = %d", total)
	}
	if _, err := r.HandleRaw(pkt); err != nil {
		t.Fatalf("intact packet rejected: %v", err)
	}
}

// TestCorruptedCatalogDigestRejected: a receiver whose catalog descriptor
// advertises a different SHA-256 digest — a poisoned catalog, or a mirror
// serving different bytes under the same session id — must refuse to hand
// the reassembled file over, even though the decode itself succeeded.
func TestCorruptedCatalogDigestRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := randData(rng, 20_000)
	cfg := DefaultConfig()
	cfg.Layers = 1
	s, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	decodeAll := func(info proto.SessionInfo) *Receiver {
		r, err := NewReceiver(info)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; !r.Done(); round++ {
			for _, idx := range s.CarouselIndices(0, round) {
				if _, err := r.HandleRaw(s.Packet(idx, 0, uint32(round), 0)); err != nil {
					t.Fatal(err)
				}
			}
			if round > 10*s.Codec().N() {
				t.Fatal("decode never finished")
			}
		}
		return r
	}

	info := s.Info()
	if info.Digest == ([32]byte{}) {
		t.Fatal("session advertises no digest")
	}
	good := decodeAll(info)
	if _, err := good.File(); err != nil {
		t.Fatalf("honest digest rejected: %v", err)
	}

	info.Digest[7] ^= 0x80 // the catalog lied about the file
	bad := decodeAll(info)
	if _, err := bad.File(); err == nil {
		t.Fatal("file accepted against a corrupted catalog digest")
	}
}

// TestNewReceiverRefusesZeroDigest: SHA-256 is the only end-to-end check, so
// a descriptor without a digest — otherwise exactly what a sender of that
// codec publishes — gets no receiver, for every codec id.
func TestNewReceiverRefusesZeroDigest(t *testing.T) {
	data := randData(rand.New(rand.NewSource(13)), 5000)
	for id := range codecs {
		cfg := DefaultConfig()
		cfg.Codec = uint8(id)
		s, err := NewSession(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		info := s.Info()
		if _, err := NewReceiver(info); err != nil {
			t.Fatalf("%s: published descriptor refused: %v", CodecName(info.Codec), err)
		}
		info.Digest = [32]byte{}
		if _, err := NewReceiver(info); err == nil {
			t.Fatalf("%s: receiver built from a descriptor without a digest", CodecName(info.Codec))
		}
	}
}
