package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestPacketIntegrityTag: every emitted packet is WireLen bytes with a
// valid CRC32C trailer, and any single corrupted byte fails verification
// with proto.ErrBadTag — the check the client engine's intake runs before
// any byte reaches its accounting or the decoder.
func TestPacketIntegrityTag(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randData(rng, 20_000)
	cfg := DefaultConfig()
	cfg.Layers = 1
	s, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := s.AppendPacket(nil, 0, 0, 1, 0)
	if len(pkt) != s.WireLen() {
		t.Fatalf("packet %d bytes, WireLen %d", len(pkt), s.WireLen())
	}
	if _, err := proto.VerifyPacket(pkt); err != nil {
		t.Fatalf("fresh packet fails verification: %v", err)
	}
	for _, pos := range []int{0, proto.HeaderLen, len(pkt) / 2, len(pkt) - 1} {
		bad := append([]byte(nil), pkt...)
		bad[pos] ^= 0x01
		if _, err := proto.VerifyPacket(bad); err != proto.ErrBadTag {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadTag", pos, err)
		}
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
			for _, idx := range s.AppendCarouselIndices(nil, 0, round) {
				if _, err := r.Handle(idx, s.Payload(idx)); err != nil {
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
	for _, id := range servedIDs() {
		cfg := DefaultConfig()
		cfg.Codec = id
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

// TestSessionDigestBesideConstruction: NewSessionCached computes the digest
// on a goroutine of its own while the codec is built and encoded. For every
// codec, eager and cached, on one core and on two, the published digest is
// the file's SHA-256 and a receiver takes the descriptor; every refusal of
// a configuration still comes back as an error; a digest a receiver would
// refuse is refused by the sender too; and no call leaves its goroutine
// behind.
func TestSessionDigestBesideConstruction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(50))
	files := [][]byte{randData(rng, 10), randData(rng, 64<<10)}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		baseline := runtime.NumGoroutine()
		for _, id := range servedIDs() {
			for _, cache := range []*BlockCache{nil, NewBlockCache(1 << 20)} {
				for _, data := range files {
					cfg := DefaultConfig()
					cfg.Codec = id
					s, err := NewSessionCached(data, cfg, cache)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d %s, %d bytes: %v", procs, CodecName(id), len(data), err)
					}
					if got, want := s.Info().Digest, sha256.Sum256(data); got != want {
						t.Fatalf("GOMAXPROCS=%d %s (lazy %v), %d bytes: digest %x, want %x",
							procs, CodecName(id), s.Lazy(), len(data), got, want)
					}
					if _, err := NewReceiver(s.Info()); err != nil {
						t.Fatalf("GOMAXPROCS=%d %s: published descriptor refused: %v", procs, CodecName(id), err)
					}
				}
			}
		}
		t.Run(fmt.Sprintf("refusals-GOMAXPROCS=%d", procs), TestNewSessionRefusesWhatReceiversRefuse)
		func() {
			defer func(d func([]byte) [sha256.Size]byte) { fileDigest = d }(fileDigest)
			fileDigest = func([]byte) [sha256.Size]byte { return [sha256.Size]byte{} }
			for _, id := range servedIDs() {
				_, err := NewSession(files[0], Config{Codec: id, PacketLen: 64, Stretch: 2, Layers: 1})
				if err == nil || !strings.Contains(err.Error(), "digest") {
					t.Errorf("GOMAXPROCS=%d %s: zero digest published (err %v)", procs, CodecName(id), err)
				}
			}
		}()
		// A goroutine not joined is blocked on its send for good.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after the sessions, %d before", procs, runtime.NumGoroutine(), baseline)
			}
		}
	}
}
