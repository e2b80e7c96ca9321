package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/proto"
)

// wireHashes pins, per codec id, the SHA-256 of the first 2k+50 wire
// packets a fresh carousel emits for a fixed file and seed. Emission order,
// headers, payloads and integrity tags are all inside the hash, so a change
// to any encoder that moves one byte on the wire fails here. Recorded
// before the encoders moved onto code.RowEncoder.
var wireHashes = map[uint8]string{
	proto.CodecTornadoA:    "9954e2cd33d08d48a85e25ffc743b35df9a03c3e04f48791c227c216d5d77438",
	proto.CodecTornadoB:    "9954e2cd33d08d48a85e25ffc743b35df9a03c3e04f48791c227c216d5d77438",
	proto.CodecCauchy:      "905a25a9c6a2ab6b87127d573f593c05a843a088d5133abdfc764237e6995923",
	proto.CodecInterleaved: "d041b30177d23b77dd7a1530179318cd75e418246d3cec2e595dd6ddb4728361",
	proto.CodecLT:          "f1e1cf1b449cb692e6b406c10be364076bf7d713f8c6b097437367c7c511ff94",
	proto.CodecRaptor:      "69e2cdc88689a007f2d55ea0a1026a796ac36fcf642ee4c52bc33117a5b1a61c",
}

// TestWireHashes: every codec's wire stream equals the recorded one, both
// from an eager session and through a table the budget keeps partial (the
// carousel wraps past n, so the rows it refused are encoded again).
func TestWireHashes(t *testing.T) {
	data := randData(rand.New(rand.NewSource(1998)), 64*100-7)
	for _, id := range servedIDs() {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 64
		cfg.SPInterval = 4
		for _, cache := range []*BlockCache{nil, NewBlockCache(2 << 10)} {
			sess, err := NewSessionCached(data, cfg, cache)
			if err != nil {
				t.Fatalf("codec %d: %v", id, err)
			}
			want := 2*sess.Codec().K() + 50
			h := sha256.New()
			car := NewCarousel(sess)
			for got := 0; got < want; {
				err := car.NextRoundTo(emitFunc(func(layer int, pkt []byte) error {
					if got < want {
						h.Write([]byte{byte(layer)})
						h.Write(pkt)
						got++
					}
					return nil
				}))
				if err != nil {
					t.Fatalf("codec %d: %v", id, err)
				}
			}
			if coded := uint64(sess.Codec().N() - sess.Codec().K()); cache != nil && sess.Lazy() && !sess.Rateless() &&
				cache.StatsSnapshot().Misses <= coded {
				t.Fatalf("codec %d: the budget never refused a row", id)
			}
			if sum := hex.EncodeToString(h.Sum(nil)); sum != wireHashes[id] {
				t.Errorf("codec %d (cached=%v): wire hash %s, want %s", id, cache != nil, sum, wireHashes[id])
			}
		}
	}
}

// descriptorHash pins the bytes of the session descriptor: one SHA-256 over
// Info().Append(nil) for every codec id × four file sizes × {1, 4} layers
// (the last size with a non-default interleave block), less the ones the
// table now refuses: id 2, reserved since whole-file Vandermonde left the
// wire, and the Cauchy file whose k = 1 563 is past maxBlockK. It was
// recorded on the tree before those refusals, over the same descriptors;
// that tree's hash over all of them (bed6cd7d…0071) was in turn the 107-byte
// descriptors from before the codec table replaced buildCodec's switch,
// with bytes 43..50 (the FNV-64a word) cut from each. The refusing tree's
// own hash (3ac54a6b…6660) is, likewise, its 99-byte descriptors with bytes
// 51..66 (LT's c and δ, raptor's s and maxD) cut from each: rateless codes
// lost those words, and the descriptors are otherwise byte-identical.
const descriptorHash = "86e1c47dd48e50878163b0e138d356d7705599dd7ead6431bd8ef9b75507371b"

// TestDescriptorHash: the descriptor a sender publishes is byte-identical
// to the recorded one for every codec.
func TestDescriptorHash(t *testing.T) {
	h := sha256.New()
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		for si, size := range []int{10, 64 * 300, 20_000, 100_003} {
			for _, layers := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Codec = id
				cfg.PacketLen = 60 // padded to 64
				cfg.Layers = layers
				cfg.Seed = int64(size) + int64(id)
				if si == 3 {
					cfg.InterleaveBlockK = 7
				}
				sess, err := NewSessionCached(randData(rand.New(rand.NewSource(int64(size))), size), cfg, NewBlockCache(1<<20))
				if rowOf(id).build == nil || id == proto.CodecCauchy && size > maxBlockK*64 {
					if err == nil {
						t.Fatalf("codec %d, %d bytes: accepted, want refused", id, size)
					}
					continue
				}
				if err != nil {
					t.Fatalf("codec %d, %d bytes: %v", id, size, err)
				}
				h.Write(sess.Info().Append(nil))
			}
		}
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != descriptorHash {
		t.Errorf("descriptor hash %s, want %s", sum, descriptorHash)
	}
}
