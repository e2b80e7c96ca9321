package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/proto"
	"repro/internal/raptor"
	"repro/internal/tornado"
)

func randData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSessionRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randData(rng, 50_000)
	for _, codec := range []uint8{proto.CodecTornadoA, proto.CodecTornadoB, proto.CodecVandermonde, proto.CodecCauchy, proto.CodecInterleaved} {
		cfg := DefaultConfig()
		cfg.Codec = codec
		cfg.Layers = 1
		cfg.InterleaveBlockK = 20
		s, err := NewSession(data, cfg)
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		r, err := NewReceiver(s.Info())
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		for round := 0; !r.Done(); round++ {
			for _, idx := range s.CarouselIndices(0, round) {
				if _, err := r.HandleRaw(s.Packet(idx, 0, uint32(round), 0)); err != nil {
					t.Fatalf("codec %d: %v", codec, err)
				}
			}
			if round > 10*s.Codec().N() {
				t.Fatalf("codec %d: never finished", codec)
			}
		}
		got, err := r.File()
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("codec %d: file corrupted", codec)
		}
	}
}

func TestReceiverWithLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randData(rng, 30_000)
	cfg := DefaultConfig()
	cfg.Layers = 1
	s, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReceiver(s.Info())
	round := 0
	for !r.Done() {
		for _, idx := range s.CarouselIndices(0, round) {
			if rng.Float64() < 0.5 { // 50% loss
				continue
			}
			r.HandleRaw(s.Packet(idx, 0, uint32(round), 0))
		}
		round++
		if round > 100*s.Codec().N() {
			t.Fatal("never finished under 50% loss")
		}
	}
	got, err := r.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file corrupted")
	}
	eta, etaC, etaD := r.Efficiency()
	if eta <= 0 || eta > 1 || etaC <= 0 || etaC > 1.01 || etaD <= 0 || etaD > 1 {
		t.Fatalf("implausible efficiencies: %v %v %v", eta, etaC, etaD)
	}
}

func TestLayeredCarouselOneLevelProperty(t *testing.T) {
	// A receiver at a fixed level over one cumulative period must see no
	// duplicate indices (One Level Property at the session level).
	rng := rand.New(rand.NewSource(3))
	data := randData(rng, 64_000)
	cfg := DefaultConfig()
	cfg.Layers = 4
	s, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Codec().N()
	for level := 0; level < 4; level++ {
		seen := make(map[int]bool)
		period := 1 << (3 - level) // CumulativePeriod for g=4
		for round := 0; round < period; round++ {
			for layer := 0; layer <= level; layer++ {
				for _, idx := range s.CarouselIndices(layer, round) {
					if seen[idx] {
						t.Fatalf("level %d: duplicate index %d within one period", level, idx)
					}
					seen[idx] = true
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("level %d: period covers %d of %d packets", level, len(seen), n)
		}
	}
}

func TestSessionRejectsWrongSession(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randData(rng, 5000)
	cfg := DefaultConfig()
	s, _ := NewSession(data, cfg)
	r, _ := NewReceiver(s.Info())
	pkt := s.Packet(0, 0, 0, 0)
	pkt[10] ^= 0xFF // corrupt session id
	if _, err := r.HandleRaw(pkt); err == nil {
		t.Fatal("wrong-session packet accepted")
	}
	if _, err := r.HandleRaw([]byte{1, 2}); err == nil {
		t.Fatal("short packet accepted")
	}
	total, _, _ := r.Stats()
	if total != 0 {
		t.Fatal("rejected packets counted")
	}
}

func TestFileHashVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randData(rng, 5000)
	cfg := DefaultConfig()
	cfg.Layers = 1
	s, _ := NewSession(data, cfg)
	info := s.Info()
	info.Digest[31] ^= 1 // sabotage
	r, _ := NewReceiver(info)
	for round := 0; !r.Done(); round++ {
		for _, idx := range s.CarouselIndices(0, round) {
			r.HandleRaw(s.Packet(idx, 0, uint32(round), 0))
		}
	}
	if _, err := r.File(); err == nil {
		t.Fatal("digest mismatch not detected")
	}
}

func TestSPAndBurstCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig()
	cfg.SPInterval = 4
	s, _ := NewSession(randData(rng, 10000), cfg)
	// Layer 0 SPs every 4 rounds, layer 1 every 8.
	if !s.IsSP(0, 0) || !s.IsSP(0, 4) || s.IsSP(0, 2) {
		t.Fatal("layer 0 SP cadence wrong")
	}
	if !s.IsSP(1, 8) || s.IsSP(1, 4) {
		t.Fatal("layer 1 SP cadence wrong")
	}
	if !s.BurstRound(0, 3) || s.BurstRound(0, 0) {
		t.Fatal("burst cadence wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSession([]byte{1}, Config{Stretch: 1, Layers: 1, PacketLen: 16}); err == nil {
		t.Fatal("stretch 1 accepted")
	}
	if _, err := NewSession([]byte{1}, Config{Stretch: 2, Layers: 0, PacketLen: 16}); err == nil {
		t.Fatal("0 layers accepted")
	}
	if _, err := NewSession([]byte{1}, Config{Stretch: 2, Layers: 1, PacketLen: 16, Codec: 99}); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestPadPacketLen(t *testing.T) {
	if PadPacketLen(500) != 512 || PadPacketLen(512) != 512 || PadPacketLen(1) != 16 {
		t.Fatal("padding wrong")
	}
}

func TestEmptyishFile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layers = 1
	s, err := NewSession([]byte{42}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReceiver(s.Info())
	for round := 0; !r.Done(); round++ {
		for _, idx := range s.CarouselIndices(0, round) {
			r.HandleRaw(s.Packet(idx, 0, 0, 0))
		}
	}
	got, err := r.File()
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("tiny file: %v %v", got, err)
	}
}

// TestReceiverCountsDecodeWork: every codec on the one decode engine counts
// its decode work through the receiver. A receiver of the k source packets
// resolves no column and XORs nothing; one that lost every fifth source
// reports as released each column its one solve resolved: all L columns but
// the sources it held when it analysed.
func TestReceiverCountsDecodeWork(t *testing.T) {
	data := randData(rand.New(rand.NewSource(8)), 64*1200-5) // Tornado A has a cascade level at k = 1200
	for _, id := range []uint8{proto.CodecTornadoA, proto.CodecTornadoB, proto.CodecRaptor} {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 64
		cfg.Layers = 1
		s, err := NewSession(data, cfg)
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		k, l := s.Codec().K(), 0
		switch c := s.Codec().(type) {
		case *tornado.Codec:
			l = k
			for _, n := range c.Levels() {
				l += n
			}
		case *raptor.Codec:
			l = c.Intermediates()
		}
		for _, lossy := range []bool{false, true} {
			r, err := NewReceiver(s.Info())
			if err != nil {
				t.Fatalf("codec %d: %v", id, err)
			}
			held := 0
			for idx := 0; idx < k; idx++ {
				if !lossy || idx%5 != 0 {
					r.HandleRaw(s.Packet(idx, 0, 0, 0))
					held++
				}
			}
			for idx := k; !r.Done() && idx < s.Codec().N(); idx++ {
				r.HandleRaw(s.Packet(idx, 0, 0, 0))
			}
			if _, err := r.File(); err != nil {
				t.Fatalf("codec %d lossy=%v: %v", id, lossy, err)
			}
			want := 0
			if lossy {
				want = l - held
			}
			xors := r.dec.(interface{ XORs() int }).XORs()
			if r.Released() != want || (xors == 0) != !lossy {
				t.Errorf("codec %d lossy=%v: released %d, xors %d; want %d released, xors > 0 iff lossy",
					id, lossy, r.Released(), xors, want)
			}
		}
	}
}
