package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/code"
	"repro/internal/proto"
)

// TestSessionServesCallerBytes: a lazy session's source rows are views of
// the caller's data, not of a copy.
func TestSessionServesCallerBytes(t *testing.T) {
	data := randData(rand.New(rand.NewSource(5)), 64*40)
	for _, id := range []uint8{proto.CodecCauchy, proto.CodecInterleaved, proto.CodecRaptor} {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 64
		s, err := NewSessionCached(data, cfg, NewBlockCache(1<<20))
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		rows := s.Codec().(code.RowEncoder)
		for idx := range s.Codec().K() * 2 {
			if f := rows.SourceOf(idx); f >= 0 && f*64 < len(data) && &s.Payload(idx)[0] != &data[f*64] {
				t.Fatalf("codec %d: source packet %d is a copy of data", id, f)
			}
		}
	}
}

// TestFileSharesDecoderBuffer: for every codec row, after a lossy receive,
// File is the decoder's source buffer trimmed to the file — no copy — and a
// second call allocates nothing.
func TestFileSharesDecoderBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randData(rng, 64*100-7)
	for id := proto.CodecTornadoA; id <= proto.CodecRaptor; id++ {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 64
		cfg.Layers = 1
		s, err := NewSession(data, cfg)
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		r, err := NewReceiver(s.Info())
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		car := NewCarousel(s)
		for round := 0; !r.Done(); round++ {
			if round > 100*s.Codec().K() {
				t.Fatalf("codec %d: never finished", id)
			}
			err := car.NextRound(func(_ int, pkt []byte) error {
				if rng.Float64() >= 0.2 {
					r.HandleRaw(pkt)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("codec %d: %v", id, err)
			}
		}
		file, err := r.File()
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		src, _ := r.dec.Source()
		if len(file) != len(data) || &file[0] != &src[0] {
			t.Fatalf("codec %d: File is not the decoder's buffer", id)
		}
		if allocs := testing.AllocsPerRun(10, func() { r.File() }); allocs != 0 {
			t.Fatalf("codec %d: a second File allocates %.0f times", id, allocs)
		}
	}
}

// TestLosslessFileAllocatesOneCopy: receiving an N-byte file from its
// systematic packets alone, through File, allocates one file-sized buffer
// and change — the decoder's — where a join after decoding made it two.
func TestLosslessFileAllocatesOneCopy(t *testing.T) {
	const n = 1 << 20
	data := randData(rand.New(rand.NewSource(7)), n)
	for _, id := range []uint8{proto.CodecVandermonde, proto.CodecCauchy, proto.CodecInterleaved, proto.CodecRaptor} {
		cfg := DefaultConfig()
		cfg.Codec = id
		cfg.PacketLen = 1024
		s, err := NewSession(data, cfg)
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		rows := s.Codec().(code.RowEncoder)
		var pkts [][]byte
		for idx := 0; len(pkts) < s.Codec().K(); idx++ {
			if rows.SourceOf(idx) >= 0 {
				pkts = append(pkts, s.Packet(idx, 0, 0, 0))
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReceiver(s.Info())
		if err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		for _, pkt := range pkts {
			if _, err := r.HandleRaw(pkt); err != nil {
				t.Fatalf("codec %d: %v", id, err)
			}
		}
		if _, err := r.File(); err != nil {
			t.Fatalf("codec %d: %v", id, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > n*5/4 {
			t.Errorf("codec %d: receiving %d bytes allocated %d", id, n, got)
		}
	}
}
