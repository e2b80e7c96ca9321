// Benchmarks mirroring the paper's evaluation: one benchmark per table or
// figure (scaled-down defaults; run cmd/repro -full for the complete
// grids). The absolute numbers are this machine's; the shapes — Tornado's
// near-linear coding vs Reed-Solomon's quadratic collapse, and the
// efficiency gap against interleaved codes — are the reproduction targets.
package fountain

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/netsim"
	"repro/internal/repro"
	"repro/internal/tornado"
)

// BenchmarkTable2Encode measures encoding across Table 2's roster at a
// 512KB file size.
func BenchmarkTable2Encode(b *testing.B) {
	const k, pl = 512, 1024
	for _, e := range repro.Roster {
		b.Run(e.Name, func(b *testing.B) {
			c, err := e.New(k, pl, 1)
			if err != nil {
				b.Fatal(err)
			}
			src := repro.Corpus(rand.New(rand.NewSource(1)), k, pl)
			b.SetBytes(int64(k * pl))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDecode times repro.Decode of c's encoding of a fresh corpus, one
// reception order from order per iteration; order generation is off the
// clock, as in cmd/bench.
func benchDecode(b *testing.B, c Codec, order func(rng *rand.Rand) []int) {
	src := repro.Corpus(rand.New(rand.NewSource(1)), c.K(), c.PacketLen())
	enc, err := c.Encode(src)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.SetBytes(int64(c.K() * c.PacketLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := order(rng)
		b.StartTimer()
		if _, err := repro.Decode(c, enc, 0, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Decode measures decoding across Table 3's roster with its
// protocol: RS from k/2 source + k/2 repair; Tornado from a random stream.
func BenchmarkTable3Decode(b *testing.B) {
	const k, pl = 512, 1024
	for _, e := range repro.Roster {
		b.Run(e.Name, func(b *testing.B) {
			c, err := e.New(k, pl, 1)
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, c, func(rng *rand.Rand) []int { return e.Order(rng, k) })
		})
	}
}

// BenchmarkFig2OverheadTrial measures one reception-overhead sample of the
// Figure 2 distribution (decode from a random packet order).
func BenchmarkFig2OverheadTrial(b *testing.B) {
	for _, p := range []tornado.Params{TornadoA(), TornadoB()} {
		b.Run(p.Variant, func(b *testing.B) {
			const k = 2048
			c, err := NewTornado(p, k, 2*k, 16, 3)
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, c, func(rng *rand.Rand) []int { return rng.Perm(c.N()) })
		})
	}
}

// BenchmarkTable4Speedup regenerates a single Table 4 cell end to end
// (block-count search + timing ratio) at the quick scale.
func BenchmarkTable4Speedup(b *testing.B) {
	o := repro.Options{Seed: 5, Trials: 30}
	for i := 0; i < b.N; i++ {
		if err := repro.Table4(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Reception measures the Figure 4 population simulation: one
// receiver's carousel download per iteration, for each curve.
func BenchmarkFig4Reception(b *testing.B) {
	const k = 1024
	rng := netsim.NewRNG(6)
	curves := []struct {
		name string
		mk   func() netsim.Decodability
	}{
		{"TornadoA", func() netsim.Decodability {
			return &netsim.ThresholdDecoder{NTotal: 2 * k, Need: k + k/50}
		}},
		{"Interleaved-k50", func() netsim.Decodability {
			return netsim.NewBlockDecoder(2*k, k/50, 50)
		}},
		{"Interleaved-k20", func() netsim.Decodability {
			return netsim.NewBlockDecoder(2*k, k/20, 20)
		}},
	}
	for _, c := range curves {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				netsim.Carousel(c.mk(), &netsim.Bernoulli{P: 0.5, Rng: rng}, nil, rng, 0)
			}
		})
	}
}

// BenchmarkFig5FileSize measures the per-size population sweep of Figure 5
// at 250KB.
func BenchmarkFig5FileSize(b *testing.B) {
	const k = 250
	rng := netsim.NewRNG(7)
	for i := 0; i < b.N; i++ {
		dec := netsim.NewBlockDecoder(2*k, k/50, 50)
		netsim.Carousel(dec, &netsim.Bernoulli{P: 0.1, Rng: rng}, nil, rng, 0)
	}
}

// BenchmarkFig6Trace measures one trace-driven receiver download.
func BenchmarkFig6Trace(b *testing.B) {
	rng := netsim.NewRNG(8)
	ge := &netsim.GilbertElliott{PGB: 0.02, PBG: 0.1, LossGood: 0.02, LossBad: 0.7, Rng: rng}
	const k = 512
	for i := 0; i < b.N; i++ {
		dec := &netsim.ThresholdDecoder{NTotal: 2 * k, Need: k + k/30}
		netsim.Carousel(dec, ge, nil, rng, 0)
	}
}

// BenchmarkTable5Schedule measures schedule slot generation (Table 5 /
// Figure 7 machinery).
func BenchmarkTable5Schedule(b *testing.B) {
	s, err := NewSessionForBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for layer := 0; layer < 4; layer++ {
			s.CarouselIndices(layer, i)
		}
	}
}

// NewSessionForBench builds a small layered session for schedule benches.
func NewSessionForBench() (*Session, error) {
	data := make([]byte, 64<<10)
	cfg := DefaultConfig()
	return NewSession(data, cfg)
}

// BenchmarkFig8Prototype runs one complete prototype download (carousel ->
// lossy bus -> congestion-controlled client) per iteration.
func BenchmarkFig8Prototype(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 128<<10)
	rng.Read(data)
	lossRng := netsim.NewRNG(9)
	cfg := DefaultConfig()
	sess, err := NewSession(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus := NewBus(4)
		var lvl func(int)
		eng, err := NewClient(sess.Info(), 2, func(l int) { lvl(l) })
		if err != nil {
			b.Fatal(err)
		}
		bc := bus.NewClient(2, &netsim.Bernoulli{P: 0.2, Rng: lossRng}, func(_ int, pkt []byte) {
			eng.HandlePacket(pkt)
		})
		lvl = bc.SetLevel
		car := NewCarousel(sess)
		for !eng.Done() {
			if err := car.NextRound(bus.Send); err != nil {
				b.Fatal(err)
			}
		}
		bc.Close()
	}
}

// BenchmarkAblationXORKernel compares gf.XORSlice, the one-source XOR left
// in Cauchy's bucket combine and bitmat's dense reference, against a byte
// loop (the DESIGN.md ablation). Every encoder and decoder folds through
// gf.XORMany instead; internal/gf's BenchmarkXORMany times that kernel.
func BenchmarkAblationXORKernel(b *testing.B) {
	dst := make([]byte, 1024)
	src := make([]byte, 1024)
	rand.New(rand.NewSource(10)).Read(src)
	b.Run("subtle", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			gf.XORSlice(dst, src)
		}
	})
	b.Run("byteloop", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			for j := range src {
				dst[j] ^= src[j]
			}
		}
	})
}

// BenchmarkAblationDenseTail sweeps the Tornado dense-tail size (the
// cascade-depth design choice) at fixed k.
func BenchmarkAblationDenseTail(b *testing.B) {
	const k = 4096
	for _, target := range []int{256, 1024, 2048} {
		b.Run(fmt.Sprintf("dense%d", target), func(b *testing.B) {
			p := TornadoA()
			p.DenseTarget = target
			c, err := NewTornado(p, k, 2*k, 64, 11)
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, c, func(rng *rand.Rand) []int { return rng.Perm(c.N()) })
		})
	}
}
