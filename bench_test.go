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

	"repro/internal/benchproto"
	"repro/internal/gf"
	"repro/internal/netsim"
	"repro/internal/repro"
	"repro/internal/tornado"
)

func mkSrc(b *testing.B, k, pl int) [][]byte {
	b.Helper()
	return benchproto.Source(k, pl)
}

// BenchmarkTable2Encode measures encoding across the codec family
// (Table 2's columns) at a 512KB file size.
func BenchmarkTable2Encode(b *testing.B) {
	const k, pl = 512, 1024
	cases := []struct {
		name string
		mk   func() (Codec, error)
	}{
		{"Vandermonde", func() (Codec, error) { return NewVandermonde(k, 2*k, pl) }},
		{"Cauchy", func() (Codec, error) { return NewCauchy(k, 2*k, pl) }},
		{"TornadoA", func() (Codec, error) { return NewTornado(TornadoA(), k, 2*k, pl, 1) }},
		{"TornadoB", func() (Codec, error) { return NewTornado(TornadoB(), k, 2*k, pl, 1) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			codec, err := c.mk()
			if err != nil {
				b.Fatal(err)
			}
			src := mkSrc(b, k, pl)
			b.SetBytes(int64(k * pl))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Decode measures decoding (Table 3's protocol: RS from
// k/2 source + k/2 repair; Tornado from a random stream).
func BenchmarkTable3Decode(b *testing.B) {
	const k, pl = 512, 1024
	rng := rand.New(rand.NewSource(2))
	run := func(b *testing.B, codec Codec, tornadoStyle bool) {
		src := mkSrc(b, k, pl)
		enc, err := codec.Encode(src)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(k * pl))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Order generation is off the clock, mirroring cmd/bench, so
			// both surfaces report the same workload.
			b.StopTimer()
			var order []int
			if tornadoStyle {
				order = benchproto.TornadoOrder(rng, codec.N())
			} else {
				order = benchproto.RSOrder(rng, k)
			}
			b.StartTimer()
			d := codec.NewDecoder()
			for _, j := range order {
				if done, _ := d.Add(j, enc[j]); done {
					break
				}
			}
			if _, err := d.Source(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Vandermonde", func(b *testing.B) {
		c, _ := NewVandermonde(k, 2*k, pl)
		run(b, c, false)
	})
	b.Run("Cauchy", func(b *testing.B) {
		c, _ := NewCauchy(k, 2*k, pl)
		run(b, c, false)
	})
	b.Run("TornadoA", func(b *testing.B) {
		c, _ := NewTornado(TornadoA(), k, 2*k, pl, 1)
		run(b, c, true)
	})
	b.Run("TornadoB", func(b *testing.B) {
		c, _ := NewTornado(TornadoB(), k, 2*k, pl, 1)
		run(b, c, true)
	})
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
			src := mkSrc(b, k, 16)
			enc, _ := c.Encode(src)
			rng := rand.New(rand.NewSource(4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := c.NewDecoder()
				for _, j := range rng.Perm(c.N()) {
					if done, _ := d.Add(j, enc[j]); done {
						break
					}
				}
			}
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

// BenchmarkAblationXORKernel compares the crypto/subtle XOR kernel used
// throughout against a byte loop (the DESIGN.md ablation).
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
			src := mkSrc(b, k, 64)
			enc, _ := c.Encode(src)
			rng := rand.New(rand.NewSource(12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := c.NewDecoder()
				for _, j := range rng.Perm(c.N()) {
					if done, _ := d.Add(j, enc[j]); done {
						break
					}
				}
			}
		})
	}
}
