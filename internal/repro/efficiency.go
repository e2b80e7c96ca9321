package repro

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/losstrace"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/tornado"
)

// Fig2 regenerates the reception-overhead distributions: many decode
// trials per variant, reporting the % of trials still unfinished at each
// overhead level plus mean/max/σ (paper: A mean .0548 max .0850 σ .0052;
// B mean .0306 max .0550 σ .0031, measured on ~2000-packet files).
func Fig2(w io.Writer, o Options) error {
	k := 2048 // a 2MB file in 1KB packets, matching the paper's prototype file scale
	trials := o.trials(400)
	if o.Full {
		trials = o.trials(10000)
	}
	for _, p := range []tornado.Params{tornado.A(), tornado.B()} {
		samples, err := overheadSamples(p, k, trials, o.Seed)
		if err != nil {
			return err
		}
		s := stats.Summarize(samples)
		cdf := stats.NewCDF(samples)
		fprintf(w, "Figure 2: %s, %d runs, k=%d\n", p.Variant, trials, k)
		fprintf(w, "  overhead: avg=%.4f max=%.4f sd=%.4f\n", s.Mean, s.Max, s.Std)
		fprintf(w, "  %% unfinished vs length overhead:\n")
		for _, eps := range []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09} {
			unfinished := 100 * (1 - cdf.P(eps))
			fprintf(w, "    eps=%.2f  unfinished=%5.1f%%\n", eps, unfinished)
		}
	}
	return nil
}

// lossGrid is Table 4's erasure-probability grid.
var lossGrid = []float64{0.01, 0.05, 0.10, 0.20, 0.50}

// maxBlocksFor searches for the largest block count B such that an
// interleaved code over K packets keeps reception overhead below 0.07 in
// at least 99% of trials (the Table 4 criterion, matching Tornado A's
// overhead guarantee).
func maxBlocksFor(K int, p float64, trials int, rng *netsim.RNG) int {
	feasible := func(blocks int) bool {
		blockK := K / blocks
		if blockK < 1 {
			return false
		}
		n := 2 * blockK * blocks
		bad := 0
		allowed := trials / 100 // 1% of trials
		for t := 0; t < trials; t++ {
			dec := netsim.NewBlockDecoder(n, blocks, blockK)
			r := netsim.Carousel(dec, &netsim.Bernoulli{P: p, Rng: rng}, nil, rng, 0)
			overhead := float64(r.Received)/float64(blockK*blocks) - 1
			if !r.Done || overhead > 0.07 {
				bad++
				if bad > allowed {
					return false
				}
			}
		}
		return true
	}
	// Exponential probe then binary search on the block count.
	lo, hi := 1, 1
	for feasible(hi * 2) {
		hi *= 2
		if hi >= K {
			hi = K
			break
		}
	}
	if hi == 1 && !feasible(1) {
		return 1
	}
	lo = hi
	hi = hi * 2
	if hi > K {
		hi = K
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Table4 regenerates the speedup of Tornado A over interleaved codes with
// comparable reception efficiency: for each size and loss rate, the block
// count is maximized under the overhead guarantee, the interleaved decode
// time is blocks x (measured per-block Cauchy decode), and the ratio to
// Tornado A's measured decode time is reported.
func Table4(w io.Writer, o Options) error {
	fprintf(w, "Table 4: Speedup of Tornado A over interleaved codes with comparable efficiency\n")
	fprintf(w, "%-10s", "SIZE")
	for _, p := range lossGrid {
		fprintf(w, " p=%-10.2f", p)
	}
	fprintf(w, "\n")
	rng := rand.New(rand.NewSource(o.Seed + 4))
	simRng := netsim.NewRNG(uint64(o.Seed + 4))
	trials := o.trials(100)
	// decodeTime times one Table 3 decode of e at k, at least 1µs.
	decodeTime := func(e Entry, k int) (time.Duration, error) {
		_, d, err := timeEntry(e, k, o.Seed, Corpus(rng, k, packetLen), rng, true)
		return max(d, time.Microsecond), err
	}
	// Cache per-block Cauchy decode times by block size.
	blockDecode := map[int]time.Duration{}
	measureBlock := func(blockK int) (time.Duration, error) {
		if d, ok := blockDecode[blockK]; ok {
			return d, nil
		}
		d, err := decodeTime(entry("rs-cauchy"), blockK)
		if err != nil {
			return 0, err
		}
		blockDecode[blockK] = d
		return d, nil
	}
	for _, kb := range o.sizesKB() {
		K := kb
		tDec, err := decodeTime(entry("tornado-a"), K)
		if err != nil {
			return err
		}
		fprintf(w, "%-10s", sizeName(kb))
		for _, p := range lossGrid {
			blocks := maxBlocksFor(K, p, trials, simRng)
			blockK := K / blocks
			bd, err := measureBlock(blockK)
			if err != nil {
				return err
			}
			interleaved := time.Duration(blocks) * bd
			fprintf(w, " %-12.1f", float64(interleaved)/float64(tDec))
		}
		fprintf(w, "   (blocks at p=0.5: %d)\n", maxBlocksFor(K, 0.5, trials, simRng))
	}
	return nil
}

// tornadoDecodability builds a per-receiver decodability factory for the
// population simulations: done when distinct receptions reach (1+eps)k
// with eps drawn from the variant's real measured overhead distribution.
func tornadoDecodability(p tornado.Params, k, n int, seed int64) (func(rng *netsim.RNG) netsim.Decodability, error) {
	cdf, err := overheadCDF(p, k, seed)
	if err != nil {
		return nil, err
	}
	return func(rng *netsim.RNG) netsim.Decodability {
		eps := cdf.Sample(rng.Float64())
		need := int(float64(k) * (1 + eps))
		if need > n {
			need = n
		}
		if need < 1 {
			need = 1
		}
		return &netsim.ThresholdDecoder{NTotal: n, Need: need}
	}, nil
}

// receiverCounts is Figure 4's x axis.
var receiverCounts = []int{1, 10, 100, 1000, 10000}

// Fig4 regenerates reception efficiency vs number of receivers for a 1MB
// file at p = 0.1 and 0.5: Tornado A vs interleaved block sizes 50 and 20.
// The average-case efficiency is the leftmost point; worst-of-R uses order
// statistics over an i.i.d. receiver sample (equivalent in expectation to
// the paper's average of 100 experiments per set size).
func Fig4(w io.Writer, o Options) error {
	k := 1024 // 1MB / 1KB
	n := 2 * k
	sample := o.trials(1000)
	tdFactory, err := tornadoDecodability(tornado.A(), k, n, o.Seed)
	if err != nil {
		return err
	}
	for _, p := range []float64{0.1, 0.5} {
		fprintf(w, "Figure 4: Reception efficiency, 1MB file, p = %.1f\n", p)
		type curve struct {
			name string
			mk   func(rng *netsim.RNG) netsim.Decodability
		}
		curves := []curve{
			{"Tornado A", tdFactory},
			{"Interleaved k=50", func(*netsim.RNG) netsim.Decodability {
				blocks := k / 50
				return netsim.NewBlockDecoder(2*50*blocks, blocks, 50)
			}},
			{"Interleaved k=20", func(*netsim.RNG) netsim.Decodability {
				blocks := k / 20
				return netsim.NewBlockDecoder(2*20*blocks, blocks, 20)
			}},
		}
		for _, c := range curves {
			effs := netsim.PopulationParallel(sample, k, c.mk, func(rng *netsim.RNG) netsim.LossProcess {
				return &netsim.Bernoulli{P: p, Rng: rng}
			}, nil, o.Seed+11)
			fprintf(w, "  %-18s avg=%.3f  worst-of-R:", c.name, stats.Summarize(effs).Mean)
			for _, r := range receiverCounts {
				fprintf(w, " R=%d:%.3f", r, netsim.WorstOfR(effs, r))
			}
			fprintf(w, "\n")
		}
	}
	return nil
}

// Fig5 regenerates reception efficiency vs file size with 500 receivers at
// p = 0.1 and 0.5 (average and minimum across the population).
func Fig5(w io.Writer, o Options) error {
	sizes := o.sizesKB()
	if !o.Full {
		sizes = []int{100, 250, 1024, 2048}
	} else {
		sizes = append([]int{100}, sizes...)
	}
	receivers := 500
	sample := o.trials(600)
	for _, p := range []float64{0.1, 0.5} {
		fprintf(w, "Figure 5: Reception efficiency vs file size, 500 receivers, p = %.1f\n", p)
		fprintf(w, "  %-10s %-22s %-22s %-22s\n", "SIZE", "TornadoA avg/min", "Intl k=50 avg/min", "Intl k=20 avg/min")
		for _, kb := range sizes {
			k := kb
			n := 2 * k
			td, err := tornadoDecodability(tornado.A(), k, n, o.Seed)
			if err != nil {
				return err
			}
			row := fmt.Sprintf("  %-10s", sizeName(kb))
			factories := []func(rng *netsim.RNG) netsim.Decodability{
				td,
				func(*netsim.RNG) netsim.Decodability {
					bk := 50
					if bk > k {
						bk = k
					}
					blocks := (k + bk - 1) / bk
					return netsim.NewBlockDecoder(2*bk*blocks, blocks, bk)
				},
				func(*netsim.RNG) netsim.Decodability {
					blocks := k / 20
					return netsim.NewBlockDecoder(2*20*blocks, blocks, 20)
				},
			}
			for _, mk := range factories {
				effs := netsim.PopulationParallel(sample, k, mk, func(rng *netsim.RNG) netsim.LossProcess {
					return &netsim.Bernoulli{P: p, Rng: rng}
				}, nil, o.Seed+13)
				row += fmt.Sprintf(" %8.3f/%-13.3f", stats.Summarize(effs).Mean, netsim.WorstOfR(effs, receivers))
			}
			fprintf(w, "%s\n", row)
		}
	}
	return nil
}

// Fig6 regenerates the trace-driven comparison: 120 receivers replaying
// synthetic MBone-style traces (mean loss ≈ 18%, bursty, heterogeneous;
// see DESIGN.md for the substitution), average reception efficiency vs
// file size.
func Fig6(w io.Writer, o Options) error {
	sizes := []int{100, 250, 1024, 2048}
	if o.Full {
		sizes = []int{100, 250, 1024, 4096, 16384}
	}
	gp := losstrace.DefaultGenParams()
	gp.Seed = o.Seed
	traces := losstrace.Generate(gp)
	fprintf(w, "Figure 6: Trace-driven reception efficiency (%d receivers, mean loss %.3f)\n",
		len(traces), losstrace.MeanLoss(traces))
	fprintf(w, "  %-10s %-12s %-12s %-12s\n", "SIZE", "TornadoA", "Intl k=50", "Intl k=20")
	rng := netsim.NewRNG(uint64(o.Seed + 17))
	for _, kb := range sizes {
		k := kb
		n := 2 * k
		td, err := tornadoDecodability(tornado.A(), k, n, o.Seed)
		if err != nil {
			return err
		}
		factories := []func(rng *netsim.RNG) netsim.Decodability{
			td,
			func(*netsim.RNG) netsim.Decodability {
				blocks := (k + 49) / 50
				return netsim.NewBlockDecoder(2*50*blocks, blocks, 50)
			},
			func(*netsim.RNG) netsim.Decodability {
				blocks := k / 20
				return netsim.NewBlockDecoder(2*20*blocks, blocks, 20)
			},
		}
		row := fmt.Sprintf("  %-10s", sizeName(kb))
		for _, mk := range factories {
			sum := 0.0
			for _, tr := range traces {
				dec := mk(rng)
				loss := tr.Replay(rng.Intn(len(tr.Lost)))
				r := netsim.Carousel(dec, loss, nil, rng, 0)
				sum += r.Efficiency(k)
			}
			row += fmt.Sprintf(" %-12.3f", sum/float64(len(traces)))
		}
		fprintf(w, "%s\n", row)
	}
	return nil
}
