// Package repro regenerates every table and figure of the paper's
// evaluation (Tables 1-5, Figures 2, 4-8). Each experiment prints the same
// rows or series the paper reports; EXPERIMENTS.md records paper-vs-measured
// values. Experiments accept an Options scale so the full grid (minutes to
// hours, like the original) and a quick CI-sized variant share one code
// path.
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/code"
	"repro/internal/stats"
	"repro/internal/tornado"
)

// Options scales the experiments.
type Options struct {
	// Full selects the paper's complete parameter grid; otherwise a
	// reduced grid keeps runtimes in seconds.
	Full bool
	// Seed makes every experiment deterministic.
	Seed int64
	// Trials overrides per-point trial counts (0 = experiment default).
	Trials int
}

// DefaultOptions returns the quick profile.
func DefaultOptions() Options { return Options{Seed: 1998} }

const packetLen = 1024 // the paper's P = 1KB for all code benchmarks

// sizesKB returns the file-size grid (in KB). The paper uses 250KB..16MB.
func (o Options) sizesKB() []int {
	if o.Full {
		return []int{250, 500, 1024, 2048, 4096, 8192, 16384}
	}
	return []int{250, 500, 1024}
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// overheadSamples measures the reception-overhead distribution of a
// Tornado codec with the real decoder: fraction of extra packets (beyond
// k) needed when packets arrive in a uniformly random order.
func overheadSamples(p tornado.Params, k, trials int, seed int64) ([]float64, error) {
	c, err := tornado.New(p, k, 2*k, 16, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	src := Corpus(rng, k, 16)
	enc, err := code.EncodeAll(c, src)
	if err != nil {
		return nil, err
	}
	out := make([]float64, trials)
	for t := range out {
		used, err := Decode(c, enc, 0, rng.Perm(c.N()))
		if err != nil {
			return nil, err
		}
		out[t] = float64(used)/float64(k) - 1
	}
	return out, nil
}

// overheadCDF caches overhead distributions per (variant, k).
var overheadCache = map[string]*stats.CDF{}

func overheadCDF(p tornado.Params, k int, seed int64) (*stats.CDF, error) {
	key := fmt.Sprintf("%s/%d", p.Variant, k)
	if c, ok := overheadCache[key]; ok {
		return c, nil
	}
	// Fewer trials at large k keep the decoder sampling tractable; the
	// distributions are tight (see Figure 2), so modest samples suffice.
	trials := 1 << 21 / k
	if trials < 16 {
		trials = 16
	}
	if trials > 120 {
		trials = 120
	}
	samples, err := overheadSamples(p, k, trials, seed)
	if err != nil {
		return nil, err
	}
	c := stats.NewCDF(samples)
	overheadCache[key] = c
	return c, nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// tornadoParamsA is a test seam exposing the A parameter set.
func tornadoParamsA() tornado.Params { return tornado.A() }
