// Package netsim implements the simulation methodology of §6: receivers
// join a packet carousel at random offsets, lose packets according to a
// loss process (independent Bernoulli, bursty Gilbert-Elliott, or replayed
// traces), and stop once their codec's decodability condition holds. The
// measured quantity is the paper's reception efficiency
//
//	η = (# source data packets) / (# packets received prior to reconstruction)
//
// including duplicate receptions caused by carousel wrap-around — exactly
// the inefficiency Figures 4-6 quantify.
//
// The simulator is built to scale to populations far beyond the paper's:
// per-receiver randomness is an inline splitmix64 generator (a single
// uint64 of state — no math/rand allocation or 607-word seeding per
// receiver), reception tracking is a per-worker reusable bitset instead of
// a fresh []bool per receiver, and PopulationParallel shards the
// population over dynamically balanced workers. A million receivers at
// k=10000 is a routine run, bit-identical to the serial oracle.
package netsim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// RNG is the simulator's random number generator: splitmix64, a single
// uint64 of state stepped and mixed per draw. It replaces math/rand's
// *rand.Rand (whose default source allocates and seeds a 607-word table
// per instance) so constructing one per simulated receiver costs a few
// nanoseconds and eight bytes. The zero value is a valid generator seeded
// with 0; NewRNG scatters the seed through the output mixer first so
// small consecutive seeds yield uncorrelated streams.
type RNG struct {
	state uint64
}

// splitmix64 constants (Steele, Lea, Flood: "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014).
const (
	smGolden = 0x9e3779b97f4a7c15
	smMixA   = 0xbf58476d1ce4e5b9
	smMixB   = 0x94d049bb133111eb
)

// Mix is the splitmix64 output finalizer: a bijective avalanche over
// uint64, also used to scatter seeds. It is the one mixer behind every
// draw that is not wire format — the simulator's, the Bus's fault layer's,
// retry jitter's and the harness's mirror starts.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * smMixA
	z = (z ^ (z >> 27)) * smMixB
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose stream is determined by seed alone.
func NewRNG(seed uint64) *RNG { return &RNG{state: Mix(seed)} }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += smGolden
	return Mix(r.state)
}

// Float64 returns a uniform float64 in [0, 1): the top 53 bits of one
// draw, exactly representable, so `Float64() < p` and the integer compare
// `Uint64()>>11 < ceil(p·2^53)` decide identically.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("netsim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// floatBits is 2^53: the resolution of Float64 and of Bernoulli's integer
// loss threshold.
const floatBits = 1 << 53

// bernThresh converts a loss probability into the integer threshold t such
// that (Uint64()>>11) < t holds with probability p — and, bit for bit,
// exactly when Float64() < p would hold on the same draw.
func bernThresh(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return floatBits
	default:
		return uint64(math.Ceil(p * floatBits))
	}
}

// LossProcess decides the fate of successive transmissions to one
// receiver. Implementations are stateful and not safe for concurrent use.
type LossProcess interface {
	// Lose reports whether the next packet is lost.
	Lose() bool
}

// Bernoulli loses each packet independently with probability P.
type Bernoulli struct {
	P   float64
	Rng *RNG

	// Cached integer threshold for P, recomputed when P changes. One draw
	// and one compare per packet — no float division on the hot path.
	thresh    uint64
	threshFor float64
	threshSet bool
}

// ensureThresh refreshes the cached threshold after a P change.
func (b *Bernoulli) ensureThresh() {
	if !b.threshSet || b.threshFor != b.P {
		b.thresh = bernThresh(b.P)
		b.threshFor = b.P
		b.threshSet = true
	}
}

// Lose implements LossProcess.
func (b *Bernoulli) Lose() bool {
	b.ensureThresh()
	return b.Rng.Uint64()>>11 < b.thresh
}

// GilbertElliott is the classic two-state bursty loss model: in the good
// state packets are lost with probability LossGood, in the bad state with
// LossBad; the chain moves good→bad with PGB and bad→good with PBG per
// packet. Mean loss = (PGB·LossBad + PBG·LossGood)/(PGB+PBG).
type GilbertElliott struct {
	PGB, PBG          float64
	LossGood, LossBad float64
	Rng               *RNG
	bad               bool
}

// Lose implements LossProcess.
func (g *GilbertElliott) Lose() bool {
	if g.bad {
		if g.Rng.Float64() < g.PBG {
			g.bad = false
		}
	} else {
		if g.Rng.Float64() < g.PGB {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return g.Rng.Float64() < p
}

// MeanLoss returns the stationary loss rate of the model.
func (g *GilbertElliott) MeanLoss() float64 {
	if g.PGB+g.PBG == 0 {
		return g.LossGood
	}
	pBad := g.PGB / (g.PGB + g.PBG)
	return pBad*g.LossBad + (1-pBad)*g.LossGood
}

// Decodability is the stopping condition of a receiver: it observes each
// distinct-first reception and reports when the source is recoverable.
// Implementations are per-receiver state machines.
type Decodability interface {
	// Need returns an upper bound hint (total encoding size n).
	N() int
	// Receive records reception of encoding packet i (first time only —
	// the simulator filters duplicates) and reports whether the receiver
	// can now reconstruct the source.
	Receive(i int) bool
}

// ThresholdDecoder models an ideal (k of n) or overhead-sampled (Tornado)
// code: done when the number of distinct packets reaches Need.
type ThresholdDecoder struct {
	NTotal int
	Need   int
	got    int
}

// N implements Decodability.
func (t *ThresholdDecoder) N() int { return t.NTotal }

// Receive implements Decodability.
func (t *ThresholdDecoder) Receive(int) bool {
	t.got++
	return t.got >= t.Need
}

// BlockDecoder models the interleaved code of §6: block b of B needs
// blockK distinct packets; packet i belongs to block i % B (carousel
// interleaving order).
type BlockDecoder struct {
	NTotal  int
	Blocks  int
	BlockK  int
	fill    []int
	pending int
}

// NewBlockDecoder constructs a BlockDecoder for B blocks of blockK source
// packets each, with total encoding size n.
func NewBlockDecoder(n, blocks, blockK int) *BlockDecoder {
	return &BlockDecoder{NTotal: n, Blocks: blocks, BlockK: blockK, fill: make([]int, blocks), pending: blocks}
}

// N implements Decodability.
func (b *BlockDecoder) N() int { return b.NTotal }

// Receive implements Decodability.
func (b *BlockDecoder) Receive(i int) bool {
	blk := i % b.Blocks
	b.fill[blk]++
	if b.fill[blk] == b.BlockK {
		b.pending--
	}
	return b.pending == 0
}

// Reception is the outcome of one receiver's download.
type Reception struct {
	Received int // total packets received (including duplicates)
	Distinct int // distinct packets received
	Done     bool
}

// Efficiency returns η = k / Received.
func (r Reception) Efficiency(k int) float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(k) / float64(r.Received)
}

// Carousel simulates one receiver downloading from a cycling carousel of n
// packets: the receiver joins at a random offset, every transmission is
// subjected to the loss process, and reception stops when dec reports
// decodability (or after maxTx transmissions, Done=false).
//
// order may be nil (sequential carousel 0..n-1) or a permutation of [0,n)
// (the randomized carousel of §7.1).
func Carousel(dec Decodability, loss LossProcess, order []int, rng *RNG, maxTx int) Reception {
	return carouselSeen(dec, loss, order, rng, maxTx, make([]uint64, (dec.N()+63)/64))
}

// carouselSeen is Carousel over a caller-provided (zeroed) seen-bitset of
// at least ceil(n/64) words — the population workers reuse one per worker
// instead of allocating per receiver. Bernoulli loss takes a devirtualized
// fast path; its draws and decisions are bit-identical to the generic
// loop, so which path runs is unobservable in the results.
func carouselSeen(dec Decodability, loss LossProcess, order []int, rng *RNG, maxTx int, seen []uint64) Reception {
	n := dec.N()
	if maxTx <= 0 {
		maxTx = 1000 * n
	}
	pos := rng.Intn(n)
	if b, ok := loss.(*Bernoulli); ok {
		return carouselBernoulli(dec, b, order, maxTx, seen, n, pos)
	}
	var r Reception
	for tx := 0; tx < maxTx; tx++ {
		idx := pos
		if order != nil {
			idx = order[pos]
		}
		pos++
		if pos == n {
			pos = 0
		}
		if loss.Lose() {
			continue
		}
		r.Received++
		w, bit := idx>>6, uint64(1)<<(idx&63)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			r.Distinct++
			if dec.Receive(idx) {
				r.Done = true
				return r
			}
		}
	}
	return r
}

// carouselBernoulli is the hot inner loop at population scale: inlined
// splitmix64 draw, integer loss threshold, bitset dedup, and a concrete
// fast path for ThresholdDecoder (the ideal/Tornado stopping rule). Every
// random decision matches the generic loop bit for bit.
func carouselBernoulli(dec Decodability, b *Bernoulli, order []int, maxTx int, seen []uint64, n, pos int) Reception {
	b.ensureThresh()
	thresh := b.thresh
	rng := b.Rng
	td, isThreshold := dec.(*ThresholdDecoder)
	var r Reception
	for tx := 0; tx < maxTx; tx++ {
		idx := pos
		if order != nil {
			idx = order[pos]
		}
		pos++
		if pos == n {
			pos = 0
		}
		if rng.Uint64()>>11 < thresh {
			continue
		}
		r.Received++
		w, bit := idx>>6, uint64(1)<<(idx&63)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			r.Distinct++
			var done bool
			if isThreshold {
				td.got++
				done = td.got >= td.Need
			} else {
				done = dec.Receive(idx)
			}
			if done {
				r.Done = true
				return r
			}
		}
	}
	return r
}

// ReceiverRNG returns the deterministic RNG of receiver i in a population
// seeded with seed. Each receiver's randomness — decoder sampling, loss
// process, and carousel join offset — is derived only from (seed, i), so a
// population produces bit-identical results regardless of execution order:
// serial and parallel runs agree, and so do runs with different worker
// counts. The (seed, i) pair is scattered through the splitmix64 mixer, so
// neighbouring receiver indices get statistically independent streams.
func ReceiverRNG(seed int64, i int) *RNG {
	return &RNG{state: Mix(uint64(seed) + smGolden*uint64(i+1))}
}

// Population simulates `receivers` i.i.d. receivers serially and returns
// their reception efficiencies. mkDec and mkLoss build fresh per-receiver
// state from the receiver's own deterministic RNG (see ReceiverRNG).
func Population(receivers int, k int, mkDec func(rng *RNG) Decodability, mkLoss func(rng *RNG) LossProcess, order []int, seed int64) []float64 {
	out := make([]float64, receivers)
	var scratch []uint64
	populationRange(out, 0, receivers, k, mkDec, mkLoss, order, seed, &scratch)
	return out
}

// popShard is the number of receivers one worker claims per grab: small
// enough that slow receivers don't strand a worker with a long static
// chunk, large enough that the atomic counter is cold.
const popShard = 1024

// PopulationParallel is Population fanned out over the CPU with
// dynamically balanced shard workers: each worker owns one reusable
// seen-bitset and claims popShard receivers at a time from an atomic
// cursor. Because every receiver's randomness is derived independently
// from (seed, i), the result is bit-identical to the serial Population for
// the same arguments — a million simulated receivers run concurrently
// without losing reproducibility. mkDec and mkLoss must be safe for
// concurrent calls (each invocation gets its own rng; they should not
// share other mutable state).
func PopulationParallel(receivers int, k int, mkDec func(rng *RNG) Decodability, mkLoss func(rng *RNG) LossProcess, order []int, seed int64) []float64 {
	out := make([]float64, receivers)
	workers := runtime.GOMAXPROCS(0)
	if workers > (receivers+popShard-1)/popShard {
		workers = (receivers + popShard - 1) / popShard
	}
	if workers <= 1 {
		var scratch []uint64
		populationRange(out, 0, receivers, k, mkDec, mkLoss, order, seed, &scratch)
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []uint64
			for {
				lo := int(next.Add(popShard)) - popShard
				if lo >= receivers {
					return
				}
				hi := lo + popShard
				if hi > receivers {
					hi = receivers
				}
				populationRange(out, lo, hi, k, mkDec, mkLoss, order, seed, &scratch)
			}
		}()
	}
	wg.Wait()
	return out
}

// populationRange simulates receivers [lo, hi), reusing *scratch as the
// seen-bitset across receivers (cleared, not reallocated, per receiver).
func populationRange(out []float64, lo, hi, k int, mkDec func(rng *RNG) Decodability, mkLoss func(rng *RNG) LossProcess, order []int, seed int64, scratch *[]uint64) {
	for i := lo; i < hi; i++ {
		rng := ReceiverRNG(seed, i)
		dec := mkDec(rng)
		loss := mkLoss(rng)
		words := (dec.N() + 63) / 64
		if cap(*scratch) < words {
			*scratch = make([]uint64, words)
		}
		seen := (*scratch)[:words]
		clear(seen)
		r := carouselSeen(dec, loss, order, rng, 0, seen)
		out[i] = r.Efficiency(k)
	}
}

// WorstOfR estimates the expected worst-case (minimum) efficiency among R
// simultaneous receivers from a sample of i.i.d. receiver efficiencies,
// using exact order statistics on the empirical distribution — the
// average-of-experiments estimator of Figure 4 converges to the same
// quantity.
func WorstOfR(sample []float64, r int) float64 {
	return stats.NewCDF(sample).MeanMinOfR(r)
}

// Varying alternates between two loss processes on a fixed period,
// modelling the time-varying congestion of real paths (it is what makes
// layered receivers oscillate between subscription levels and therefore
// accumulate duplicate packets — the ηd degradation of Figure 8's 4-layer
// runs).
type Varying struct {
	Calm, Congested LossProcess
	Period          int // packets per phase
	n               int
	congested       bool
}

// Lose implements LossProcess.
func (v *Varying) Lose() bool {
	if v.Period > 0 {
		v.n++
		if v.n >= v.Period {
			v.n = 0
			v.congested = !v.congested
		}
	}
	if v.congested {
		return v.Congested.Lose()
	}
	return v.Calm.Lose()
}
