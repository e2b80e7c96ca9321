// Package tornado implements Tornado codes, the paper's core contribution
// (§5): systematic erasure codes built from a cascade of sparse random
// bipartite graphs whose encoding and decoding use only XOR, trading a
// small reception overhead ε for encoding/decoding in time proportional to
// (k+l)·ln(1/ε)·P instead of Reed-Solomon's quadratic behaviour.
//
// Structure (Figure 1 of the paper, following Luby et al. [8]):
//
//	layer 0:  k source packets
//	layer i:  c_i check packets, each the XOR of its neighbors in layer
//	          i-1 under a random irregular bipartite graph (heavy-tail
//	          left degrees, near-regular right degrees)
//	tail:     a low-density random GF(2) code over the last layer, solved
//	          by elimination (still XOR-only)
//
// A Tornado code is encoded and decoded by the one encoder and decoder the
// LT and raptor codes run on (peel.Code, peel.Decoder): cascade check j is
// its static equation j, whose value is column k+j, sent verbatim, and each
// dense-tail packet a row read from the graphs (a peel.Table). The encoder
// computes the cascade once per source and a dense-tail packet at need, so
// a session can encode lazily under a byte budget. The decoder is done at
// exactly the packet that makes the source recoverable: the receiver of a
// digital fountain disconnects as soon as it has "enough".
package tornado

import "fmt"

// Params selects a Tornado code variant. The paper's Tornado A and
// Tornado B are characterized by their reception-overhead distributions
// (Figure 2: A averages 5.5% with fast decoding, B averages 3.1% and
// decodes more slowly). A and B differ in their degree designs, designed by
// LP offline (the table is the design), and in the size of the dense tail.
type Params struct {
	// Variant is the display name ("tornado-a", "tornado-b").
	Variant string
	// DenseTarget is the size the final dense layer aims for: the cascade
	// halves the check budget until the remainder is at most this value.
	// The dense code runs at capacity (it recovers its inputs as soon as
	// received inputs + received checks reach the input count), so it must
	// be large enough that binomial reception fluctuations — relative
	// σ ≈ 0.7/sqrt(target) — stay inside the overhead margin ε. A larger
	// tail also shifts decode work from peeling to the solver's dense
	// phase (slower decode, lower overhead): the B variant uses a bigger
	// tail.
	// 0 means 1024.
	DenseTarget int

	table *designTable // the variant's degree designs; A() and B() set it
}

// A returns the parameters for Tornado A, the fast variant, designed for
// a reception overhead of ≈ 0.05 under propagation alone (the exact
// decoder decodes well below it; see EXPERIMENTS.md).
func A() Params {
	return Params{Variant: "tornado-a", DenseTarget: 1024, table: &designsA}
}

// B returns the parameters for Tornado B, the slower-decoding variant
// designed for ≈ 0.03: higher-degree graphs decode closer to capacity, and
// a larger dense tail absorbs more loss variance at the cost of a bigger
// endgame.
func B() Params {
	return Params{Variant: "tornado-b", DenseTarget: 2048, table: &designsB}
}

func (p Params) validate() error {
	if p.table == nil {
		return fmt.Errorf("tornado: Params %q has no degree design: start from A() or B()", p.Variant)
	}
	if p.DenseTarget < 0 {
		return fmt.Errorf("tornado: negative DenseTarget")
	}
	return nil
}

// denseTarget returns the dense-tail size the cascade aims for.
func (p Params) denseTarget() int {
	if p.DenseTarget == 0 {
		return 1024
	}
	return p.DenseTarget
}

// heavyTailCounts quantizes the heavy-tail node-degree distribution
// P(d) ∝ 1/(d(d-1)), d in [2, D], onto nodes left nodes using
// largest-remainder rounding, so graph construction is deterministic
// given (nodes, D). It returns counts[d] = number of nodes of degree d.
func heavyTailCounts(nodes, maxDegree int) map[int]int {
	d := maxDegree
	if d > nodes {
		d = nodes // degree cannot exceed the right side meaningfully; keep sane for tiny layers
	}
	if d < 2 {
		d = 2
	}
	// Normalizer: sum_{i=2..D} 1/(i(i-1)) = 1 - 1/D.
	total := 1.0 - 1.0/float64(d)
	type frac struct {
		deg  int
		want float64
	}
	fracs := make([]frac, 0, d-1)
	for i := 2; i <= d; i++ {
		p := (1.0 / (float64(i) * float64(i-1))) / total
		fracs = append(fracs, frac{deg: i, want: p * float64(nodes)})
	}
	counts := make(map[int]int, len(fracs))
	assigned := 0
	for _, f := range fracs {
		c := int(f.want)
		counts[f.deg] = c
		assigned += c
	}
	// Largest remainder: hand out the leftovers to the degrees that lost
	// the most in truncation (ties broken by smaller degree for stability).
	for assigned < nodes {
		best := -1
		bestRem := -1.0
		for _, f := range fracs {
			rem := f.want - float64(counts[f.deg])
			if rem > bestRem {
				bestRem = rem
				best = f.deg
			}
		}
		counts[best]++
		assigned++
	}
	return counts
}
