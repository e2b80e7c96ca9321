package tornado

// This file holds the left (value-side) degree distributions of the cascade
// graphs. They were designed by LP offline; the table is the design. The
// original authors did the same ("the degree sequences were found using
// linear programming", Luby et al.) and then fixed the result. The plain
// heavy-tail/Poisson pair is capacity-achieving but only marginally stable:
// its And-Or recursion converges with vanishing margin, so finite graphs
// stall in bulk well below the asymptotic threshold. Maximizing the
// convergence margin instead buys geometric convergence that finite graphs
// can actually follow.
//
// The graph builder wires every degree-2 left node onto a path over the
// checks (see newBigraph), so a check of mean total degree α has exactly 2
// path edges plus Poisson(α-2) random edges. The matching edge-perspective
// right polynomial is
//
//	ρ(z) = (2z + (α-2)·z²) · e^((α-2)(z-1)) / α,
//
// and the iterative decoder succeeds (asymptotically) iff
//
//	δ · λ(1 - ρ(1-x)) < x   for all x in (0, δ],
//
// where λ(y) = Σ_j λ_j y^(j-1) is the edge-perspective left degree
// polynomial. The LP maximizes s subject to
//
//	δ · Σ_j λ_j y_t^(j-1) ≤ (1-s)·x_t        (grid points x_t, y_t = 1-ρ(1-x_t))
//	δ · ρ'(1) · λ_2 ≤ 1 - s                   (stability at x → 0)
//	Σ_j λ_j = 1,   Σ_j λ_j / j = 1/(α·β)      (normalization, rate)
//
// over a grid of α, for every check layer half its input (β = ½), at the
// loss δ = 1 - (1+ε)/s a receiver of (1+ε)k of n = s·k packets sees, and
// backs δ off in 0.005 steps until the margin exceeds 0.01. The generator
// and the simplex are design_test.go and lp_test.go; `TORNADO_DESIGN=1 go
// test -run TestDesignTable ./internal/tornado` re-derives all 30 designs
// and compares them with design_table.go bit for bit, and
// `TORNADO_DESIGN=write` rewrites that file.

// The constants each table was designed for: the cap D on left degrees (the
// A/B axis: larger D lets the design approach capacity, at the cost of more
// edges, hence slower coding) and the reception overhead ε whose loss
// fraction the design recovers.
const (
	maxDegreeA, overheadA = 24, 0.055
	maxDegreeB, overheadB = 64, 0.032
)

// The stretch factors n/k a table covers: those a session descriptor
// admits.
const minStretch, maxStretch = 2, 16

// A design is a left degree distribution: its nonzero edge fractions λ_j in
// increasing degree j.
type design []term

type term struct {
	deg    int
	lambda float64
}

// A designTable holds a variant's designs, indexed by stretch factor -
// minStretch.
type designTable [maxStretch - minStretch + 1]design

// nodeCounts quantizes the edge-perspective distribution onto `nodes` left
// nodes: node fractions are proportional to λ_j / j, rounded by largest
// remainder.
func (d design) nodeCounts(nodes int) map[int]int {
	want := make([]float64, len(d))
	total := 0.0
	for i, t := range d {
		want[i] = t.lambda / float64(t.deg)
		total += want[i]
	}
	counts := make(map[int]int, len(d))
	assigned := 0
	for i, t := range d {
		want[i] = want[i] / total * float64(nodes)
		counts[t.deg] = int(want[i])
		assigned += counts[t.deg]
	}
	for ; assigned < nodes; assigned++ {
		best, bestRem := -1, -1.0
		for i, t := range d {
			if rem := want[i] - float64(counts[t.deg]); rem > bestRem {
				bestRem, best = rem, t.deg
			}
		}
		counts[best]++
	}
	return counts
}
