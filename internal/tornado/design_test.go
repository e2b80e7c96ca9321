package tornado

import (
	"bytes"
	"fmt"
	"go/format"
	"math"
	"os"
	"slices"
	"testing"
)

// This file is the generator of design_table.go and the reference the
// table is checked against: the grid search over α with the back-off of δ,
// and the LP it solves (design.go's header states both). Products folded
// into sums are wrapped in float64(...) for the reason lp_test.go gives.

// lpDesign is one solution of the design LP.
type lpDesign struct {
	Lambda []float64 // edge fractions indexed by degree (Lambda[j], j>=2)
	Alpha  float64   // Poisson right mean the distribution was designed for
	Margin float64   // achieved And-Or margin s
	Delta  float64   // loss fraction actually designed for (≤ requested)
}

// searchDesign returns the margin-maximizing left distribution for
// recovering a δ fraction of losses on a bipartite graph with right/left
// ratio β and maximum left degree maxD, or nil if there is none. If the
// requested δ is infeasible even with zero margin, δ is backed off in 0.005
// steps.
func searchDesign(delta, beta float64, maxD int) *lpDesign {
	var best *lpDesign
	for d := delta; d > 0.25; d -= 0.005 {
		for alpha := 6.0; alpha <= 14.01; alpha += 1.0 {
			dd := solveDesign(d, beta, maxD, alpha)
			if dd == nil {
				continue
			}
			if best == nil || dd.Margin > best.Margin {
				best = dd
			}
		}
		if best != nil && best.Margin > 0.01 {
			break
		}
	}
	return best
}

// solveDesign runs one LP for fixed (δ, β, D, α). Variables are
// x = [λ_2 .. λ_D, s]; returns nil if infeasible.
func solveDesign(delta, beta float64, maxD int, alpha float64) *lpDesign {
	nl := maxD - 1 // λ_2..λ_maxD
	nv := nl + 1   // plus margin s
	si := nl       // index of s

	var A [][]float64
	var B []float64
	row := func() []float64 { return make([]float64, nv) }

	// Grid constraints: δ·Σ λ_j y^(j-1) + x·s <= x.
	// Mixed linear + logarithmic grid covers both the bulk and the x→0 tail.
	var grid []float64
	for t := 1; t <= 60; t++ {
		grid = append(grid, delta*float64(t)/60)
	}
	for _, f := range []float64{0.001, 0.002, 0.004, 0.008} {
		grid = append(grid, delta*f)
	}
	// Edge-perspective right polynomial for checks with 2 path edges plus
	// Poisson(α-2) random edges.
	rho := func(z float64) float64 {
		return (float64(2*z) + float64((alpha-2)*z*z)) * math.Exp((alpha-2)*(z-1)) / alpha
	}
	for _, x := range grid {
		y := 1 - rho(1-x)
		r := row()
		p := y
		for j := 2; j <= maxD; j++ {
			r[j-2] = delta * p
			p *= y
		}
		r[si] = x
		// Scale the row so its largest coefficient is 1: the raw rows mix
		// magnitudes from y^(D-1) (down to 1e-16 at small x) with O(1)
		// entries, which destabilizes the simplex pivoting.
		scale := 0.0
		for _, v := range r {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		if scale == 0 {
			continue
		}
		for j := range r {
			r[j] /= scale
			if math.Abs(r[j]) < 1e-12 {
				r[j] = 0
			}
		}
		A = append(A, r)
		B = append(B, x/scale)
	}
	// Stability: δ·ρ'(1)·λ_2 + s <= 1, with ρ'(1) = (α²-2)/α for the
	// path-plus-Poisson right distribution.
	st := row()
	st[0] = delta * (float64(alpha*alpha) - 2) / alpha
	st[si] = 1
	A = append(A, st)
	B = append(B, 1)
	// Σ λ_j = 1 (two inequalities).
	eq1 := row()
	for j := 0; j < nl; j++ {
		eq1[j] = 1
	}
	neg1 := row()
	for j := 0; j < nl; j++ {
		neg1[j] = -1
	}
	A = append(A, eq1, neg1)
	B = append(B, 1, -1)
	// Rate: Σ λ_j / j = 1/(α·β).
	rate := 1 / (alpha * beta)
	eq2 := row()
	neg2 := row()
	for j := 2; j <= maxD; j++ {
		eq2[j-2] = 1 / float64(j)
		neg2[j-2] = -1 / float64(j)
	}
	A = append(A, eq2, neg2)
	B = append(B, rate, -rate)
	// s <= 1 for sanity.
	sc := row()
	sc[si] = 1
	A = append(A, sc)
	B = append(B, 1)

	C := row()
	C[si] = 1 // maximize margin
	x, obj, err := lpSolve(lpProblem{C: C, A: A, B: B})
	if err != nil {
		return nil
	}
	lam := make([]float64, maxD+1)
	for j := 2; j <= maxD; j++ {
		lam[j] = x[j-2]
	}
	return &lpDesign{Lambda: lam, Alpha: alpha, Margin: obj, Delta: delta}
}

// terms returns the distribution as the table holds it: the degrees whose
// edge fraction is not negligible (λ_j ≥ 1e-9), in increasing order.
func (d *lpDesign) terms() design {
	var ts design
	for j := 2; j < len(d.Lambda); j++ {
		if d.Lambda[j] >= 1e-9 {
			ts = append(ts, term{j, d.Lambda[j]})
		}
	}
	return ts
}

// tables lists the degree tables with the constants each was designed for.
var tables = []struct {
	name  string
	table *designTable
	maxD  int
	eps   float64
}{
	{"designsA", &designsA, maxDegreeA, overheadA},
	{"designsB", &designsB, maxDegreeB, overheadB},
}

// TestDesignTable re-derives table entries by the LP and compares them with
// design_table.go bit for bit: stretch 2 of A and B by default (≈ 35 ms),
// all 30 entries with TORNADO_DESIGN=1 (≈ 30 s). TORNADO_DESIGN=write
// derives all 30 and rewrites design_table.go instead:
//
//	TORNADO_DESIGN=write go test -run TestDesignTable ./internal/tornado
func TestDesignTable(t *testing.T) {
	mode := os.Getenv("TORNADO_DESIGN")
	top := minStretch
	if mode == "1" || mode == "write" {
		top = maxStretch
	}
	var src bytes.Buffer
	src.WriteString("// Code generated by TORNADO_DESIGN=write go test -run TestDesignTable ./internal/tornado. DO NOT EDIT.\n\n")
	src.WriteString("package tornado\n")
	for _, tb := range tables {
		fmt.Fprintf(&src, "\n// %s is designed for D = %d and ε = %v, β = ½, per stretch factor s.\n", tb.name, tb.maxD, tb.eps)
		fmt.Fprintf(&src, "var %s = designTable{\n", tb.name)
		for s := minStretch; s <= top; s++ {
			d := searchDesign(1-(1+tb.eps)/float64(s), 0.5, tb.maxD)
			if d == nil {
				t.Fatalf("%s stretch %d: no feasible design", tb.name, s)
			}
			want := d.terms()
			if got := tb.table[s-minStretch]; mode != "write" && !slices.Equal(got, want) {
				t.Errorf("%s stretch %d: table holds %v, the LP derives %v", tb.name, s, got, want)
			}
			fmt.Fprintf(&src, "\t// s = %d: δ = %.4f, α = %v, margin = %.4f\n\t{", s, d.Delta, d.Alpha, d.Margin)
			for _, tm := range want {
				fmt.Fprintf(&src, "{%d, %v}, ", tm.deg, tm.lambda)
			}
			src.WriteString("},\n")
		}
		src.WriteString("}\n")
	}
	if mode == "write" {
		out, err := format.Source(src.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("design_table.go", out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
