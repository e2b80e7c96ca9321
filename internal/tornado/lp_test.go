package tornado

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// This file is a small dense-simplex linear-program solver: maximize c·x
// subject to A·x <= b, x >= 0. It is the generator of the degree table
// (design_test.go): the Tornado degree distributions are designed the way
// the original authors did — "the degree sequences were found using linear
// programming" — by maximizing the And-Or iteration margin subject to the
// rate constraint, once, offline. Problems are tiny (tens of variables and
// constraints), so a textbook two-phase tableau simplex with Bland's rule
// is entirely adequate.
//
// The table is compared bit for bit, so the generator must derive the same
// bits on every architecture: each product folded into a sum is wrapped in
// float64(...), which forbids the compiler to fuse the two into one
// multiply-add (arm64 would).

// Errors returned by lpSolve.
var (
	errLPInfeasible = errors.New("lp: infeasible")
	errLPUnbounded  = errors.New("lp: unbounded")
)

const lpEps = 1e-9

// lpProblem is max c·x s.t. A x <= b, x >= 0. Rows of A must all have
// len(c) entries. Equality constraints can be encoded as two opposing
// inequalities.
type lpProblem struct {
	C []float64   // objective coefficients, length n
	A [][]float64 // m rows of length n
	B []float64   // m right-hand sides (may be negative)
}

// lpSolve returns an optimal x and the objective value.
func lpSolve(p lpProblem) (x []float64, obj float64, err error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m {
		return nil, 0, errors.New("lp: |B| != rows of A")
	}
	for _, row := range p.A {
		if len(row) != n {
			return nil, 0, errors.New("lp: row length != |C|")
		}
	}
	// Standard form with slacks: A x + s = b. Negative b rows are negated
	// (flipping the slack sign), which then require artificial variables.
	// Phase 1 minimizes the sum of artificials; phase 2 optimizes c.
	type tableau struct {
		a     [][]float64 // m x (n + m + artCount)
		b     []float64
		basis []int
	}
	art := []int{} // rows needing artificial variables
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, n+m)
		copy(row, p.A[i])
		bi := p.B[i]
		slackSign := 1.0
		if bi < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			bi = -bi
			slackSign = -1.0
		}
		row[n+i] = slackSign
		a[i] = row
		b[i] = bi
		if slackSign < 0 {
			art = append(art, i)
		}
	}
	total := n + m + len(art)
	t := tableau{a: make([][]float64, m), b: b, basis: make([]int, m)}
	artCol := n + m
	artOf := make(map[int]int) // row -> artificial column
	for _, r := range art {
		artOf[r] = artCol
		artCol++
	}
	for i := 0; i < m; i++ {
		row := make([]float64, total)
		copy(row, a[i])
		if c, ok := artOf[i]; ok {
			row[c] = 1
			t.basis[i] = c
		} else {
			t.basis[i] = n + i
		}
		t.a[i] = row
	}

	pivot := func(obj []float64, objVal *float64, maxCol int) error {
		const pivTol = 1e-7 // refuse numerically tiny pivots
		for iter := 0; iter < 20000; iter++ {
			// Entering column: Dantzig's rule (most positive reduced cost)
			// for speed and numerical quality; fall back to Bland's rule
			// after many iterations to guarantee termination.
			col := -1
			if iter < 15000 {
				best := lpEps
				for j := 0; j < maxCol; j++ {
					if obj[j] > best {
						best = obj[j]
						col = j
					}
				}
			} else {
				for j := 0; j < maxCol; j++ {
					if obj[j] > lpEps {
						col = j
						break
					}
				}
			}
			if col < 0 {
				return nil // optimal
			}
			// Ratio test; among near-ties prefer the largest pivot element
			// to keep the tableau well conditioned.
			row := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if t.a[i][col] > pivTol {
					r := t.b[i] / t.a[i][col]
					switch {
					case r < best-1e-12:
						best = r
						row = i
					case r < best+1e-12 && row >= 0 && t.a[i][col] > t.a[row][col]:
						row = i
					}
				}
			}
			if row < 0 {
				return errLPUnbounded
			}
			// Pivot on (row, col).
			pv := t.a[row][col]
			for j := 0; j < total; j++ {
				t.a[row][j] /= pv
			}
			t.b[row] /= pv
			for i := 0; i < m; i++ {
				if i != row && math.Abs(t.a[i][col]) > lpEps {
					f := t.a[i][col]
					for j := 0; j < total; j++ {
						t.a[i][j] -= float64(f * t.a[row][j])
					}
					t.b[i] -= float64(f * t.b[row])
				}
			}
			if math.Abs(obj[col]) > lpEps {
				f := obj[col]
				for j := 0; j < total; j++ {
					obj[j] -= float64(f * t.a[row][j])
				}
				*objVal -= float64(f * t.b[row])
			}
			t.basis[row] = col
		}
		return errors.New("lp: iteration limit")
	}

	// Phase 1.
	if len(art) > 0 {
		obj1 := make([]float64, total)
		val1 := 0.0
		// minimize sum of artificials == maximize -sum; express reduced costs.
		for _, c := range artOf {
			obj1[c] = -1
		}
		// Make reduced costs consistent with the starting basis (artificials
		// are basic, so eliminate their columns from the objective).
		for i, c := range t.basis {
			if obj1[c] != 0 {
				f := obj1[c]
				for j := 0; j < total; j++ {
					obj1[j] -= float64(f * t.a[i][j])
				}
				val1 -= float64(f * t.b[i])
			}
		}
		if err := pivot(obj1, &val1, total); err != nil {
			return nil, 0, err
		}
		// val1 tracks the negative of the phase-1 objective (-sum of
		// artificials); a strictly positive residue means infeasible.
		if val1 > 1e-6 {
			return nil, 0, errLPInfeasible
		}
		// Drive any remaining (degenerate, value-0) artificial variables
		// out of the basis; rows where that is impossible are redundant
		// constraints and are dropped.
		for i := 0; i < m; i++ {
			if t.basis[i] < n+m {
				continue
			}
			driven := false
			for j := 0; j < n+m; j++ {
				if math.Abs(t.a[i][j]) > lpEps {
					pv := t.a[i][j]
					for jj := 0; jj < total; jj++ {
						t.a[i][jj] /= pv
					}
					t.b[i] /= pv
					for ii := 0; ii < m; ii++ {
						if ii != i && math.Abs(t.a[ii][j]) > lpEps {
							f := t.a[ii][j]
							for jj := 0; jj < total; jj++ {
								t.a[ii][jj] -= float64(f * t.a[i][jj])
							}
							t.b[ii] -= float64(f * t.b[i])
						}
					}
					t.basis[i] = j
					driven = true
					break
				}
			}
			if !driven {
				// Redundant row: remove it.
				t.a[i] = t.a[m-1]
				t.b[i] = t.b[m-1]
				t.basis[i] = t.basis[m-1]
				t.a = t.a[:m-1]
				t.b = t.b[:m-1]
				t.basis = t.basis[:m-1]
				m--
				i--
			}
		}
	}

	// Phase 2: artificial columns are excluded from entering (maxCol).
	obj2 := make([]float64, total)
	val2 := 0.0
	copy(obj2, p.C)
	for i, c := range t.basis {
		if math.Abs(obj2[c]) > lpEps {
			f := obj2[c]
			for j := 0; j < total; j++ {
				obj2[j] -= float64(f * t.a[i][j])
			}
			val2 -= float64(f * t.b[i])
		}
	}
	if err := pivot(obj2, &val2, n+m); err != nil {
		return nil, 0, err
	}
	x = make([]float64, n)
	for i, c := range t.basis {
		if c < n {
			x[c] = t.b[i]
		}
	}
	for j, cj := range p.C {
		obj += float64(cj * x[j])
	}
	return x, obj, nil
}

func lpApprox(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestLPSimple2D(t *testing.T) {
	// max x+y s.t. x <= 2, y <= 3, x+y <= 4 -> obj 4.
	x, obj, err := lpSolve(lpProblem{
		C: []float64{1, 1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		B: []float64{2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lpApprox(obj, 4) {
		t.Fatalf("obj = %v, want 4 (x=%v)", obj, x)
	}
}

func TestLPEqualityViaPairs(t *testing.T) {
	// max 3x+2y s.t. x+y == 1 (as <= and >=), x,y >= 0 -> x=1, obj 3.
	x, obj, err := lpSolve(lpProblem{
		C: []float64{3, 2},
		A: [][]float64{{1, 1}, {-1, -1}},
		B: []float64{1, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lpApprox(obj, 3) || !lpApprox(x[0], 1) {
		t.Fatalf("got x=%v obj=%v", x, obj)
	}
}

func TestLPInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	_, _, err := lpSolve(lpProblem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -2},
	})
	if err != errLPInfeasible {
		t.Fatalf("err = %v, want errLPInfeasible", err)
	}
}

func TestLPUnbounded(t *testing.T) {
	_, _, err := lpSolve(lpProblem{
		C: []float64{1},
		A: [][]float64{{-1}},
		B: []float64{0},
	})
	if err != errLPUnbounded {
		t.Fatalf("err = %v, want errLPUnbounded", err)
	}
}

func TestLPDegenerate(t *testing.T) {
	// Degenerate vertex (redundant constraints) must still terminate
	// (Bland's rule prevents cycling).
	_, obj, err := lpSolve(lpProblem{
		C: []float64{1, 1},
		A: [][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}},
		B: []float64{1, 1, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lpApprox(obj, 2) {
		t.Fatalf("obj = %v, want 2", obj)
	}
}

func TestLPZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility check: C = 0.
	x, obj, err := lpSolve(lpProblem{
		C: []float64{0, 0},
		A: [][]float64{{1, 1}, {-1, -1}},
		B: []float64{1, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lpApprox(obj, 0) || !lpApprox(x[0]+x[1], 1) {
		t.Fatalf("x=%v obj=%v", x, obj)
	}
}

// TestLPAgainstBruteForce cross-checks random small LPs against vertex
// enumeration on a box domain.
func TestLPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2
		// Box 0 <= x_i <= u_i plus one random coupling constraint.
		u := []float64{1 + rng.Float64()*3, 1 + rng.Float64()*3}
		a1, a2 := rng.Float64()*2, rng.Float64()*2
		bb := 0.5 + rng.Float64()*4
		c := []float64{rng.Float64()*4 - 1, rng.Float64()*4 - 1}
		prob := lpProblem{
			C: c,
			A: [][]float64{{1, 0}, {0, 1}, {a1, a2}},
			B: []float64{u[0], u[1], bb},
		}
		x, obj, err := lpSolve(prob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force on a fine grid.
		best := math.Inf(-1)
		steps := 200
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				xx := u[0] * float64(i) / float64(steps)
				yy := u[1] * float64(j) / float64(steps)
				if a1*xx+a2*yy <= bb+1e-12 {
					v := c[0]*xx + c[1]*yy
					if v > best {
						best = v
					}
				}
			}
		}
		if obj < best-0.05 {
			t.Fatalf("trial %d: simplex obj %v worse than grid %v (x=%v)", trial, obj, best, x)
		}
		// Solution must be feasible.
		if x[0] < -1e-9 || x[1] < -1e-9 || x[0] > u[0]+1e-6 || x[1] > u[1]+1e-6 || a1*x[0]+a2*x[1] > bb+1e-6 {
			t.Fatalf("trial %d: infeasible solution %v", trial, x)
		}
		_ = n
	}
}

// TestLPSolutionsAreFeasible: whatever lpSolve returns must satisfy every
// constraint. Random instances with equality pairs (the degree-design
// shape) exercise the artificial-variable paths.
func TestLPSolutionsAreFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		m := 2 + rng.Intn(12)
		prob := lpProblem{C: make([]float64, n)}
		for j := range prob.C {
			prob.C[j] = rng.Float64()*2 - 1
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()*2 - 1
			}
			prob.A = append(prob.A, row)
			prob.B = append(prob.B, rng.Float64()*2-0.5)
		}
		// Add an equality pair sum(x) == 1.
		one := make([]float64, n)
		neg := make([]float64, n)
		for j := range one {
			one[j] = 1
			neg[j] = -1
		}
		prob.A = append(prob.A, one, neg)
		prob.B = append(prob.B, 1, -1)
		x, _, err := lpSolve(prob)
		if err != nil {
			continue // infeasible/unbounded is fine
		}
		for i, row := range prob.A {
			lhs := 0.0
			for j := range row {
				lhs += row[j] * x[j]
			}
			if lhs > prob.B[i]+1e-5 {
				t.Fatalf("trial %d: constraint %d violated: %.6f > %.6f (x=%v)", trial, i, lhs, prob.B[i], x)
			}
		}
		for j, v := range x {
			if v < -1e-7 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, v)
			}
		}
	}
}
