package bitmat

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
)

// system is a sparse test system: rows over cols columns plus one payload
// per row, consistent with the hidden solution u.
type system struct {
	cols int
	rows [][]int32
	rhs  [][]byte
	u    [][]byte
}

// newSystem draws u and sets every row's payload to its XOR over u.
func newSystem(rng *rand.Rand, cols int, rows [][]int32, payload int) *system {
	sys := &system{cols: cols, rows: rows, u: make([][]byte, cols)}
	for c := range sys.u {
		sys.u[c] = make([]byte, payload)
		rng.Read(sys.u[c])
	}
	for _, row := range rows {
		p := make([]byte, payload)
		for _, c := range row {
			gf.XORSlice(p, sys.u[c])
		}
		sys.rhs = append(sys.rhs, p)
	}
	return sys
}

// sample returns n distinct columns in [0, cols), plus fixed.
func sample(rng *rand.Rand, cols, n int, fixed ...int32) []int32 {
	row := append([]int32(nil), fixed...)
	for _, c := range rng.Perm(cols) {
		if len(row) >= n+len(fixed) {
			break
		}
		if !contains(row, int32(c)) {
			row = append(row, int32(c))
		}
	}
	return row
}

func contains(row []int32, c int32) bool {
	for _, x := range row {
		if x == c {
			return true
		}
	}
	return false
}

// ltRows is an LT-shaped system: a degree-1 floor, mostly degree 2, a tail
// up to 8, and a few more rows than columns.
func ltRows(rng *rand.Rand, cols int) [][]int32 {
	var rows [][]int32
	for r := 0; r < cols+rng.Intn(cols/10+3); r++ {
		d := 2
		switch x := rng.Float64(); {
		case x < 0.1:
			d = 1
		case x > 0.6:
			d = 3 + rng.Intn(6)
		}
		rows = append(rows, sample(rng, cols, min(d, cols)))
	}
	return rows
}

// tornadoRows is a Tornado-shaped system: cascade levels of halving size,
// each check a static row over its own column and a few inputs from the
// level below, received rows that are single values, and a dense tail over
// the last level.
func tornadoRows(rng *rand.Rand, k int) (cols int, rows [][]int32) {
	in, inOff, next := k, 0, k
	for in >= 8 {
		out := in / 2
		for j := 0; j < out; j++ {
			ins := sample(rng, in, 2+rng.Intn(4))
			for i := range ins {
				ins[i] += int32(inOff)
			}
			rows = append(rows, append(ins, int32(next+j)))
		}
		in, inOff, next = out, next, next+out
	}
	cols = next
	for v := 0; v < cols; v++ {
		if rng.Float64() < 0.45 {
			rows = append(rows, []int32{int32(v)})
		}
	}
	for j := 0; j < in+6; j++ {
		ins := sample(rng, in, max(1, in/2))
		for i := range ins {
			ins[i] += int32(inOff)
		}
		rows = append(rows, ins)
	}
	return cols, rows
}

func denseRows(rng *rand.Rand, cols, n int) [][]int32 {
	rows := make([][]int32, n)
	for r := range rows {
		rows[r] = []int32{}
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 1 {
				rows[r] = append(rows[r], int32(c))
			}
		}
	}
	return rows
}

// redundantRows is a dense system whose first rows include XORs of earlier
// ones, so the dense part of an analysis over them holds dependent rows
// beside the independent ones, followed by fresh rows to complete the rank.
func redundantRows(rng *rand.Rand, cols int) [][]int32 {
	rows := denseRows(rng, cols, cols/2)
	for i := 0; i+1 < cols/2; i += 2 {
		var sum []int32
		for c := int32(0); c < int32(cols); c++ {
			if contains(rows[i], c) != contains(rows[i+1], c) {
				sum = append(sum, c)
			}
		}
		rows = append(rows, sum)
	}
	return append(rows, denseRows(rng, cols, cols)...)
}

// testSystems is the differential table: every shape the decoders hand
// the solver, plus the degenerate ones.
func testSystems() []struct {
	name string
	sys  *system
} {
	type entry = struct {
		name string
		sys  *system
	}
	var out []entry
	add := func(name string, rng *rand.Rand, cols int, rows [][]int32) {
		out = append(out, entry{name, newSystem(rng, cols, rows, 8)})
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{2, 7, 40, 150, 300}[seed%5]
		add(fmt.Sprintf("lt/%d/%d", n, seed), rng, n, ltRows(rng, n))
		cols, rows := tornadoRows(rng, n)
		add(fmt.Sprintf("tornado/%d/%d", n, seed), rng, cols, rows)
		m := min(n, 70)
		add(fmt.Sprintf("dense/%d/%d", m, seed), rng, m, denseRows(rng, m, m+rng.Intn(4)))
		short := ltRows(rng, n)
		add(fmt.Sprintf("deficient/%d/%d", n, seed), rng, n, short[:len(short)*3/4])
		add(fmt.Sprintf("deficient-dense/%d/%d", m, seed), rng, m, denseRows(rng, m, m-1-rng.Intn(m)))
		dup := ltRows(rng, n)
		for i := 0; i < len(dup)/4; i++ {
			dup = append(dup, dup[rng.Intn(len(dup))], []int32{})
		}
		rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
		add(fmt.Sprintf("dup-empty/%d/%d", n, seed), rng, n, dup)
		add(fmt.Sprintf("redundant/%d/%d", m, seed), rng, m, redundantRows(rng, m))
	}
	rng := rand.New(rand.NewSource(0))
	add("cols0", rng, 0, nil)
	add("cols0-rows", rng, 0, [][]int32{{}, {}})
	add("cols1", rng, 1, [][]int32{{0}})
	add("cols1-none", rng, 1, [][]int32{{}})
	add("cols1-dup", rng, 1, [][]int32{{}, {0}, {0}})
	add("cols1-norow", rng, 1, nil)
	return out
}

// addRows resets s and adds rows, each row's columns in reverse so the
// Solver cannot lean on its callers' order.
func addRows(s *Solver, rows [][]int32) {
	edges := 0
	for _, row := range rows {
		edges += len(row)
	}
	s.Reset(len(rows), edges)
	for _, row := range rows {
		slices.Reverse(row)
		s.AddRow(row)
		slices.Reverse(row)
	}
}

// checkSolver runs one attempt of s on sys and checks it against TrySolve
// on a dense copy: same verdict, deficit = cols − rank, payloads untouched
// by a failed attempt, and the same solution bytes (which are u's). It
// reports whether the system had full rank.
func checkSolver(t testing.TB, s *Solver, sys *system) bool {
	t.Helper()
	m := New(len(sys.rows), sys.cols)
	ref := make([][]byte, len(sys.rows))
	for r, row := range sys.rows {
		for _, c := range row {
			m.Set(r, int(c), true)
		}
		ref[r] = append([]byte(nil), sys.rhs[r]...)
	}
	refSol, rank, ok := TrySolve(m, ref)
	if ok {
		rank = sys.cols
	}

	work := make([][]byte, len(sys.rows))
	for r := range work {
		work[r] = append([]byte(nil), sys.rhs[r]...)
	}
	addRows(s, sys.rows)
	deficit := s.Analyze(sys.cols)
	if deficit != sys.cols-rank {
		t.Fatalf("deficit %d, want cols %d − rank %d", deficit, sys.cols, rank)
	}
	if (deficit == 0) != ok {
		t.Fatalf("deficit %d but TrySolve ok=%v", deficit, ok)
	}
	if !ok {
		for r := range work {
			if !bytes.Equal(work[r], sys.rhs[r]) {
				t.Fatalf("row %d payload changed by a failed attempt", r)
			}
		}
		return false
	}
	at := s.Solve(work)
	if len(at) != sys.cols {
		t.Fatalf("%d solution rows for %d columns", len(at), sys.cols)
	}
	held := map[int32]bool{}
	for c, r := range at {
		if held[r] {
			t.Fatalf("column %d's value in row %d, which holds another column's", c, r)
		}
		held[r] = true
		if !bytes.Equal(work[r], refSol[c]) || !bytes.Equal(work[r], sys.u[c]) {
			t.Fatalf("column %d differs from TrySolve's solution or from u", c)
		}
	}
	return true
}

// denseRank is the rank of sys's first n rows, by TrySolve.
func denseRank(sys *system, n int) int {
	m := New(n, sys.cols)
	rhs := make([][]byte, n)
	for r, row := range sys.rows[:n] {
		for _, c := range row {
			m.Set(r, int(c), true)
		}
	}
	_, rank, _ := TrySolve(m, rhs)
	return rank
}

// checkExtend analyses sys's first rows, then, while the system stays
// deficient, offers the rest one at a time to Extend, checking each deficit
// against TrySolve's rank over the same rows. If the deficit reaches zero
// it solves on the payloads of the analysed rows and of the rows Extend
// kept, and checks the bytes against TrySolve's over every row offered. It
// reports whether it solved.
func checkExtend(t testing.TB, s *Solver, sys *system, first int) bool {
	t.Helper()
	addRows(s, sys.rows[:first])
	deficit := s.Analyze(sys.cols)
	var work [][]byte
	for _, p := range sys.rhs[:first] {
		work = append(work, append([]byte(nil), p...))
	}
	n := first
	for ; n < len(sys.rows) && deficit > 0; n++ {
		before := deficit
		deficit = s.Extend(sys.rows[n])
		if want := sys.cols - denseRank(sys, n+1); deficit != want {
			t.Fatalf("after Extend of row %d: deficit %d, want %d", n, deficit, want)
		}
		if deficit < before {
			work = append(work, append([]byte(nil), sys.rhs[n]...))
		}
	}
	if deficit > 0 {
		return false
	}
	m := New(n, sys.cols)
	ref := make([][]byte, n)
	for r, row := range sys.rows[:n] {
		for _, c := range row {
			m.Set(r, int(c), true)
		}
		ref[r] = append([]byte(nil), sys.rhs[r]...)
	}
	refSol, _, _ := TrySolve(m, ref)
	for c, r := range s.Solve(work) {
		if !bytes.Equal(work[r], refSol[c]) || !bytes.Equal(work[r], sys.u[c]) {
			t.Fatalf("column %d after Extend differs from TrySolve's solution or from u", c)
		}
	}
	return true
}

// TestSolverAgainstTrySolve differential-tests the inactivation solver
// against dense Gauss-Jordan over every shape in testSystems, reusing one
// Solver throughout, as a decoder does across its attempts: once with every
// row analysed, once with the first half analysed and the rest offered to
// Extend, solving as soon as the deficit is gone.
func TestSolverAgainstTrySolve(t *testing.T) {
	var s Solver
	solved, failed, extended := 0, 0, 0
	for _, tc := range testSystems() {
		t.Run(tc.name, func(t *testing.T) {
			if checkSolver(t, &s, tc.sys) {
				solved++
			} else {
				failed++
			}
			if checkExtend(t, &s, tc.sys, len(tc.sys.rows)/2) {
				extended++
			}
		})
	}
	if solved < 20 || failed < 20 || extended < 20 {
		t.Fatalf("table too one-sided: %d solved, %d rank-deficient, %d solved after Extend", solved, failed, extended)
	}
}

// TestSolverExtendTracksRank: after a deficient Analyze, each row Extend
// adds moves the deficit exactly as the rank of the grown system does.
func TestSolverExtendTracksRank(t *testing.T) {
	var s Solver
	for _, tc := range testSystems() {
		t.Run(tc.name, func(t *testing.T) {
			checkExtend(t, &s, tc.sys, len(tc.sys.rows)*3/4)
		})
	}
}

// TestSolverRetryAllocatesNothing: a warmed Solver re-attempting a system
// of the same size — failed, solved, or solved after Extend kept rows —
// allocates nothing.
func TestSolverRetryAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, rows := tornadoRows(rng, 300)
	for c := 0; c < cols; c++ {
		rows = append(rows, sample(rng, cols, 3, int32(c)))
	}
	for _, tc := range []struct {
		n, first int
		solved   bool
	}{{len(rows), len(rows), true}, {len(rows) / 2, len(rows) / 2, false}, {len(rows), len(rows) / 2, true}} {
		sys := newSystem(rng, cols, rows[:tc.n], 64)
		work := make([][]byte, tc.n)
		for r := range work {
			work[r] = make([]byte, 64)
		}
		var s Solver
		solved := false
		attempt := func() {
			addRows(&s, sys.rows[:tc.first])
			deficit, kept := s.Analyze(sys.cols), tc.first
			for r := tc.first; r < tc.n && deficit > 0; r++ {
				before := deficit
				if deficit = s.Extend(sys.rows[r]); deficit < before {
					copy(work[kept], sys.rhs[r])
					kept++
				}
			}
			if solved = deficit == 0; solved {
				for r := range sys.rhs[:tc.first] {
					copy(work[r], sys.rhs[r])
				}
				s.Solve(work[:kept])
			}
		}
		if checkExtend(t, &s, sys, tc.first) != tc.solved {
			t.Fatalf("%d rows, %d analysed: solved=%v, want %v", tc.n, tc.first, !tc.solved, tc.solved)
		}
		if attempt(); solved != tc.solved {
			t.Fatalf("%d rows, %d analysed: solved=%v, want %v", tc.n, tc.first, solved, tc.solved)
		}
		if a := testing.AllocsPerRun(10, attempt); a != 0 {
			t.Errorf("%d rows, %d analysed: %.1f allocs per warmed attempt", tc.n, tc.first, a)
		}
	}
}

// perPivot is the Gauss-Jordan eliminate replaces, kept as its reference:
// the same steps over rows, a full-rank square system over s's inactivated
// columns, with each pivot's payload XORed into every row it hits at its
// own step. It returns the payload XORs, or -1 if the rows are singular.
func perPivot(s *Solver, rows []int32, x [][]byte) (xors int) {
	w, n := s.w, len(rows)
	dense := make([]uint64, n*w)
	for j, r := range rows {
		copy(dense[j*w:(j+1)*w], s.vecOf(r))
	}
	for i := range n {
		wi, bit := i/64, uint64(1)<<(i%64)
		p := i
		for p < n && dense[p*w+wi]&bit == 0 {
			p++
		}
		if p == n {
			return -1
		}
		swapWords(dense[p*w:(p+1)*w], dense[i*w:(i+1)*w])
		rows[p], rows[i] = rows[i], rows[p]
		x[p], x[i] = x[i], x[p]
		for j := range n {
			if j != i && dense[j*w+wi]&bit != 0 {
				xorWords(dense[j*w:(j+1)*w], dense[i*w:(i+1)*w])
				gf.XORSlice(x[j], x[i])
				xors++
			}
		}
	}
	return xors
}

// TestBlockedEliminationMatchesPerPivot: on random full-rank dense systems
// of one block less one, one, one more, and several and a part, eliminate
// leaves the same rows in the same order with the same payloads, after the
// same number of XORs, as the step-by-step reference.
func TestBlockedEliminationMatchesPerPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, block - 1, block, block + 1, 3*block + 5} {
		for trial := range 3 {
			var s Solver
			s.w, s.inact = (n+63)/64, make([]int32, n)
			s.vec = make([]uint64, n*s.w)
			rows := make([]int32, n)
			x := make([][]byte, n)
			var want [][]byte
			var wantRows []int32
			wantXORs := -1
			for wantXORs < 0 {
				for r := range rows {
					rows[r] = int32(r)
					v := s.vecOf(int32(r))
					for k := range v {
						v[k] = rng.Uint64()
					}
					if n%64 != 0 {
						v[len(v)-1] &= 1<<(n%64) - 1
					}
					x[r] = make([]byte, 16)
					rng.Read(x[r])
				}
				wantRows = slices.Clone(rows)
				want = make([][]byte, n)
				for r := range want {
					want[r] = slices.Clone(x[r])
				}
				wantXORs = perPivot(&s, wantRows, want)
			}
			s.eliminate(rows, x)
			if !slices.Equal(rows, wantRows) {
				t.Fatalf("n=%d trial %d: pivot rows in another order than the step-by-step elimination's", n, trial)
			}
			if s.XORs() != wantXORs {
				t.Fatalf("n=%d trial %d: %d XORs, want %d", n, trial, s.XORs(), wantXORs)
			}
			for i := range x {
				if !bytes.Equal(x[i], want[i]) {
					t.Fatalf("n=%d trial %d: column %d's value differs from the step-by-step elimination's", n, trial, i)
				}
			}
		}
	}
}

// FuzzSolveSparse decodes a system from bytes — column count, then rows as
// a degree byte and that many column bytes — and checks the solver against
// TrySolve as TestSolverAgainstTrySolve and TestSolverExtendTracksRank do.
func FuzzSolveSparse(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 1, 2, 1, 2, 1, 0})
	f.Add([]byte{5, 9, 2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 4, 2, 4, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		cols := int(in[0]) % 70
		var rows [][]int32
		for b := in[2:]; len(b) > 0 && len(rows) < 200; {
			d := int(b[0]) % 9
			b = b[1:]
			row := []int32{}
			for ; d > 0 && len(b) > 0 && cols > 0; d-- {
				if c := int32(int(b[0]) % cols); !contains(row, c) {
					row = append(row, c)
				}
				b = b[1:]
			}
			rows = append(rows, row)
		}
		var s Solver
		sys := newSystem(rand.New(rand.NewSource(int64(in[1]))), cols, rows, 4)
		checkSolver(t, &s, sys)
		checkExtend(t, &s, sys, len(rows)/2)
	})
}
