package bitmat

import (
	"bytes"
	"fmt"
	"math/rand"
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

// addRows resets s and adds rows, row r's columns in reverse so the
// Solver cannot lean on its callers' order.
func addRows(s *Solver, rows [][]int32) {
	edges := 0
	for _, row := range rows {
		edges += len(row)
	}
	s.Reset(edges)
	for r, row := range rows {
		for i := len(row) - 1; i >= 0; i-- {
			s.Add(int32(r), row[i])
		}
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
	deficit := s.Analyze(len(sys.rows), sys.cols)
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
	sol := s.Solve(work)
	if len(sol) != sys.cols {
		t.Fatalf("%d solution payloads for %d columns", len(sol), sys.cols)
	}
	for c := range sol {
		if !bytes.Equal(sol[c], refSol[c]) || !bytes.Equal(sol[c], sys.u[c]) {
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
// deficient, adds up to 25 more one at a time with Extend, checking each
// deficit against TrySolve's rank over the same rows.
func checkExtend(t testing.TB, s *Solver, sys *system, first int) {
	t.Helper()
	addRows(s, sys.rows[:first])
	deficit := s.Analyze(first, sys.cols)
	for n := first; n < min(len(sys.rows), first+25) && deficit > 0; n++ {
		deficit = s.Extend(sys.rows[n])
		if want := sys.cols - denseRank(sys, n+1); deficit != want {
			t.Fatalf("after Extend of row %d: deficit %d, want %d", n, deficit, want)
		}
	}
}

// TestSolverAgainstTrySolve differential-tests the inactivation solver
// against dense Gauss-Jordan over every shape in testSystems, reusing one
// Solver throughout, as a decoder does across its attempts.
func TestSolverAgainstTrySolve(t *testing.T) {
	var s Solver
	solved, failed := 0, 0
	for _, tc := range testSystems() {
		t.Run(tc.name, func(t *testing.T) {
			if checkSolver(t, &s, tc.sys) {
				solved++
			} else {
				failed++
			}
		})
	}
	if solved < 20 || failed < 20 {
		t.Fatalf("table too one-sided: %d solved, %d rank-deficient", solved, failed)
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
// of the same size, failed or solved, allocates nothing.
func TestSolverRetryAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, rows := tornadoRows(rng, 300)
	for c := 0; c < cols; c++ {
		rows = append(rows, sample(rng, cols, 3, int32(c)))
	}
	for _, tc := range []struct {
		n      int
		solved bool
	}{{len(rows), true}, {len(rows) / 2, false}} {
		n := tc.n
		sys := newSystem(rng, cols, rows[:n], 64)
		work := make([][]byte, n)
		for r := range work {
			work[r] = make([]byte, 64)
		}
		var s Solver
		solved := false
		attempt := func() {
			addRows(&s, sys.rows)
			if solved = s.Analyze(len(sys.rows), sys.cols) == 0; solved {
				for r := range work {
					copy(work[r], sys.rhs[r])
				}
				s.Solve(work)
			}
		}
		if checkSolver(t, &s, sys) != tc.solved {
			t.Fatalf("%d rows: solved=%v, want %v", n, !tc.solved, tc.solved)
		}
		if attempt(); solved != tc.solved {
			t.Fatalf("%d rows: solved=%v, want %v", n, solved, tc.solved)
		}
		if a := testing.AllocsPerRun(10, attempt); a != 0 {
			t.Errorf("%d rows: %.1f allocs per warmed attempt", n, a)
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
