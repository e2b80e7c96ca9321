package bitmat

import (
	"math/bits"
	"slices"

	"repro/internal/gf"
)

// Solver is the inactivation solver both decoders solve with: a sparse
// GF(2) system whose right-hand sides are packet payloads, solved by
// inactivation decoding (RFC 5053/6330; Qureshi et al.'s Primer).
//
// Rows are added in order, as their column lists (AddRow). Analyze is the
// symbolic phase. It peels by degree-one rows; when that stalls it
// inactivates a column and keeps peeling, so every column ends peeled (by
// one pivot row, as a function of earlier peeled and of inactivated
// columns) or inactivated. The other rows then say something only about the
// inactivated set — a small dense system, and rank = peeled + its rank. No
// payload byte is read or written. After a deficient Analyze, Extend tells
// in O((row degree + rank) · inactivated/64) word operations whether one
// more row raises the rank, and keeps it in the system if it does, so a
// decoder analyses once and solves as soon as the deficit is gone.
//
// Solve is the payload phase, legal only at full rank: O(residual edges +
// inactivated²) XORs, in place on the caller's row buffers, which become
// the solution. All scratch lives in the Solver, so a warmed Solver
// attempts again without allocating.
type Solver struct {
	cols       int
	off, idx   []int32 // row r's columns are idx[off[r]:off[r+1]]
	colOff, cr []int32 // column c's rows are cr[colOff[c]:colOff[c+1]]

	deg    []int32  // per row: columns neither peeled nor inactivated
	state  []int32  // per column: its pivot row (>= 0), active, or -2-i when inactivated as bit i
	rowCol []int32  // per row: the column it peels, or noPivot
	order  []int32  // peeled columns, in peeling order
	inact  []int32  // inactivated columns: bit i is column inact[i]
	queue  []int32  // rows fallen to degree one
	byDeg  []uint64 // ^rows<<32 | column, sorted: the inactivation order

	w     int      // words per vector over the inactivated set
	vec   []uint64 // per row: its inactivated part, peeled columns substituted
	dep   []uint8  // per pivot row: independent, or how Solve finishes it
	dense []uint64 // rows under elimination; [:rank] in echelon form
	drows []int32  // non-pivot rows with a nonzero vec; [:rank] independent
	rank  int      // of the dense system
	x     [][]byte // Solve: the inactivated columns' values, x[i] = rhs[drows[i]]
	at    []int32  // Solve: per column, the row whose payload holds its value
	xors  int      // payload XORs of the last Solve
}

const (
	active  = -1
	noPivot = -1
)

// A pivot row's dep: an independent one's vec is zero.
const (
	independent = iota
	redoRow     // strip its dependent columns' b, add their values and x
	addVec      // add vec·x
)

// Reset starts a new system, before its first AddRow, of about rows rows
// and edges coefficients, keeping all scratch. The counts only size
// storage, so a first attempt allocates once instead of growing.
func (s *Solver) Reset(rows, edges int) {
	s.off, s.idx = append(slices.Grow(s.off[:0], rows+1), 0), slices.Grow(s.idx[:0], edges)
}

// AddRow appends the next row, r: ⊕ of its columns = rhs[r]. Each column
// at most once, in any order.
func (s *Solver) AddRow(cols []int32) {
	s.idx = append(s.idx, cols...)
	s.off = append(s.off, int32(len(s.idx)))
}

// Analyze runs the symbolic phase over the rows added since Reset and cols
// columns and returns the rank deficit, cols minus the rank. Zero means
// Solve will succeed.
func (s *Solver) Analyze(cols int) (deficit int) {
	rows := len(s.off) - 1
	s.cols = cols
	s.transpose()
	s.deg, s.rowCol, s.queue = resize(s.deg, rows), resize(s.rowCol, rows), s.queue[:0]
	for r := range s.deg {
		s.deg[r], s.rowCol[r] = s.off[r+1]-s.off[r], noPivot
		if s.deg[r] == 1 {
			s.queue = append(s.queue, int32(r))
		}
	}
	// A column's rows do not change while it is active (a pivot row holds
	// no active column but its own), so the column in the most rows, the
	// one whose inactivation takes an unknown from the most rows, is known
	// up front.
	s.state, s.byDeg = resize(s.state, cols), resize(s.byDeg, cols)
	for c := range s.state {
		s.state[c] = active
		s.byDeg[c] = uint64(^uint32(s.colOff[c+1]-s.colOff[c]))<<32 | uint64(c)
	}
	slices.Sort(s.byDeg)
	s.order, s.inact = slices.Grow(s.order[:0], cols), s.inact[:0]
	for next := 0; len(s.order)+len(s.inact) < cols; {
		if len(s.queue) == 0 {
			for s.state[uint32(s.byDeg[next])] != active {
				next++
			}
			c := int32(uint32(s.byDeg[next]))
			s.state[c] = int32(-2 - len(s.inact))
			s.inact = append(s.inact, c)
			s.retire(c)
			continue
		}
		r := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if s.deg[r] != 1 {
			continue // its last active column went to another row first
		}
		for _, c := range s.row(r) {
			if s.state[c] == active {
				s.state[c], s.rowCol[r] = r, c
				s.order = append(s.order, c)
				s.retire(c)
				break
			}
		}
	}
	s.w = (len(s.inact) + 63) / 64
	s.vec, s.dep = resize(s.vec, rows*s.w), resize(s.dep, rows)
	for _, c := range s.order {
		if r := s.state[c]; s.express(s.vecOf(r), s.row(r), c) {
			s.dep[r] = redoRow
		} else {
			s.dep[r] = independent
		}
	}
	s.drows = s.drows[:0]
	for r := int32(0); r < int32(rows); r++ {
		if s.rowCol[r] == noPivot && s.express(s.vecOf(r), s.row(r), -1) {
			s.drows = append(s.drows, r)
		}
	}
	s.rank = s.reduce(s.drows, nil)
	return len(s.inact) - s.rank
}

// transpose indexes the rows by column: column c's rows, in increasing
// order, end as cr[colOff[c]:colOff[c+1]].
func (s *Solver) transpose() {
	off := resize(s.colOff, s.cols+1)
	clear(off)
	for _, c := range s.idx {
		off[c]++
	}
	for c := 1; c <= s.cols; c++ {
		off[c] += off[c-1] // the end of c, until the fill below
	}
	s.cr = resize(s.cr, len(s.idx))
	for r := int32(len(s.off) - 2); r >= 0; r-- {
		for _, c := range s.row(r) {
			off[c]--
			s.cr[off[c]] = r
		}
	}
	s.colOff = off
}

// retire takes column c out of every row's active count.
func (s *Solver) retire(c int32) {
	for _, r := range s.cr[s.colOff[c]:s.colOff[c+1]] {
		if s.deg[r]--; s.deg[r] == 1 {
			s.queue = append(s.queue, r)
		}
	}
}

// express sets v to the row over cols, but skip, over the inactivated set,
// its peeled columns substituted, and reports it nonzero.
func (s *Solver) express(v []uint64, cols []int32, skip int32) bool {
	clear(v)
	for _, c := range cols {
		if st := s.state[c]; st < 0 {
			i := -2 - int(st)
			v[i/64] ^= 1 << (i % 64)
		} else if c != skip {
			xorWords(v, s.vecOf(st))
		}
	}
	return slices.ContainsFunc(v, nonzero)
}

// Extend offers one more row to the system Analyze last found deficient,
// given as its columns there (one given twice cancels), and returns the
// deficit left. The row raises the rank iff, its peeled columns
// substituted, it is independent of the dense rows; then it becomes the
// system's next row, and Solve takes its payload after the analysed rows'
// and those of the rows Extend kept before it. A row that does not raise
// the rank is dropped.
func (s *Solver) Extend(cols []int32) (deficit int) {
	w, r := s.w, int32(len(s.off)-1)
	s.vec = slices.Grow(s.vec, w)[:(int(r)+1)*w]
	s.dense = slices.Grow(s.dense[:s.rank*w], w)[:(s.rank+1)*w]
	v := s.dense[s.rank*w:]
	s.express(s.vecOf(r), cols, -1)
	copy(v, s.vecOf(r))
	for p := 0; p < s.rank; p++ {
		// An echelon row's pivot is its first set bit and the rows stored
		// after it are zero there, so one pass clears v at every pivot.
		row := s.dense[p*w : (p+1)*w]
		if k := slices.IndexFunc(row, nonzero); v[k]&row[k]&-row[k] != 0 {
			xorWords(v, row)
		}
	}
	if !slices.ContainsFunc(v, nonzero) {
		s.vec = s.vec[:int(r)*w]
		return len(s.inact) - s.rank
	}
	s.AddRow(cols)
	s.rowCol = append(s.rowCol, noPivot)
	s.drows = append(s.drows, r)
	last := len(s.drows) - 1
	s.drows[s.rank], s.drows[last] = s.drows[last], s.drows[s.rank]
	s.rank++
	return len(s.inact) - s.rank
}

// reduce eliminates rows' vecs column by column, keeping rows (and x, their
// payloads, when given) in step with the pivots, and returns the rank.
// Without payloads it only ranks, clearing below each pivot; with them it
// is Gauss-Jordan over a full-rank square system, and x ends as the
// inactivated columns' values. Columns left of a pivot are never read
// again, so a row operation XORs only the words from the pivot's on.
func (s *Solver) reduce(rows []int32, x [][]byte) (rank int) {
	w, n := s.w, len(rows)
	s.dense = resize(s.dense, n*w)
	for j, r := range rows {
		copy(s.dense[j*w:(j+1)*w], s.vec[int(r)*w:int(r+1)*w])
	}
	for i := 0; i < len(s.inact) && rank < n; i++ {
		wi, bit := i/64, uint64(1)<<(i%64)
		p := rank
		for p < n && s.dense[p*w+wi]&bit == 0 {
			p++
		}
		if p == n {
			continue
		}
		if p != rank {
			swapWords(s.dense[p*w:(p+1)*w], s.dense[rank*w:(rank+1)*w])
			rows[p], rows[rank] = rows[rank], rows[p]
			if x != nil {
				x[p], x[rank] = x[rank], x[p]
			}
		}
		pr, lo := s.dense[rank*w+wi:(rank+1)*w], rank+1
		if x != nil {
			lo = 0
		}
		for j := lo; j < n; j++ {
			if o := j*w + wi; j != rank && s.dense[o]&bit != 0 {
				xorWords(s.dense[o:o+len(pr)], pr)
				if x != nil {
					s.xor(x[j], x[rank])
				}
			}
		}
		rank++
	}
	return rank
}

// Solve runs the payload phase once the deficit is 0. rhs holds one
// payload per row: the analysed rows', then those Extend kept. It solves in
// place and returns, per column, the row whose payload now holds its value:
// column c's is rhs[at[c]], and no two columns share a row. The returned
// slice is the Solver's and valid until the next Reset.
func (s *Solver) Solve(rhs [][]byte) (at []int32) {
	if s.rank != len(s.inact) {
		panic("bitmat: Solve on a rank-deficient system")
	}
	s.xors = 0
	// Each peeled column's constant part b: its pivot row's payload plus
	// the b of the earlier peeled columns in that row. Then the dense
	// pivots' right-hand sides, and the inactivated values from them.
	for _, c := range s.order {
		s.substitute(s.state[c], rhs, false, nil)
	}
	dense := s.drows[:s.rank]
	s.x = s.x[:0]
	for _, r := range dense {
		s.substitute(r, rhs, false, nil)
		s.x = append(s.x, rhs[r])
	}
	s.reduce(dense, s.x)
	// A peeled column's value is its b plus its dependence on the
	// inactivated values, vec·x, so only the dependent columns are not done.
	// Each gets vec·x added directly, or its row redone — strip the
	// dependent columns' b (in reverse, so each still sees the b before it),
	// then add their values and the inactivated ones — whichever takes
	// fewer XORs. An independent column's b is its value: it would be XORed
	// out and back in, so it is skipped both ways.
	for _, c := range s.order {
		r := s.state[c]
		if s.dep[r] == independent {
			continue
		}
		n := 0 // adding vec·x's XORs less redoing the row's
		for _, x := range s.vecOf(r) {
			n += bits.OnesCount64(x)
		}
		for _, cc := range s.row(r) {
			if st := s.state[cc]; st < 0 {
				n--
			} else if cc != c && s.dep[st] != independent {
				n -= 2
			}
		}
		if n < 0 {
			s.dep[r] = addVec
		}
	}
	for p := len(s.order) - 1; p >= 0; p-- {
		if r := s.state[s.order[p]]; s.dep[r] == redoRow {
			s.substitute(r, rhs, true, nil)
		}
	}
	for _, c := range s.order {
		switch r := s.state[c]; s.dep[r] {
		case redoRow:
			s.substitute(r, rhs, true, s.x)
		case addVec:
			for k, word := range s.vecOf(r) {
				for ; word != 0; word &= word - 1 {
					s.xor(rhs[r], s.x[k*64+bits.TrailingZeros64(word)])
				}
			}
		}
	}
	s.at = resize(s.at, s.cols)
	for _, c := range s.order {
		s.at[c] = s.state[c]
	}
	for i, c := range s.inact {
		s.at[c] = dense[i]
	}
	return s.at
}

// substitute XORs into rhs[r] the payload of each peeled column of row r
// but the one it peels — only the dependent ones if depOnly — and, given
// x, the value of each inactivated one.
func (s *Solver) substitute(r int32, rhs [][]byte, depOnly bool, x [][]byte) {
	for _, c := range s.row(r) {
		switch st := s.state[c]; {
		case st < 0 && x != nil:
			s.xor(rhs[r], x[-2-int(st)])
		case st >= 0 && c != s.rowCol[r] && (!depOnly || s.dep[st] != independent):
			s.xor(rhs[r], rhs[st])
		}
	}
}

// Inactivated returns the number of columns the last Analyze inactivated.
func (s *Solver) Inactivated() int { return len(s.inact) }

// XORs returns the number of payload XORs the last Solve performed.
func (s *Solver) XORs() int { return s.xors }

func (s *Solver) xor(dst, src []byte) {
	gf.XORSlice(dst, src)
	s.xors++
}

func (s *Solver) row(r int32) []int32 { return s.idx[s.off[r]:s.off[r+1]] }

func (s *Solver) vecOf(r int32) []uint64 { return s.vec[int(r)*s.w : int(r+1)*s.w] }

func nonzero(x uint64) bool { return x != 0 }

func xorWords(dst, src []uint64) {
	for k, x := range src {
		dst[k] ^= x
	}
}

func swapWords(a, b []uint64) {
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// resize returns a slice of length n, reusing s's storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
