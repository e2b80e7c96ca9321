// Package bitmat implements dense matrices over GF(2) stored as packed
// 64-bit words, plus Gaussian elimination for linear systems whose
// right-hand sides are packet payloads (byte slices combined by XOR).
//
// Two users: the dense random code that terminates a Tornado cascade (the
// paper's codes are XOR-only, so the final "conventional" code is a random
// binary code solved by elimination), and the bit-matrix form of Cauchy
// Reed-Solomon coding.
package bitmat

import (
	"fmt"
	"math/bits"

	"repro/internal/gf"
)

// Matrix is a rows x cols matrix over GF(2), each row packed into uint64
// words, least-significant bit first.
type Matrix struct {
	RowsN int
	ColsN int
	words int // words per row
	data  []uint64
}

// New returns a zero rows x cols bit matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimension")
	}
	w := (cols + 63) / 64
	return &Matrix{RowsN: rows, ColsN: cols, words: w, data: make([]uint64, rows*w)}
}

// Row returns the packed words of row r (a live view, not a copy).
func (m *Matrix) Row(r int) []uint64 { return m.data[r*m.words : (r+1)*m.words] }

// Reset reshapes m to a zero rows x cols matrix, reusing the backing
// storage when it is large enough. It lets hot paths (the Tornado decoder's
// repeated elimination attempts) rebuild systems without allocating.
func (m *Matrix) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimension")
	}
	w := (cols + 63) / 64
	n := rows * w
	if cap(m.data) < n {
		m.data = make([]uint64, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.RowsN, m.ColsN, m.words = rows, cols, w
}

// CopyFrom makes m an exact copy of src, reusing m's backing storage when
// possible.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.Reset(src.RowsN, src.ColsN)
	copy(m.data, src.data)
}

// RankDestructive computes the rank of m, destroying its contents in the
// process. Unlike Rank it performs no allocation, which is what the
// Tornado decoder's rank precheck needs: it tests solvability on a scratch
// copy before committing the payload right-hand sides to an in-place
// elimination.
func (m *Matrix) RankDestructive() int {
	return rankFrom(m, 0, 0)
}

// Get reports bit (r, c).
func (m *Matrix) Get(r, c int) bool {
	return m.data[r*m.words+c/64]&(1<<(uint(c)%64)) != 0
}

// Set sets bit (r, c) to v.
func (m *Matrix) Set(r, c int, v bool) {
	idx := r*m.words + c/64
	bit := uint64(1) << (uint(c) % 64)
	if v {
		m.data[idx] |= bit
	} else {
		m.data[idx] &^= bit
	}
}

// XorRow adds (XORs) row src into row dst.
func (m *Matrix) XorRow(dst, src int) {
	d := m.Row(dst)
	s := m.Row(src)
	for i := range d {
		d[i] ^= s[i]
	}
}

// SwapRows exchanges two rows.
func (m *Matrix) SwapRows(a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// RowWeight returns the number of set bits in row r.
func (m *Matrix) RowWeight(r int) int {
	n := 0
	for _, w := range m.Row(r) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.RowsN, m.ColsN)
	copy(c.data, m.data)
	return c
}

// firstSetFrom returns the index of the first set bit at or after column c
// in row r, or -1.
func (m *Matrix) firstSetFrom(r, c int) int {
	row := m.Row(r)
	wi := c / 64
	if wi >= m.words {
		return -1
	}
	w := row[wi] >> (uint(c) % 64)
	if w != 0 {
		return c + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < m.words; i++ {
		if row[i] != 0 {
			return i*64 + bits.TrailingZeros64(row[i])
		}
	}
	return -1
}

// Rank computes the rank of the matrix (destroys a copy, not m).
func (m *Matrix) Rank() int {
	a := m.Clone()
	rank := 0
	for col := 0; col < a.ColsN && rank < a.RowsN; col++ {
		pivot := -1
		for r := rank; r < a.RowsN; r++ {
			if a.Get(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a.SwapRows(pivot, rank)
		for r := 0; r < a.RowsN; r++ {
			if r != rank && a.Get(r, col) {
				a.XorRow(r, rank)
			}
		}
		rank++
	}
	return rank
}

// TrySolve performs Gauss-Jordan elimination on the system A·u = rhs where
// the right-hand sides are packet payloads: every row operation on A is
// mirrored by an XOR of the corresponding payload buffers. On success it
// returns one payload per unknown (column). rhs payloads are modified in
// place; pass copies if the caller still needs them. Extra consistent rows
// are allowed and simply reduce to zero.
//
// An under-determined system (rank < cols) returns ok = false and the
// achieved rank, letting callers (the Tornado decoder) know how many more
// independent equations they must wait for before retrying.
func TrySolve(a *Matrix, rhs [][]byte) (sol [][]byte, rank int, ok bool) {
	if len(rhs) != a.RowsN {
		panic(fmt.Sprintf("bitmat: %d rhs payloads for %d rows", len(rhs), a.RowsN))
	}
	for col := 0; col < a.ColsN; col++ {
		pivot := -1
		for r := rank; r < a.RowsN; r++ {
			if a.Get(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			// Count remaining independent columns for an accurate rank.
			return nil, rankFrom(a, rank, col), false
		}
		if pivot != rank {
			a.SwapRows(pivot, rank)
			rhs[pivot], rhs[rank] = rhs[rank], rhs[pivot]
		}
		for r := 0; r < a.RowsN; r++ {
			if r != rank && a.Get(r, col) {
				a.XorRow(r, rank)
				gf.XORSlice(rhs[r], rhs[rank])
			}
		}
		rank++
	}
	out := make([][]byte, a.ColsN)
	for c := 0; c < a.ColsN; c++ {
		out[c] = rhs[c]
	}
	return out, rank, true
}

// rankFrom continues elimination (matrix only) from a partially reduced
// state to compute the true rank after a pivot failure at column col.
func rankFrom(a *Matrix, rank, col int) int {
	for ; col < a.ColsN && rank < a.RowsN; col++ {
		pivot := -1
		for r := rank; r < a.RowsN; r++ {
			if a.Get(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a.SwapRows(pivot, rank)
		for r := rank + 1; r < a.RowsN; r++ {
			if a.Get(r, col) {
				a.XorRow(r, rank)
			}
		}
		rank++
	}
	return rank
}

// MulBits returns the bit-matrix of multiplication by e in GF(2^w):
// a w x w matrix M (packed into a single []uint64 per the row count) with
// M[i][j] = bit i of e·2^j. Applying M to the bit-decomposition of x yields
// the bit-decomposition of e·x. This is the expansion Cauchy Reed-Solomon
// codes use to turn field multiplications into pure XORs of sub-packets.
func MulBits(f *gf.Field, e uint32) *Matrix {
	w := int(f.Width())
	m := New(w, w)
	for j := 0; j < w; j++ {
		col := f.Mul(e, 1<<uint(j))
		for i := 0; i < w; i++ {
			if col&(1<<uint(i)) != 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}
