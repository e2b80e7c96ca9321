// Package bitmat solves GF(2) linear systems whose right-hand sides are
// packet payloads (byte slices combined by XOR).
//
// Solver (sparse.go) is the stalled-core solver both peeling decoders —
// internal/peel under LT and raptor, and Tornado — end on: inactivation
// decoding over sparse rows. Matrix and TrySolve are dense Gauss-Jordan
// elimination, kept as the reference both decoders' oracles and the
// Solver's differential tests check against.
package bitmat

import (
	"fmt"

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

// row returns the packed words of row r (a live view, not a copy).
func (m *Matrix) row(r int) []uint64 { return m.data[r*m.words : (r+1)*m.words] }

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

// TrySolve performs Gauss-Jordan elimination on the system A·u = rhs where
// the right-hand sides are packet payloads: every row operation on A is
// mirrored by an XOR of the corresponding payload buffers. It returns the
// rank of A and, at full column rank (ok), one payload per unknown
// (column), aliasing rhs. The payloads are modified in place either way;
// pass copies if the caller still needs them. Extra consistent rows are
// allowed and simply reduce to zero.
func TrySolve(a *Matrix, rhs [][]byte) (sol [][]byte, rank int, ok bool) {
	if len(rhs) != a.RowsN {
		panic(fmt.Sprintf("bitmat: %d rhs payloads for %d rows", len(rhs), a.RowsN))
	}
	for col := 0; col < a.ColsN && rank < a.RowsN; col++ {
		pivot := rank
		for pivot < a.RowsN && !a.Get(pivot, col) {
			pivot++
		}
		if pivot == a.RowsN {
			continue
		}
		if pivot != rank {
			swapWords(a.row(pivot), a.row(rank))
			rhs[pivot], rhs[rank] = rhs[rank], rhs[pivot]
		}
		for r := 0; r < a.RowsN; r++ {
			if r != rank && a.Get(r, col) {
				xorWords(a.row(r), a.row(rank))
				gf.XORSlice(rhs[r], rhs[rank])
			}
		}
		rank++
	}
	if rank < a.ColsN {
		return nil, rank, false
	}
	return rhs[:a.ColsN], rank, true
}
