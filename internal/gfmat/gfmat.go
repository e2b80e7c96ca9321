// Package gfmat provides dense matrices over the binary extension fields in
// internal/gf, with the operations the Reed-Solomon baselines need:
// Vandermonde and Cauchy construction, Gaussian elimination, inversion, and
// the systematic transform used by Rizzo-style erasure codes.
package gfmat

import (
	"fmt"

	"repro/internal/gf"
)

// Matrix is a dense row-major matrix over a field.
type Matrix struct {
	F    *gf.Field
	Rows int
	Cols int
	Data []uint32 // len Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(f *gf.Field, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gfmat: negative dimension")
	}
	return &Matrix{F: f, Rows: rows, Cols: cols, Data: make([]uint32, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(f *gf.Field, n int) *Matrix {
	m := New(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) uint32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v uint32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (not a copy).
func (m *Matrix) Row(r int) []uint32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.F, m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gfmat: shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.F, m.Rows, other.Cols)
	f := m.F
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		ro := out.Row(i)
		for l, a := range ri {
			if a == 0 {
				continue
			}
			rb := other.Row(l)
			for j, b := range rb {
				if b != 0 {
					ro[j] ^= f.Mul(a, b)
				}
			}
		}
	}
	return out
}

// Vandermonde returns the rows x cols matrix with entry (i, j) = α_i^j where
// α_i is the i-th field element in generator-power order (α_0 = 0 gives the
// row [1,0,0,...]; using distinct evaluation points keeps every square
// submatrix of the systematic construction invertible).
func Vandermonde(f *gf.Field, rows, cols int) *Matrix {
	if rows > f.Size() {
		panic("gfmat: too many Vandermonde rows for field")
	}
	m := New(f, rows, cols)
	for i := 0; i < rows; i++ {
		x := uint32(i) // distinct field elements 0,1,2,...
		v := uint32(1)
		for j := 0; j < cols; j++ {
			m.Set(i, j, v)
			v = f.Mul(v, x)
			if x == 0 && j == 0 {
				// row for x=0 is [1, 0, 0, ...]; v already 0 after Mul
				v = 0
			}
		}
	}
	return m
}

// Cauchy returns the rows x cols Cauchy matrix with entry
// (i, j) = 1 / (x_i + y_j) where x_i = i + cols and y_j = j; the x and y
// sets are disjoint so every denominator is nonzero, and rows+cols must not
// exceed the field size. Every square submatrix of a Cauchy matrix is
// invertible, which is what makes it an MDS erasure code generator.
func Cauchy(f *gf.Field, rows, cols int) *Matrix {
	if rows+cols > f.Size() {
		panic("gfmat: rows+cols exceeds field size for Cauchy matrix")
	}
	m := New(f, rows, cols)
	for i := 0; i < rows; i++ {
		xi := uint32(i + cols)
		row := m.Row(i)
		for j := 0; j < cols; j++ {
			row[j] = f.Inv(xi ^ uint32(j))
		}
	}
	return m
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination, or an error if the matrix is singular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gfmat: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	f := m.F
	a := m.Clone()
	inv := Identity(f, n)
	// Elimination coefficients are essentially one-shot (random pivots and
	// factors), so over GF(2^16) the row ops build split tables into this
	// scratch instead of the field's permanent memoizing cache — caching
	// them would pin up to 64 MiB of tables that are never reused.
	var tab *gf.MulTab16
	if f.Width() == 16 {
		tab = new(gf.MulTab16)
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("gfmat: singular matrix (column %d)", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		pv := a.At(col, col)
		if pv != 1 {
			ipv := f.Inv(pv)
			if tab != nil {
				f.MulTabInto(ipv, tab)
			}
			scaleRow(f, tab, a.Row(col), ipv)
			scaleRow(f, tab, inv.Row(col), ipv)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			c := a.At(r, col)
			if c == 0 {
				continue
			}
			if tab != nil {
				f.MulTabInto(c, tab)
			}
			addScaledRow(f, tab, a.Row(r), a.Row(col), c)
			addScaledRow(f, tab, inv.Row(r), inv.Row(col), c)
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// scaleRow multiplies a row by the constant c. Over GF(2^16) the caller
// passes the coefficient's split tables (built into reusable scratch, see
// Invert) so the table is reused across the whole row — the same
// coefficient-major shape the packet kernels use — which lowers the
// constant of the (deliberately) O(k^3) Vandermonde decode. t is nil for
// other widths.
func scaleRow(f *gf.Field, t *gf.MulTab16, row []uint32, c uint32) {
	if t != nil {
		for i, v := range row {
			if v != 0 {
				row[i] = uint32(t.Hi[v>>8] ^ t.Lo[v&0xff])
			}
		}
		return
	}
	for i, v := range row {
		if v != 0 {
			row[i] = f.Mul(v, c)
		}
	}
}

// addScaledRow computes dst ^= c * src elementwise, with the same
// caller-scratch split-table fast path as scaleRow.
func addScaledRow(f *gf.Field, t *gf.MulTab16, dst, src []uint32, c uint32) {
	if t != nil {
		for i, v := range src {
			if v != 0 {
				dst[i] ^= uint32(t.Hi[v>>8] ^ t.Lo[v&0xff])
			}
		}
		return
	}
	for i, v := range src {
		if v != 0 {
			dst[i] ^= f.Mul(v, c)
		}
	}
}

// CauchyInverse inverts a square Cauchy-form matrix given its defining point
// sets: entry (i,j) = 1/(x[i] + y[j]). It runs in O(n^2) time using the
// classical closed-form inverse, which is why the paper's Cauchy baseline
// decodes markedly faster than Vandermonde's O(n^3) elimination.
//
// The returned matrix is the inverse of C where C[i][j] = 1/(x[i]^y[j]).
func CauchyInverse(f *gf.Field, x, y []uint32) (*Matrix, error) {
	n := len(x)
	if len(y) != n {
		return nil, fmt.Errorf("gfmat: cauchy inverse needs |x| == |y|, got %d, %d", n, len(y))
	}
	// Precompute products:
	//   A[i] = prod_{j != i} (x[i]+x[j])   B[i] = prod_j (x[i]+y[j])
	//   Cp[j] = prod_i (y[j]+x[i])         D[j] = prod_{i != j} (y[j]+y[i])
	// Inverse entry (j,i) = B[i]*Cp[j] / ((x[i]+y[j]) * A[i] * D[j]).
	A := make([]uint32, n)
	B := make([]uint32, n)
	Cp := make([]uint32, n)
	D := make([]uint32, n)
	for i := 0; i < n; i++ {
		a := uint32(1)
		b := uint32(1)
		for j := 0; j < n; j++ {
			if j != i {
				t := x[i] ^ x[j]
				if t == 0 {
					return nil, fmt.Errorf("gfmat: duplicate x point %d", x[i])
				}
				a = f.Mul(a, t)
			}
			t := x[i] ^ y[j]
			if t == 0 {
				return nil, fmt.Errorf("gfmat: x and y sets intersect at %d", x[i])
			}
			b = f.Mul(b, t)
		}
		A[i], B[i] = a, b
	}
	for j := 0; j < n; j++ {
		c := uint32(1)
		d := uint32(1)
		for i := 0; i < n; i++ {
			c = f.Mul(c, y[j]^x[i])
			if i != j {
				t := y[j] ^ y[i]
				if t == 0 {
					return nil, fmt.Errorf("gfmat: duplicate y point %d", y[j])
				}
				d = f.Mul(d, t)
			}
		}
		Cp[j], D[j] = c, d
	}
	inv := New(f, n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			num := f.Mul(B[i], Cp[j])
			den := f.Mul(x[i]^y[j], f.Mul(A[i], D[j]))
			inv.Set(j, i, f.Div(num, den))
		}
	}
	return inv, nil
}
