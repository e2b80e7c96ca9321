package peel

import "repro/internal/gf"

// The encoder, in two steps: Columns computes the L = K + s columns once
// per source, then a packet is a column (SourceOf) or the XOR of its
// neighbours over them (EncodeInto). LT, raptor and Tornado satisfy
// code.RowEncoder through these methods.

// Columns implements code.RowEncoder: src itself for a code with no static
// rows, else src and, as column K+j, the XOR of static row j, in one pass in
// order of j, since a static row names only columns below its own.
func (c *Code) Columns(src [][]byte) [][]byte {
	var checks [][]int32
	if c.CheckSrc != nil {
		checks = c.CheckSrc()
	}
	if len(checks) == 0 {
		return src
	}
	pl := c.PacketLen
	cols := append(make([][]byte, 0, c.K+len(checks)), src...)
	store := make([]byte, len(checks)*pl)
	for j, row := range checks {
		p := store[j*pl : (j+1)*pl : (j+1)*pl]
		xorColumns(p, cols, row)
		cols = append(cols, p)
	}
	return cols
}

// SourceOf implements code.RowEncoder: packet idx < Verbatim is column idx.
func (c *Code) SourceOf(idx int) int {
	if idx < c.Verbatim {
		return idx
	}
	return -1
}

// EncodeInto implements code.RowEncoder: coded packet idx is the XOR of its
// neighbours over cols. A table's row is read in place and a Sampler draws
// into a stack array, which a call through the Neighbors interface would
// move to the heap; so up to degree 256 (past the soliton spike at the
// default parameters) a warm encode allocates nothing.
func (c *Code) EncodeInto(dst []byte, cols [][]byte, idx int) {
	switch d := c.Draw.(type) {
	case *Table:
		xorColumns(dst, cols, d.Rows[idx-d.First])
	case *Sampler:
		var scratch [768]int
		xorColumns(dst, cols, d.NeighborsInto(uint32(idx), scratch[:0]))
	default:
		xorColumns(dst, cols, d.NeighborsInto(uint32(idx), nil))
	}
}

// xorColumns folds the columns vs into dst by gf.XORMany, a stack batch of
// gathered columns at a time.
func xorColumns[T int | int32](dst []byte, cols [][]byte, vs []T) {
	var gather [16][]byte
	srcs := gather[:0]
	for _, v := range vs {
		if srcs = append(srcs, cols[v]); len(srcs) == len(gather) {
			gf.XORMany(dst, srcs)
			srcs = srcs[:0]
		}
	}
	gf.XORMany(dst, srcs)
}

// Table is a neighbour function read from stored rows, a Tornado code's:
// packet index i < First is column i alone, packet First+r is Rows[r]. K is
// where MeanDegree starts counting: the packets past the sources.
type Table struct {
	K, First int
	Rows     [][]int32
}

// NeighborsInto implements Neighbors.
func (t *Table) NeighborsInto(index uint32, buf []int) []int {
	buf = buf[:0]
	if int(index) < t.First {
		return append(buf, int(index))
	}
	for _, v := range t.Rows[int(index)-t.First] {
		buf = append(buf, int(v))
	}
	return buf
}

// MeanDegree implements Neighbors.
func (t *Table) MeanDegree() float64 {
	edges := t.First - t.K
	for _, r := range t.Rows {
		edges += len(r)
	}
	return float64(edges) / float64(t.First-t.K+len(t.Rows))
}
