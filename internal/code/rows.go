package code

import (
	"errors"
	"fmt"
)

// RowEncoder is the encode contract of every codec: packet idx is a pure
// function of (src, idx), read from the code's columns. A code with static
// rows (raptor's precode, Tornado's cascade) has L = K + s columns, the K
// sources and s checks computed from them once; every other code's columns
// are src itself. A codec states this in three methods; the window and
// whole-encoding forms (EncodeRows, EncodeAll) and the session's emission
// path are built from them.
type RowEncoder interface {
	// K, N and PacketLen are the source packets, the encoding packets
	// (stretch = N/K) and the packet length in bytes.
	K() int
	N() int
	PacketLen() int
	// Columns returns the columns of src, which passed CheckSrc: src
	// itself, or L packets whose first K alias src. It is the one step
	// whose cost grows with K, so a caller computes it once per source.
	Columns(src [][]byte) [][]byte
	// SourceOf returns the index of the column that encoding packet idx
	// carries verbatim, or -1 when idx is a coded packet.
	SourceOf(idx int) int
	// EncodeInto accumulates coded packet idx into dst, which must be
	// PacketLen zero bytes, from cols, what Columns returned. Nothing is
	// re-checked here: the caller guarantees that 0 <= idx < N and that
	// SourceOf(idx) < 0. It is safe for concurrent use and, at default
	// codec parameters, allocates nothing.
	EncodeInto(dst []byte, cols [][]byte, idx int)
}

// EncodeRows is the window form of a RowEncoder: encoding packets [lo, hi)
// of c, with src and the range validated. Entries that are columns alias
// them (src, for a source packet); the coded rows share one fresh backing
// store.
func EncodeRows(c RowEncoder, src [][]byte, lo, hi int) ([][]byte, error) {
	return encodeRows(c, src, lo, hi, func(n int, fn func(lo, hi int)) { fn(0, n) })
}

// EncodeAll is the whole encoding of a fixed-rate codec: EncodeRows over
// [0, N), with the coded rows — not the index range, whose systematic part
// is no work — split across ParallelChunks. A rateless codec has no whole
// encoding and is refused.
func EncodeAll(c RowEncoder, src [][]byte) ([][]byte, error) {
	if IsRateless(c) {
		return nil, ErrUnbounded
	}
	return encodeRows(c, src, 0, c.N(), ParallelChunks)
}

// ErrUnbounded is returned by EncodeAll for a rateless codec.
var ErrUnbounded = errors.New("code: a rateless codec has no whole encoding; encode a window with EncodeRows")

func encodeRows(c RowEncoder, src [][]byte, lo, hi int, split func(n int, fn func(lo, hi int))) ([][]byte, error) {
	pl := c.PacketLen()
	if err := CheckSrc(src, c.K(), pl); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > c.N() {
		return nil, fmt.Errorf("code: encode range [%d,%d) out of [0,%d)", lo, hi, c.N())
	}
	cols := c.Columns(src)
	out := make([][]byte, hi-lo)
	var coded []int
	for i := lo; i < hi; i++ {
		if f := c.SourceOf(i); f >= 0 {
			out[i-lo] = cols[f]
		} else {
			coded = append(coded, i)
		}
	}
	store := make([]byte, len(coded)*pl)
	split(len(coded), func(a, b int) {
		for r := a; r < b; r++ {
			p := store[r*pl : (r+1)*pl : (r+1)*pl]
			c.EncodeInto(p, cols, coded[r])
			out[coded[r]-lo] = p
		}
	})
	return out, nil
}
