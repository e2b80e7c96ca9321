package code

import "fmt"

// RowEncoder is the encode contract of every codec whose encoding packets
// are mutually independent — packet idx is a pure function of (src, idx).
// That is every codec here except Tornado, whose cascade checks are
// computed jointly. A codec states the fact in two methods; the window and
// whole-encoding forms (EncodeRows, EncodeAll) and the session's emission
// path are built from them.
type RowEncoder interface {
	K() int
	N() int
	PacketLen() int
	// SourceOf returns the index of the source packet that encoding
	// packet idx carries verbatim, or -1 when idx is a coded packet.
	SourceOf(idx int) int
	// EncodeInto accumulates coded packet idx into dst, which must be
	// PacketLen zero bytes. Nothing is re-checked here: the caller
	// guarantees that src passed CheckSrc once (K packets of PacketLen
	// bytes), that 0 <= idx < N, and that SourceOf(idx) < 0. It is safe
	// for concurrent use and, at default codec parameters, allocates
	// nothing.
	EncodeInto(dst []byte, src [][]byte, idx int)
}

// EncodeRows is the window form every codec's EncodeRange delegates to:
// encoding packets [lo, hi) of c, with src and the range validated. Entries
// that are source packets alias src; the coded rows share one fresh backing
// store.
func EncodeRows(c RowEncoder, src [][]byte, lo, hi int) ([][]byte, error) {
	return encodeRows(c, src, lo, hi, func(n int, fn func(lo, hi int)) { fn(0, n) })
}

// EncodeAll is the whole-encoding form a finite row codec's Encode
// delegates to: EncodeRows over [0, N), with the coded rows — not the index
// range, whose systematic part is no work — split across ParallelChunks.
func EncodeAll(c RowEncoder, src [][]byte) ([][]byte, error) {
	return encodeRows(c, src, 0, c.N(), ParallelChunks)
}

func encodeRows(c RowEncoder, src [][]byte, lo, hi int, split func(n int, fn func(lo, hi int))) ([][]byte, error) {
	pl := c.PacketLen()
	if err := CheckSrc(src, c.K(), pl); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > c.N() {
		return nil, fmt.Errorf("code: encode range [%d,%d) out of [0,%d)", lo, hi, c.N())
	}
	out := make([][]byte, hi-lo)
	var coded []int
	for i := lo; i < hi; i++ {
		if f := c.SourceOf(i); f >= 0 {
			out[i-lo] = src[f]
		} else {
			coded = append(coded, i)
		}
	}
	store := make([]byte, len(coded)*pl)
	split(len(coded), func(a, b int) {
		for r := a; r < b; r++ {
			p := store[r*pl : (r+1)*pl : (r+1)*pl]
			c.EncodeInto(p, src, coded[r])
			out[coded[r]-lo] = p
		}
	})
	return out, nil
}
