package gf

import "unsafe"

// XORMany computes dst ^= srcs[0] ^ … ^ srcs[m−1] over len(dst): the
// fold of many packets into one that every XOR code's encoder and decoder
// does. Each source must be at least as long as dst and must not overlap
// it. The kernel takes the sources xorBatch at a time and, within a batch,
// keeps one block of dst in registers while it walks the sources, so dst
// is read and written once per batch instead of once per source. On
// GOARCHes without the assembly kernel it is one XORSlice per source.
func XORMany(dst []byte, srcs [][]byte) {
	n := len(dst)
	for _, s := range srcs {
		if len(s) < n {
			panic("gf: XORMany source shorter than dst")
		}
		if overlaps(dst, s[:n]) {
			panic("gf: XORMany source overlaps dst")
		}
	}
	for len(srcs) > 0 {
		b := srcs[:min(len(srcs), xorBatch)]
		xorMany(dst, b)
		srcs = srcs[len(b):]
	}
}

// xorBatch is the number of sources one pass over dst folds in: about as
// many concurrent read streams as a core's prefetchers follow.
const xorBatch = 16

// overlaps reports whether x and y share any byte.
func overlaps(x, y []byte) bool {
	return len(x) > 0 && len(y) > 0 &&
		uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}
