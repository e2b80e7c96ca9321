package gf

// xorMany folds up to xorBatch sources into dst: the SSE2 kernel (SSE2 is
// the amd64 baseline) takes every whole 16-byte block, the word loop the
// rest.
func xorMany(dst []byte, srcs [][]byte) {
	xorManySSE2(dst, srcs)
	if t := len(dst) &^ 15; t < len(dst) {
		for _, s := range srcs {
			XORWords(dst[t:], s[t:])
		}
	}
}

// xorManySSE2 computes dst ^= ⊕ srcs over len(dst) rounded down to 16
// bytes, 64 bytes of dst in X0–X3 at a time. Every source must be at least
// that long; len(srcs) >= 1.
//
//go:noescape
func xorManySSE2(dst []byte, srcs [][]byte)
