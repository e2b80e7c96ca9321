//go:build !amd64

package gf

// xorMany folds srcs into dst one source at a time.
func xorMany(dst []byte, srcs [][]byte) {
	for _, s := range srcs {
		XORSlice(dst, s)
	}
}
