//go:build !amd64

package gf

import "testing"

// xorKernels is empty: XORMany here is one XORSlice per source.
func xorKernels() []xorKernel { return nil }

func checkDispatch(t *testing.T) { t.Log("XORMany runs one XORSlice per source") }
