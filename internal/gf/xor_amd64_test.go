package gf

import (
	"os"
	"regexp"
	"runtime"
	"testing"
)

// xorKernels lists the amd64 kernels, widest first.
func xorKernels() []xorKernel {
	return []xorKernel{
		{"avx512", xorManyAVX512, useAVX512},
		{"sse2", xorManySSE2, true},
	}
}

// checkDispatch: on linux, XORMany runs the AVX-512 kernel iff
// /proc/cpuinfo lists avx512f (the kernel lists it only where the OS also
// saves ZMM state).
func checkDispatch(t *testing.T) {
	kernel := "sse2"
	if useAVX512 {
		kernel = "avx512"
	}
	t.Logf("XORMany runs kernel %s", kernel)
	if runtime.GOOS != "linux" {
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Logf("dispatch not checked: %v", err)
		return
	}
	listed := regexp.MustCompile(`(?m)^flags\s*:.*\bavx512f\b`).Match(info)
	if listed != useAVX512 {
		t.Fatalf("/proc/cpuinfo lists avx512f: %v, but XORMany runs kernel %s", listed, kernel)
	}
}
