package gf

import "runtime"

// useAVX512 is whether xorMany runs the AVX-512 kernel, decided once from
// CPUID and XGETBV. Every other amd64 CPU runs the SSE2 kernel (SSE2 is the
// amd64 baseline), as does darwin, which may not show ZMM state in XCR0
// before a thread first uses it.
var useAVX512 = runtime.GOOS != "darwin" && hasAVX512()

// xorMany folds up to xorBatch sources into dst: the widest kernel this
// CPU runs takes every whole 16-byte block, the word loop the rest.
func xorMany(dst []byte, srcs [][]byte) {
	if useAVX512 {
		xorManyAVX512(dst, srcs)
	} else {
		xorManySSE2(dst, srcs)
	}
	if t := len(dst) &^ 15; t < len(dst) {
		for _, s := range srcs {
			XORWords(dst[t:], s[t:])
		}
	}
}

// hasAVX512 reports whether the CPU has AVX512F (CPUID.7.0 EBX bit 16) and
// the OS saves the XMM and YMM registers (XCR0 bits 1–2) and the opmask and
// ZMM ones (bits 5–7) across context switches.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV runs
		return false
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}

// xorManySSE2 computes dst ^= ⊕ srcs over len(dst) rounded down to 16
// bytes, 64 bytes of dst in X0–X3 at a time. Every source must be at least
// that long.
//
//go:noescape
func xorManySSE2(dst []byte, srcs [][]byte)

// xorManyAVX512 is xorManySSE2 with 256 bytes of dst in Z0–Z3 at a time;
// the bytes past the last whole 256-byte block go to the SSE2 loops. Only
// for a CPU where hasAVX512 holds.
//
//go:noescape
func xorManyAVX512(dst []byte, srcs [][]byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
