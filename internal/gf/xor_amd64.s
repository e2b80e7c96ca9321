#include "textflag.h"

// Both kernels compute dst ^= ⊕ srcs over len(dst) rounded down to 16
// bytes. In both, AX is the offset into every slice, SI walks the source
// headers (24 bytes each) from BX up to R9, DI is dst and CX its length
// rounded down to 16.

// func xorManySSE2(dst []byte, srcs [][]byte)
TEXT ·xorManySSE2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), BX
	MOVQ srcs_len+32(FP), DX
	TESTQ DX, DX
	JZ   none
	LEAQ (DX)(DX*2), R9
	LEAQ (BX)(R9*8), R9
	ANDQ $~15, CX
	XORQ AX, AX
	JMP  xorSSE2From<>(SB)

none:
	RET

// func xorManyAVX512(dst []byte, srcs [][]byte)
//
// The outer loop holds 256 bytes of dst in Z0–Z3 while the inner one
// XORs in each source's same 256 bytes; the bytes past the last whole
// 256-byte block go to the SSE2 loops.
TEXT ·xorManyAVX512(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), BX
	MOVQ srcs_len+32(FP), DX
	TESTQ DX, DX
	JZ   none
	LEAQ (DX)(DX*2), R9
	LEAQ (BX)(R9*8), R9
	ANDQ $~15, CX
	MOVQ CX, R10
	ANDQ $~255, R10
	XORQ AX, AX

loop256:
	CMPQ AX, R10
	JAE  rest
	VMOVDQU64 0(DI)(AX*1), Z0
	VMOVDQU64 64(DI)(AX*1), Z1
	VMOVDQU64 128(DI)(AX*1), Z2
	VMOVDQU64 192(DI)(AX*1), Z3
	MOVQ BX, SI

src256:
	MOVQ      (SI), R8
	VMOVDQU64 0(R8)(AX*1), Z4
	VMOVDQU64 64(R8)(AX*1), Z5
	VMOVDQU64 128(R8)(AX*1), Z6
	VMOVDQU64 192(R8)(AX*1), Z7
	VPXORQ    Z4, Z0, Z0
	VPXORQ    Z5, Z1, Z1
	VPXORQ    Z6, Z2, Z2
	VPXORQ    Z7, Z3, Z3
	ADDQ      $24, SI
	CMPQ      SI, R9
	JB        src256
	VMOVDQU64 Z0, 0(DI)(AX*1)
	VMOVDQU64 Z1, 64(DI)(AX*1)
	VMOVDQU64 Z2, 128(DI)(AX*1)
	VMOVDQU64 Z3, 192(DI)(AX*1)
	ADDQ      $256, AX
	JMP       loop256

rest:
	VZEROUPPER
	JMP xorSSE2From<>(SB)

none:
	RET

// xorSSE2From continues a kernel from offset AX: it holds 64 bytes of dst
// in X0–X3 while it walks the sources, then 16-byte blocks the same way,
// and returns to the kernel's caller. It takes DI, CX, BX, R9 and AX as
// the kernels set them.
TEXT xorSSE2From<>(SB), NOSPLIT|NOFRAME, $0
	MOVQ CX, R10
	ANDQ $~63, R10

loop64:
	CMPQ AX, R10
	JAE  loop16
	MOVOU 0(DI)(AX*1), X0
	MOVOU 16(DI)(AX*1), X1
	MOVOU 32(DI)(AX*1), X2
	MOVOU 48(DI)(AX*1), X3
	MOVQ BX, SI

src64:
	MOVQ  (SI), R8
	MOVOU 0(R8)(AX*1), X4
	MOVOU 16(R8)(AX*1), X5
	MOVOU 32(R8)(AX*1), X6
	MOVOU 48(R8)(AX*1), X7
	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3
	ADDQ  $24, SI
	CMPQ  SI, R9
	JB    src64
	MOVOU X0, 0(DI)(AX*1)
	MOVOU X1, 16(DI)(AX*1)
	MOVOU X2, 32(DI)(AX*1)
	MOVOU X3, 48(DI)(AX*1)
	ADDQ  $64, AX
	JMP   loop64

loop16:
	CMPQ AX, CX
	JAE  done
	MOVOU (DI)(AX*1), X0
	MOVQ  BX, SI

src16:
	MOVQ  (SI), R8
	MOVOU (R8)(AX*1), X4
	PXOR  X4, X0
	ADDQ  $24, SI
	CMPQ  SI, R9
	JB    src16
	MOVOU X0, (DI)(AX*1)
	ADDQ  $16, AX
	JMP   loop16

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
//
// XCR0's low word; the caller has checked CPUID.1 OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
