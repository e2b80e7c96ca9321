#include "textflag.h"

// func xorManySSE2(dst []byte, srcs [][]byte)
//
// AX is the offset into every slice, SI walks the source headers (24
// bytes each) up to R9. The outer loop holds 64 bytes of dst in X0–X3
// while the inner one XORs in each source's same 64 bytes; then 16-byte
// blocks the same way.
TEXT ·xorManySSE2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), BX
	MOVQ srcs_len+32(FP), DX
	LEAQ (DX)(DX*2), R9
	LEAQ (BX)(R9*8), R9
	ANDQ $~15, CX
	MOVQ CX, R10
	ANDQ $~63, R10
	XORQ AX, AX

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
