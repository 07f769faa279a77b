#include "textflag.h"

// The vector tile keeps the portable tile's arithmetic: one VMULPD and one
// VADDPD per product (VMULSD and VADDSD in the last 1–3 columns), each
// rounded, lane j of an accumulator holding column j of one output row, k
// ascending. It has no fused multiply-add, which would round once where the
// portable loop rounds twice (CI greps for one).
//
// Registers: R8, R9 the two c rows; R10 row 0 of a and R12 the distance
// from it to row 1, so SI walks both; DI a's stride in bytes; R11 the inner
// dimension; R13 b; DX b's row stride in bytes; BX the first column of the
// current block; AX b at (k, BX); CX the k left. Y0–Y3 accumulate row 0 and
// Y4–Y7 row 1, four columns each; Y8 and Y9 hold a0[k] and a1[k] broadcast,
// Y10–Y13 the products.

// ZERO sets every accumulator to +0, the portable loop's starting sum.
#define ZERO \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// KSTART points AX at column BX of b's first row, SI at a0[0] and CX at
// the whole inner dimension.
#define KSTART \
	LEAQ (R13)(BX*8), AX; \
	MOVQ R10, SI; \
	MOVQ R11, CX

// NEXTK broadcasts a0[k] and a1[k].
#define NEXTK \
	VBROADCASTSD (SI), Y8; \
	VBROADCASTSD (SI)(R12*1), Y9

// MULADD adds a·b[k][off/8 …] to acc through one rounded product.
#define MULADD(off, a, acc, t) \
	VMULPD off(AX), a, t; \
	VADDPD t, acc, acc

// KNEXT moves AX and SI to the next k and loops while any is left.
#define KNEXT(loop) \
	ADDQ DX, AX; \
	ADDQ DI, SI; \
	DECQ CX; \
	JNZ  loop

// func tileAVX(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool)
TEXT ·tileAVX(SB), NOSPLIT, $0-145
	MOVQ c0_base+0(FP), R8
	MOVQ c1_base+24(FP), R9
	MOVQ a0_base+48(FP), R10
	MOVQ a1_base+72(FP), R12
	SUBQ R10, R12
	MOVQ lda+96(FP), DI
	SHLQ $3, DI
	MOVQ kn+104(FP), R11
	MOVQ b_base+112(FP), R13
	MOVQ ldb+136(FP), DX
	SHLQ $3, DX
	XORQ BX, BX

// Blocks of 16 columns: eight independent sums, enough to keep both
// floating-point ports busy through the adds' latency.
wide16:
	LEAQ  16(BX), AX
	CMPQ  AX, c0_len+8(FP)
	JGT   wide8
	ZERO
	CMPB  add+144(FP), $0
	JEQ   k16
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD 32(R8)(BX*8), Y1
	VMOVUPD 64(R8)(BX*8), Y2
	VMOVUPD 96(R8)(BX*8), Y3
	VMOVUPD (R9)(BX*8), Y4
	VMOVUPD 32(R9)(BX*8), Y5
	VMOVUPD 64(R9)(BX*8), Y6
	VMOVUPD 96(R9)(BX*8), Y7

k16:
	KSTART
	TESTQ CX, CX
	JZ    end16

loop16:
	NEXTK
	MULADD(0, Y8, Y0, Y10)
	MULADD(32, Y8, Y1, Y11)
	MULADD(64, Y8, Y2, Y12)
	MULADD(96, Y8, Y3, Y13)
	MULADD(0, Y9, Y4, Y10)
	MULADD(32, Y9, Y5, Y11)
	MULADD(64, Y9, Y6, Y12)
	MULADD(96, Y9, Y7, Y13)
	KNEXT(loop16)

end16:
	VMOVUPD Y0, (R8)(BX*8)
	VMOVUPD Y1, 32(R8)(BX*8)
	VMOVUPD Y2, 64(R8)(BX*8)
	VMOVUPD Y3, 96(R8)(BX*8)
	VMOVUPD Y4, (R9)(BX*8)
	VMOVUPD Y5, 32(R9)(BX*8)
	VMOVUPD Y6, 64(R9)(BX*8)
	VMOVUPD Y7, 96(R9)(BX*8)
	ADDQ    $16, BX
	JMP     wide16

// At most one block of 8 columns is left after the 16s.
wide8:
	LEAQ  8(BX), AX
	CMPQ  AX, c0_len+8(FP)
	JGT   wide4
	ZERO
	CMPB  add+144(FP), $0
	JEQ   k8
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD 32(R8)(BX*8), Y1
	VMOVUPD (R9)(BX*8), Y4
	VMOVUPD 32(R9)(BX*8), Y5

k8:
	KSTART
	TESTQ CX, CX
	JZ    end8

loop8:
	NEXTK
	MULADD(0, Y8, Y0, Y10)
	MULADD(32, Y8, Y1, Y11)
	MULADD(0, Y9, Y4, Y12)
	MULADD(32, Y9, Y5, Y13)
	KNEXT(loop8)

end8:
	VMOVUPD Y0, (R8)(BX*8)
	VMOVUPD Y1, 32(R8)(BX*8)
	VMOVUPD Y4, (R9)(BX*8)
	VMOVUPD Y5, 32(R9)(BX*8)
	ADDQ    $8, BX

// At most one block of 4 is left after the 8.
wide4:
	LEAQ  4(BX), AX
	CMPQ  AX, c0_len+8(FP)
	JGT   wide1
	ZERO
	CMPB  add+144(FP), $0
	JEQ   k4
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD (R9)(BX*8), Y4

k4:
	KSTART
	TESTQ CX, CX
	JZ    end4

loop4:
	NEXTK
	MULADD(0, Y8, Y0, Y10)
	MULADD(0, Y9, Y4, Y11)
	KNEXT(loop4)

end4:
	VMOVUPD Y0, (R8)(BX*8)
	VMOVUPD Y4, (R9)(BX*8)
	ADDQ    $4, BX

// The last 1–3 columns one at a time, in the low lane: the portable loop's
// scalar tail.
wide1:
	CMPQ  BX, c0_len+8(FP)
	JGE   done
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	CMPB  add+144(FP), $0
	JEQ   k1
	VMOVSD (R8)(BX*8), X0
	VMOVSD (R9)(BX*8), X4

k1:
	KSTART
	TESTQ CX, CX
	JZ    end1

loop1:
	VMOVSD (SI), X8
	VMOVSD (SI)(R12*1), X9
	VMULSD (AX), X8, X10
	VADDSD X10, X0, X0
	VMULSD (AX), X9, X11
	VADDSD X11, X4, X4
	KNEXT(loop1)

end1:
	VMOVSD X0, (R8)(BX*8)
	VMOVSD X4, (R9)(BX*8)
	INCQ   BX
	JMP    wide1

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
