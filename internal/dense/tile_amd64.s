#include "textflag.h"

// The AVX2 tile keeps the portable tile's arithmetic: one VMULPD and one
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

// The 8-row tile keeps the same arithmetic in 512-bit lanes: for each k one
// VBROADCASTSD of a_r[k] per row r, then one VMULPD and one VADDPD per 8
// lanes, never a fused multiply-add. Lane j of an accumulator holds one
// column of one output row, and k ascends, so every output equals the
// portable loop's bit for bit.
//
// Registers: R8 c at (row 0, the current block's first column), R9 c's row
// stride in bytes; SI a_0[k] and DI a_4[k], R12 a's row stride in bytes and
// R13 three times it, so (SI), (SI)(R12*1), (SI)(R12*2), (SI)(R13*1) and
// the same from DI are the 8 rows; R10 a's k stride in bytes; BX b at
// (0, the block's first column), AX b at (k, that column), DX b's row
// stride in bytes; CX the k left; R11 the columns left. Z0–Z15 accumulate,
// two per row (Z2r the block's first 8 columns of row r, Z2r+1 the last 8);
// Z16 and Z17 hold b's 16 columns at k, Z18 a broadcast a_r[k], Z20 and
// Z21 the products.

// C8ROWS points SI at c's row 4 and DI at three row strides, so that
// (R8), (R8)(R9*1), (R8)(R9*2), (R8)(DI*1) and the same from SI are the
// current block's 8 rows of c.
#define C8ROWS \
	LEAQ (R8)(R9*4), SI; \
	LEAQ (R9)(R9*2), DI

// ROW8 adds a_r[k]·b[k][0:16] to row r's two accumulators, a_r[k] at addr.
#define ROW8(addr, lo, hi) \
	VBROADCASTSD addr, Z18; \
	VMULPD       Z16, Z18, Z20; \
	VADDPD       Z20, lo, lo; \
	VMULPD       Z17, Z18, Z21; \
	VADDPD       Z21, hi, hi

// func tileAVX512(c []float64, ldc int, a []float64, rowA, lda, kn int, b []float64, ldb, n int, add bool)
TEXT ·tileAVX512(SB), NOSPLIT, $0-121
	MOVQ c_base+0(FP), R8
	MOVQ ldc+24(FP), R9
	SHLQ $3, R9
	MOVQ rowA+56(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13
	MOVQ lda+64(FP), R10
	SHLQ $3, R10
	MOVQ b_base+80(FP), BX
	MOVQ ldb+104(FP), DX
	SHLQ $3, DX
	MOVQ n+112(FP), R11

block8:
	CMPB add+120(FP), $0
	JNE  load8
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	VXORPD Z8, Z8, Z8
	VXORPD Z9, Z9, Z9
	VXORPD Z10, Z10, Z10
	VXORPD Z11, Z11, Z11
	VXORPD Z12, Z12, Z12
	VXORPD Z13, Z13, Z13
	VXORPD Z14, Z14, Z14
	VXORPD Z15, Z15, Z15
	JMP  k8start

load8:
	C8ROWS
	VMOVUPD (R8), Z0
	VMOVUPD 64(R8), Z1
	VMOVUPD (R8)(R9*1), Z2
	VMOVUPD 64(R8)(R9*1), Z3
	VMOVUPD (R8)(R9*2), Z4
	VMOVUPD 64(R8)(R9*2), Z5
	VMOVUPD (R8)(DI*1), Z6
	VMOVUPD 64(R8)(DI*1), Z7
	VMOVUPD (SI), Z8
	VMOVUPD 64(SI), Z9
	VMOVUPD (SI)(R9*1), Z10
	VMOVUPD 64(SI)(R9*1), Z11
	VMOVUPD (SI)(R9*2), Z12
	VMOVUPD 64(SI)(R9*2), Z13
	VMOVUPD (SI)(DI*1), Z14
	VMOVUPD 64(SI)(DI*1), Z15

k8start:
	MOVQ  a_base+32(FP), SI
	LEAQ  (SI)(R12*4), DI
	MOVQ  BX, AX
	MOVQ  kn+72(FP), CX
	TESTQ CX, CX
	JZ    store8

loop8x16:
	VMOVUPD (AX), Z16
	VMOVUPD 64(AX), Z17
	ROW8((SI), Z0, Z1)
	ROW8((SI)(R12*1), Z2, Z3)
	ROW8((SI)(R12*2), Z4, Z5)
	ROW8((SI)(R13*1), Z6, Z7)
	ROW8((DI), Z8, Z9)
	ROW8((DI)(R12*1), Z10, Z11)
	ROW8((DI)(R12*2), Z12, Z13)
	ROW8((DI)(R13*1), Z14, Z15)
	ADDQ DX, AX
	ADDQ R10, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop8x16

store8:
	C8ROWS
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, (R8)(R9*1)
	VMOVUPD Z3, 64(R8)(R9*1)
	VMOVUPD Z4, (R8)(R9*2)
	VMOVUPD Z5, 64(R8)(R9*2)
	VMOVUPD Z6, (R8)(DI*1)
	VMOVUPD Z7, 64(R8)(DI*1)
	VMOVUPD Z8, (SI)
	VMOVUPD Z9, 64(SI)
	VMOVUPD Z10, (SI)(R9*1)
	VMOVUPD Z11, 64(SI)(R9*1)
	VMOVUPD Z12, (SI)(R9*2)
	VMOVUPD Z13, 64(SI)(R9*2)
	VMOVUPD Z14, (SI)(DI*1)
	VMOVUPD Z15, 64(SI)(DI*1)
	ADDQ    $128, R8
	ADDQ    $128, BX
	SUBQ    $16, R11
	JNZ     block8
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
