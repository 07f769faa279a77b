#include "textflag.h"

// The vector SpMM row keeps the portable row's arithmetic: per nonzero one
// VBROADCASTSD of its value, then one VMULPD and one VADDPD per 4 columns
// (VMULSD and VADDSD in the last 1–3 columns), each rounded, lane j of an
// accumulator holding column j of the output row, nonzeros in ascending
// position. It has no fused multiply-add, which would round once where the
// portable loop rounds twice (CI greps for one). A block of columns stays
// in registers across the whole row, so the sums never leave them halfway.
//
// Registers: R8 o; R9 w; R10 idx; R11 the nonzero count; R12 h; R13 the
// rows of h; DX h's row stride in bytes; BX the first column of the current
// block; DI h at column BX; SI the position p; CX idx[p], checked against
// R13 as unsigned (so a negative index fails too), then its row's offset in
// bytes. Y0–Y3 accumulate, Y8 holds w[p] broadcast, Y10–Y13 the products.

// ZERO sets the four accumulators to +0, the portable loop's starting sum.
#define ZERO \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3

// PSTART points DI at column BX of h's row 0 and SI at the first nonzero,
// and skips to end when the row has none.
#define PSTART(end) \
	LEAQ  (R12)(BX*8), DI; \
	XORQ  SI, SI; \
	TESTQ R11, R11; \
	JZ    end

// ROW loads idx[p] into CX, leaves for bad unless it is below the row
// count, and turns it into its row's byte offset in h.
#define ROW \
	MOVQ  (R10)(SI*8), CX; \
	CMPQ  CX, R13; \
	JAE   bad; \
	IMULQ DX, CX

// MULADD adds w[p]·h[idx[p]][BX+off/8 …] to acc through one rounded product.
#define MULADD(off, acc, t) \
	VMULPD off(DI)(CX*1), Y8, t; \
	VADDPD t, acc, acc

// PNEXT moves SI to the next nonzero and loops while any is left.
#define PNEXT(loop) \
	INCQ SI; \
	CMPQ SI, R11; \
	JLT  loop

// func spmmRowAVX(o, w []float64, idx []int, h []float64, rows int, add bool) int
TEXT ·spmmRowAVX(SB), NOSPLIT, $0-120
	MOVQ o_base+0(FP), R8
	MOVQ w_base+24(FP), R9
	MOVQ idx_base+48(FP), R10
	MOVQ idx_len+56(FP), R11
	MOVQ h_base+72(FP), R12
	MOVQ rows+96(FP), R13
	MOVQ o_len+8(FP), DX
	SHLQ $3, DX
	XORQ BX, BX

// Blocks of 16 columns: four independent sums per nonzero.
wide16:
	LEAQ  16(BX), AX
	CMPQ  AX, o_len+8(FP)
	JGT   wide8
	ZERO
	CMPB  add+104(FP), $0
	JEQ   p16
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD 32(R8)(BX*8), Y1
	VMOVUPD 64(R8)(BX*8), Y2
	VMOVUPD 96(R8)(BX*8), Y3

p16:
	PSTART(end16)

loop16:
	ROW
	VBROADCASTSD (R9)(SI*8), Y8
	MULADD(0, Y0, Y10)
	MULADD(32, Y1, Y11)
	MULADD(64, Y2, Y12)
	MULADD(96, Y3, Y13)
	PNEXT(loop16)

end16:
	VMOVUPD Y0, (R8)(BX*8)
	VMOVUPD Y1, 32(R8)(BX*8)
	VMOVUPD Y2, 64(R8)(BX*8)
	VMOVUPD Y3, 96(R8)(BX*8)
	ADDQ    $16, BX
	JMP     wide16

// At most one block of 8 columns is left after the 16s.
wide8:
	LEAQ  8(BX), AX
	CMPQ  AX, o_len+8(FP)
	JGT   wide4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPB  add+104(FP), $0
	JEQ   p8
	VMOVUPD (R8)(BX*8), Y0
	VMOVUPD 32(R8)(BX*8), Y1

p8:
	PSTART(end8)

loop8:
	ROW
	VBROADCASTSD (R9)(SI*8), Y8
	MULADD(0, Y0, Y10)
	MULADD(32, Y1, Y11)
	PNEXT(loop8)

end8:
	VMOVUPD Y0, (R8)(BX*8)
	VMOVUPD Y1, 32(R8)(BX*8)
	ADDQ    $8, BX

// At most one block of 4 is left after the 8.
wide4:
	LEAQ  4(BX), AX
	CMPQ  AX, o_len+8(FP)
	JGT   wide1
	VXORPD Y0, Y0, Y0
	CMPB  add+104(FP), $0
	JEQ   p4
	VMOVUPD (R8)(BX*8), Y0

p4:
	PSTART(end4)

loop4:
	ROW
	VBROADCASTSD (R9)(SI*8), Y8
	MULADD(0, Y0, Y10)
	PNEXT(loop4)

end4:
	VMOVUPD Y0, (R8)(BX*8)
	ADDQ    $4, BX

// The last 1–3 columns one at a time, in the low lane: the portable loop's
// scalar tail.
wide1:
	CMPQ  BX, o_len+8(FP)
	JGE   done
	VXORPD X0, X0, X0
	CMPB  add+104(FP), $0
	JEQ   p1
	VMOVSD (R8)(BX*8), X0

p1:
	PSTART(end1)

loop1:
	ROW
	VMOVSD (R9)(SI*8), X8
	VMULSD (DI)(CX*1), X8, X10
	VADDSD X10, X0, X0
	PNEXT(loop1)

end1:
	VMOVSD X0, (R8)(BX*8)
	INCQ   BX
	JMP    wide1

done:
	VZEROUPPER
	MOVQ $-1, ret+112(FP)
	RET

// The index at position SI is outside [0, rows): nothing of its row was read.
bad:
	VZEROUPPER
	MOVQ SI, ret+112(FP)
	RET
