//go:build amd64

#include "textflag.h"

// GEMM microkernels, AVX2 first. Panel layout: nr=8 destination columns
// per panel, k-major — the t-th step reads panel[8t : 8t+8] as two
// 256-bit vectors. Accumulators live in Y4..Y11 (one pair per
// destination row);
// each update is VMULPD then VADDPD with the accumulator as the first
// addend, matching the rounding and NaN-propagation order of the scalar
// `acc = acc + av*bv`. The 4×8 tiles have no zero test: kern4x8n walks
// every k step, kern4x8ni the steps an index list names (the live
// columns of the a operand, see live.go). Only the one-row kernel of
// batch-1 selection tests its a element — bits shifted left by one, zero
// iff the value is ±0, never for NaN.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8 // OSXSAVE | AVX
	CMPL R8, $(1<<27 | 1<<28)
	JNE  novx
	XORL CX, CX
	XGETBV                    // XCR0 → DX:AX
	ANDL $6, AX
	CMPL AX, $6               // XMM and YMM state OS-enabled
	JNE  novx
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX         // AVX2
	JZ   novx
	MOVB $1, ret+0(FP)
	RET
novx:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8 // OSXSAVE | AVX
	CMPL R8, $(1<<27 | 1<<28)
	JNE  no512
	XORL CX, CX
	XGETBV                    // XCR0 → DX:AX
	ANDL $0xE6, AX
	CMPL AX, $0xE6            // XMM | YMM | opmask | ZMM_Hi256 | Hi16_ZMM
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<16), BX        // AVX512F
	JZ   no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// func kern4x8n(k, astep int, a0, a1, a2, a3, panel *float64, acc *[32]float64)
//
// Each a pointer steps astep bytes a k step: 8 along a row of the operand,
// a row's width down a column of it (MulTransA reads its operand in place).
TEXT ·kern4x8n(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ astep+8(FP), AX
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ a3+40(FP), R11
	MOVQ panel+48(FP), SI
	MOVQ acc+56(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	TESTQ CX, CX
	JZ   done4n
loop4n:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VBROADCASTSD (R8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y5, Y5
	VBROADCASTSD (R9), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y7, Y7
	VBROADCASTSD (R10), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y9, Y9
	VBROADCASTSD (R11), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y11, Y11
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ $64, SI
	DECQ CX
	JNZ  loop4n
done4n:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	VZEROUPPER
	RET

// func kern4x8ni(n int, idx *int32, a0, a1, a2, a3, panel *float64, acc *[32]float64)
//
// kern4x8n over the n k-steps idx lists (ascending): one index load,
// then the same VMULPD/VADDPD sequence at panel row idx[t] and a
// elements a0[idx[t]]..a3[idx[t]].
TEXT ·kern4x8ni(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ idx+8(FP), DX
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ a3+40(FP), R11
	MOVQ panel+48(FP), SI
	MOVQ acc+56(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	TESTQ CX, CX
	JZ   done4ni
loop4ni:
	MOVLQSX (DX), AX
	MOVQ AX, BX
	SHLQ $6, BX               // panel row: 64 bytes per k step
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD 32(SI)(BX*1), Y1
	VBROADCASTSD (R8)(AX*8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y5, Y5
	VBROADCASTSD (R9)(AX*8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y7, Y7
	VBROADCASTSD (R10)(AX*8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y9, Y9
	VBROADCASTSD (R11)(AX*8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y11, Y11
	ADDQ $4, DX
	DECQ CX
	JNZ  loop4ni
done4ni:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	VZEROUPPER
	RET

// AVX-512F tile: the same two operations per term in registers twice as
// wide. One 64-byte panel row is one ZMM, so a tile is eight destination
// rows by one panel: per k step one panel load, then for each row a
// VMULPD with the a element broadcast from memory and a VADDPD into that
// row's accumulator — in every lane the IEEE multiply and add kern4x8n
// performs, in the same ascending k, so the two tiers agree bit for bit.
// (The broadcast operand can only be the second source, so a term whose
// a and b elements are both NaN carries b's payload here and a's in the
// YMM tile; NaN-ness is the same.) R14/R15 are left alone (g register /
// linker scratch); the eight row pointers live in R8-R13, BX, DX.

// func kern8x8(t *tile8)
//
// One 8-row tile against t.panels consecutive panels of a packed operand,
// written back from the registers. Per panel: the k loop — every step
// when t.idx is nil, each a pointer advancing t.astep bytes (8 along a
// row, a row's width down a column MulTransA reads in place), else the
// t.k steps t.idx lists (ascending) of contiguous a rows, where AX
// holds the byte offset of the step's a elements, 8·idx[t], and scaled by
// eight again the panel row's — then the epilogue on the eight
// accumulators: bias added (acc + bias), ReLU as a compare-greater-than-
// zero and a zero-masked move (NaN and −0 give +0, +Inf stays: relu()'s
// contract), the destination added for an accumulating product
// (dst + acc), and eight row stores. The last panel's loads and stores
// are masked to t.last's lanes. With every epilogue field zero and t.d
// the rows of an accumulator array it is the bare tile: the sums, stored.
// Field offsets are tile8's (tiled.go). The walk advances t.panels, t.col
// and t.poff — integers: a pointer field stepped past its last panel
// would be a bad pointer to the collector.
TEXT ·kern8x8(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), AX
panel8w:
	MOVQ 0(AX), CX            // k
	MOVQ 8(AX), DI            // idx
	MOVQ 16(AX), R8
	MOVQ 24(AX), R9
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ 64(AX), BX
	MOVQ 72(AX), DX
	MOVQ 144(AX), SI          // the first panel …
	ADDQ 208(AX), SI          // … and this one's byte offset from it
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	TESTQ CX, CX
	JZ   epi8w
	TESTQ DI, DI
	JNZ  idx8w
	MOVQ 216(AX), AX          // astep: bytes from one a element to the next
dense8w:
	VMOVUPD (SI), Z0
	VMULPD.BCST (R8), Z0, Z1
	VADDPD Z1, Z4, Z4
	VMULPD.BCST (R9), Z0, Z2
	VADDPD Z2, Z5, Z5
	VMULPD.BCST (R10), Z0, Z3
	VADDPD Z3, Z6, Z6
	VMULPD.BCST (R11), Z0, Z1
	VADDPD Z1, Z7, Z7
	VMULPD.BCST (R12), Z0, Z2
	VADDPD Z2, Z8, Z8
	VMULPD.BCST (R13), Z0, Z3
	VADDPD Z3, Z9, Z9
	VMULPD.BCST (BX), Z0, Z1
	VADDPD Z1, Z10, Z10
	VMULPD.BCST (DX), Z0, Z2
	VADDPD Z2, Z11, Z11
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	ADDQ AX, BX
	ADDQ AX, DX
	ADDQ $64, SI
	DECQ CX
	JNZ  dense8w
	JMP  epi8w
idx8w:
	MOVLQSX (DI), AX
	SHLQ $3, AX
	VMOVUPD (SI)(AX*8), Z0
	VMULPD.BCST (R8)(AX*1), Z0, Z1
	VADDPD Z1, Z4, Z4
	VMULPD.BCST (R9)(AX*1), Z0, Z2
	VADDPD Z2, Z5, Z5
	VMULPD.BCST (R10)(AX*1), Z0, Z3
	VADDPD Z3, Z6, Z6
	VMULPD.BCST (R11)(AX*1), Z0, Z1
	VADDPD Z1, Z7, Z7
	VMULPD.BCST (R12)(AX*1), Z0, Z2
	VADDPD Z2, Z8, Z8
	VMULPD.BCST (R13)(AX*1), Z0, Z3
	VADDPD Z3, Z9, Z9
	VMULPD.BCST (BX)(AX*1), Z0, Z1
	VADDPD Z1, Z10, Z10
	VMULPD.BCST (DX)(AX*1), Z0, Z2
	VADDPD Z2, Z11, Z11
	ADDQ $4, DI
	DECQ CX
	JNZ  idx8w
epi8w:
	MOVQ t+0(FP), AX
	MOVQ $0xFF, R9
	CMPQ 160(AX), $1          // panels left, this one included
	JNE  mask8w
	MOVQ 200(AX), R9          // the last panel's lane mask
mask8w:
	KMOVW R9, K1
	MOVQ 192(AX), CX          // byte offset of this panel's first column
	MOVQ 168(AX), SI          // bias
	TESTQ SI, SI
	JZ   nobias8w
	VMOVUPD.Z (SI)(CX*1), K1, Z0
	VADDPD Z0, Z4, Z4
	VADDPD Z0, Z5, Z5
	VADDPD Z0, Z6, Z6
	VADDPD Z0, Z7, Z7
	VADDPD Z0, Z8, Z8
	VADDPD Z0, Z9, Z9
	VADDPD Z0, Z10, Z10
	VADDPD Z0, Z11, Z11
nobias8w:
	CMPQ 176(AX), $0          // relu
	JE   norelu8w
	VPXORQ Z1, Z1, Z1
	VCMPPD $0x1E, Z1, Z4, K2  // GT_OQ: acc > 0
	VMOVAPD.Z Z4, K2, Z4
	VCMPPD $0x1E, Z1, Z5, K2
	VMOVAPD.Z Z5, K2, Z5
	VCMPPD $0x1E, Z1, Z6, K2
	VMOVAPD.Z Z6, K2, Z6
	VCMPPD $0x1E, Z1, Z7, K2
	VMOVAPD.Z Z7, K2, Z7
	VCMPPD $0x1E, Z1, Z8, K2
	VMOVAPD.Z Z8, K2, Z8
	VCMPPD $0x1E, Z1, Z9, K2
	VMOVAPD.Z Z9, K2, Z9
	VCMPPD $0x1E, Z1, Z10, K2
	VMOVAPD.Z Z10, K2, Z10
	VCMPPD $0x1E, Z1, Z11, K2
	VMOVAPD.Z Z11, K2, Z11
norelu8w:
	MOVQ 80(AX), R8
	MOVQ 88(AX), R9
	MOVQ 96(AX), R10
	MOVQ 104(AX), R11
	MOVQ 112(AX), R12
	MOVQ 120(AX), R13
	MOVQ 128(AX), BX
	MOVQ 136(AX), DX
	CMPQ 184(AX), $0          // accumulate
	JE   store8w
	VMOVUPD.Z (R8)(CX*1), K1, Z0
	VADDPD Z4, Z0, Z4
	VMOVUPD.Z (R9)(CX*1), K1, Z1
	VADDPD Z5, Z1, Z5
	VMOVUPD.Z (R10)(CX*1), K1, Z2
	VADDPD Z6, Z2, Z6
	VMOVUPD.Z (R11)(CX*1), K1, Z3
	VADDPD Z7, Z3, Z7
	VMOVUPD.Z (R12)(CX*1), K1, Z0
	VADDPD Z8, Z0, Z8
	VMOVUPD.Z (R13)(CX*1), K1, Z1
	VADDPD Z9, Z1, Z9
	VMOVUPD.Z (BX)(CX*1), K1, Z2
	VADDPD Z10, Z2, Z10
	VMOVUPD.Z (DX)(CX*1), K1, Z3
	VADDPD Z11, Z3, Z11
store8w:
	VMOVUPD Z4, K1, (R8)(CX*1)
	VMOVUPD Z5, K1, (R9)(CX*1)
	VMOVUPD Z6, K1, (R10)(CX*1)
	VMOVUPD Z7, K1, (R11)(CX*1)
	VMOVUPD Z8, K1, (R12)(CX*1)
	VMOVUPD Z9, K1, (R13)(CX*1)
	VMOVUPD Z10, K1, (BX)(CX*1)
	VMOVUPD Z11, K1, (DX)(CX*1)
	ADDQ $64, 192(AX)
	MOVQ 152(AX), R9          // bytes from one panel to the next
	ADDQ R9, 208(AX)
	DECQ 160(AX)
	JNZ  panel8w
	VZEROUPPER
	RET

// func orRows4(k int, x0, x1, x2, x3 *float64, or *uint64)
//
// or[c] |= bits(x0[c]) | bits(x1[c]) | bits(x2[c]) | bits(x3[c]) for c in
// [0, k): four rows of the column scan behind liveColumns.
TEXT ·orRows4(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ x3+32(FP), R11
	MOVQ or+40(FP), DI
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tailor
loopor:
	VMOVDQU (R8)(AX*8), Y0
	VPOR (R9)(AX*8), Y0, Y0
	VPOR (R10)(AX*8), Y0, Y0
	VPOR (R11)(AX*8), Y0, Y0
	VPOR (DI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ $4, AX
	DECQ BX
	JNZ  loopor
tailor:
	CMPQ AX, CX
	JGE  doneor
	MOVQ (R8)(AX*8), DX
	ORQ  (R9)(AX*8), DX
	ORQ  (R10)(AX*8), DX
	ORQ  (R11)(AX*8), DX
	ORQ  DX, (DI)(AX*8)
	INCQ AX
	JMP  tailor
doneor:
	VZEROUPPER
	RET

// func kernRowPanelsS(k, panels int, a0, panel, acc *float64)
//
// Fused row sweep: `panels` consecutive nr-wide panels of one packed
// operand against one a-row, accumulators flushed to acc[8p : 8p+8] per
// panel, ±0 a elements stepped over. One call per row instead of one
// per panel: the call overhead dominates batch-1 selects at small k.
TEXT ·kernRowPanelsS(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), BX
	MOVQ panels+8(FP), R9
	MOVQ a0+16(FP), R10
	MOVQ panel+24(FP), SI
	MOVQ acc+32(FP), DI
	TESTQ R9, R9
	JZ   doneRS
panelRS:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	MOVQ R10, R8
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   flushRS
loopRS:
	MOVQ (R8), AX
	ADDQ AX, AX
	JZ   nextRS
	VBROADCASTSD (R8), Y2
	VMULPD (SI), Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD 32(SI), Y2, Y3
	VADDPD Y3, Y5, Y5
nextRS:
	ADDQ $8, R8
	ADDQ $64, SI
	DECQ CX
	JNZ  loopRS
flushRS:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ $64, DI
	DECQ R9
	JNZ  panelRS
doneRS:
	VZEROUPPER
	RET
