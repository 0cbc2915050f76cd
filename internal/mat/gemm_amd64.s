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
// rows by two panels, sixteen accumulators in Z16-Z31 (row q's pair in
// Z16+2q, Z17+2q): per k step two panel loads, then for each row one
// broadcast of its a element feeding two VMULPDs, and two VADDPDs into
// the row's pair — in every lane the IEEE multiply and add kern4x8n
// performs, in the same ascending k, so the two tiers agree bit for bit.
// (The panel is the multiply's first source here and the broadcast is in
// the YMM tile, so a term whose a and b elements are both NaN carries b's
// payload here and a's there; NaN-ness is the same.) R14/R15 are left
// alone (g register / linker scratch); the eight row pointers live in
// R8-R13, BX, DX, which do not move: AX holds the byte offset of the
// step's a elements in every row.

// func kern8x16(t *tile16)
//
// One 8-row tile against t.panels consecutive panels of a packed operand,
// written back from the registers, two panels a pass — an odd last panel
// runs a one-panel pass, its second half masked off. Per pass: the k loop
// — every step when t.idx is nil, the offset advancing t.astep bytes (8
// along a row, a row's width down a column MulTransA reads in place), else
// the t.k steps t.idx lists (ascending) of contiguous a rows, where AX is
// 8·idx[t] and scaled by eight again the panel row's offset — then the
// epilogue on both halves: bias added (acc + bias), ReLU as a
// compare-greater-than-zero and a zero-masked move (NaN and −0 give +0,
// +Inf stays: relu()'s contract), the destination added for an
// accumulating product (dst + acc), and the row stores. K1 masks the
// pass's first panel, K2 its second: the last panel's loads and stores
// are masked to t.last's lanes, and a one-panel pass has K2 empty — the
// masked loads and stores of its second half touch no memory. With every
// epilogue field zero and t.d the rows of an accumulator array it is the
// bare tile: the sums, stored. Field offsets are tile16's (tiled.go). The
// walk advances t.panels, t.col and t.poff — integers: a pointer field
// stepped past its last panel would be a bad pointer to the collector.
// end is where the pass's k loop stops: AX's last value for the dense
// walk, the end of the index list for the indexed one.
TEXT ·kern8x16(SB), NOSPLIT, $8-8
pass16:
	MOVQ t+0(FP), AX
	MOVQ 200(AX), R8          // the last panel's lane mask
	MOVQ $0xFF, R9
	KMOVW R9, K1
	KMOVW R9, K2
	CMPQ 160(AX), $2          // panels left, this pass's included
	JG   walk16               // a pair with more after it: both halves whole
	JE   pair16
	KMOVW R8, K1              // the last panel alone
	KXORW K2, K2, K2
	JMP  walk16
pair16:
	KMOVW R8, K2              // a pair closing the tile: its second panel is the last
walk16:
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ 144(AX), SI          // the first panel …
	ADDQ 208(AX), SI          // … and this pass's byte offset from it
	MOVQ SI, DI
	ADDQ 152(AX), DI          // the pass's second panel
	MOVQ 16(AX), R8
	MOVQ 24(AX), R9
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ 64(AX), BX
	MOVQ 72(AX), DX
	MOVQ 0(AX), CX            // k
	TESTQ CX, CX
	JZ   epi16
	CMPQ 8(AX), $0            // idx
	JNE  idxset16
	IMULQ 216(AX), CX         // the dense walk ends k·astep bytes in
	MOVQ CX, end-8(SP)
	MOVQ 216(AX), CX          // astep
	XORL AX, AX
	KORTESTW K2, K2
	JZ   dense8w
dense16w:
	VMOVUPD (SI), Z0
	VMOVUPD (DI), Z1
	VBROADCASTSD (R8)(AX*1), Z2
	VMULPD Z2, Z0, Z3
	VADDPD Z3, Z16, Z16
	VMULPD Z2, Z1, Z4
	VADDPD Z4, Z17, Z17
	VBROADCASTSD (R9)(AX*1), Z2
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z18, Z18
	VMULPD Z2, Z1, Z6
	VADDPD Z6, Z19, Z19
	VBROADCASTSD (R10)(AX*1), Z2
	VMULPD Z2, Z0, Z7
	VADDPD Z7, Z20, Z20
	VMULPD Z2, Z1, Z8
	VADDPD Z8, Z21, Z21
	VBROADCASTSD (R11)(AX*1), Z2
	VMULPD Z2, Z0, Z9
	VADDPD Z9, Z22, Z22
	VMULPD Z2, Z1, Z10
	VADDPD Z10, Z23, Z23
	VBROADCASTSD (R12)(AX*1), Z2
	VMULPD Z2, Z0, Z3
	VADDPD Z3, Z24, Z24
	VMULPD Z2, Z1, Z4
	VADDPD Z4, Z25, Z25
	VBROADCASTSD (R13)(AX*1), Z2
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z26, Z26
	VMULPD Z2, Z1, Z6
	VADDPD Z6, Z27, Z27
	VBROADCASTSD (BX)(AX*1), Z2
	VMULPD Z2, Z0, Z7
	VADDPD Z7, Z28, Z28
	VMULPD Z2, Z1, Z8
	VADDPD Z8, Z29, Z29
	VBROADCASTSD (DX)(AX*1), Z2
	VMULPD Z2, Z0, Z9
	VADDPD Z9, Z30, Z30
	VMULPD Z2, Z1, Z10
	VADDPD Z10, Z31, Z31
	ADDQ CX, AX
	ADDQ $64, SI
	ADDQ $64, DI
	CMPQ AX, end-8(SP)
	JNE  dense16w
	JMP  epi16
dense8w:
	VMOVUPD (SI), Z0
	VBROADCASTSD (R8)(AX*1), Z2
	VMULPD Z2, Z0, Z3
	VADDPD Z3, Z16, Z16
	VBROADCASTSD (R9)(AX*1), Z2
	VMULPD Z2, Z0, Z4
	VADDPD Z4, Z18, Z18
	VBROADCASTSD (R10)(AX*1), Z2
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z20, Z20
	VBROADCASTSD (R11)(AX*1), Z2
	VMULPD Z2, Z0, Z6
	VADDPD Z6, Z22, Z22
	VBROADCASTSD (R12)(AX*1), Z2
	VMULPD Z2, Z0, Z7
	VADDPD Z7, Z24, Z24
	VBROADCASTSD (R13)(AX*1), Z2
	VMULPD Z2, Z0, Z8
	VADDPD Z8, Z26, Z26
	VBROADCASTSD (BX)(AX*1), Z2
	VMULPD Z2, Z0, Z9
	VADDPD Z9, Z28, Z28
	VBROADCASTSD (DX)(AX*1), Z2
	VMULPD Z2, Z0, Z10
	VADDPD Z10, Z30, Z30
	ADDQ CX, AX
	ADDQ $64, SI
	CMPQ AX, end-8(SP)
	JNE  dense8w
	JMP  epi16
idxset16:
	MOVQ 8(AX), AX
	LEAQ (AX)(CX*4), CX
	MOVQ CX, end-8(SP)        // the indexed walk ends past the list
	MOVQ AX, CX               // the next index
	KORTESTW K2, K2
	JZ   idx8w
idx16w:
	MOVLQSX (CX), AX
	SHLQ $3, AX
	VMOVUPD (SI)(AX*8), Z0
	VMOVUPD (DI)(AX*8), Z1
	VBROADCASTSD (R8)(AX*1), Z2
	VMULPD Z2, Z0, Z3
	VADDPD Z3, Z16, Z16
	VMULPD Z2, Z1, Z4
	VADDPD Z4, Z17, Z17
	VBROADCASTSD (R9)(AX*1), Z2
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z18, Z18
	VMULPD Z2, Z1, Z6
	VADDPD Z6, Z19, Z19
	VBROADCASTSD (R10)(AX*1), Z2
	VMULPD Z2, Z0, Z7
	VADDPD Z7, Z20, Z20
	VMULPD Z2, Z1, Z8
	VADDPD Z8, Z21, Z21
	VBROADCASTSD (R11)(AX*1), Z2
	VMULPD Z2, Z0, Z9
	VADDPD Z9, Z22, Z22
	VMULPD Z2, Z1, Z10
	VADDPD Z10, Z23, Z23
	VBROADCASTSD (R12)(AX*1), Z2
	VMULPD Z2, Z0, Z3
	VADDPD Z3, Z24, Z24
	VMULPD Z2, Z1, Z4
	VADDPD Z4, Z25, Z25
	VBROADCASTSD (R13)(AX*1), Z2
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z26, Z26
	VMULPD Z2, Z1, Z6
	VADDPD Z6, Z27, Z27
	VBROADCASTSD (BX)(AX*1), Z2
	VMULPD Z2, Z0, Z7
	VADDPD Z7, Z28, Z28
	VMULPD Z2, Z1, Z8
	VADDPD Z8, Z29, Z29
	VBROADCASTSD (DX)(AX*1), Z2
	VMULPD Z2, Z0, Z9
	VADDPD Z9, Z30, Z30
	VMULPD Z2, Z1, Z10
	VADDPD Z10, Z31, Z31
	ADDQ $4, CX
	CMPQ CX, end-8(SP)
	JNE  idx16w
	JMP  epi16
idx8w:
	MOVLQSX (CX), AX
	SHLQ $3, AX
	VMOVUPD (SI)(AX*8), Z0
	VBROADCASTSD (R8)(AX*1), Z2
	VMULPD Z2, Z0, Z3
	VADDPD Z3, Z16, Z16
	VBROADCASTSD (R9)(AX*1), Z2
	VMULPD Z2, Z0, Z4
	VADDPD Z4, Z18, Z18
	VBROADCASTSD (R10)(AX*1), Z2
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z20, Z20
	VBROADCASTSD (R11)(AX*1), Z2
	VMULPD Z2, Z0, Z6
	VADDPD Z6, Z22, Z22
	VBROADCASTSD (R12)(AX*1), Z2
	VMULPD Z2, Z0, Z7
	VADDPD Z7, Z24, Z24
	VBROADCASTSD (R13)(AX*1), Z2
	VMULPD Z2, Z0, Z8
	VADDPD Z8, Z26, Z26
	VBROADCASTSD (BX)(AX*1), Z2
	VMULPD Z2, Z0, Z9
	VADDPD Z9, Z28, Z28
	VBROADCASTSD (DX)(AX*1), Z2
	VMULPD Z2, Z0, Z10
	VADDPD Z10, Z30, Z30
	ADDQ $4, CX
	CMPQ CX, end-8(SP)
	JNE  idx8w
epi16:
	MOVQ t+0(FP), AX
	MOVQ 192(AX), CX          // byte offset of the pass's first column in a d row
	MOVQ 168(AX), SI          // bias
	TESTQ SI, SI
	JZ   nobias16
	VMOVUPD.Z (SI)(CX*1), K1, Z0
	VMOVUPD.Z 64(SI)(CX*1), K2, Z1
	VADDPD Z0, Z16, Z16
	VADDPD Z1, Z17, Z17
	VADDPD Z0, Z18, Z18
	VADDPD Z1, Z19, Z19
	VADDPD Z0, Z20, Z20
	VADDPD Z1, Z21, Z21
	VADDPD Z0, Z22, Z22
	VADDPD Z1, Z23, Z23
	VADDPD Z0, Z24, Z24
	VADDPD Z1, Z25, Z25
	VADDPD Z0, Z26, Z26
	VADDPD Z1, Z27, Z27
	VADDPD Z0, Z28, Z28
	VADDPD Z1, Z29, Z29
	VADDPD Z0, Z30, Z30
	VADDPD Z1, Z31, Z31
nobias16:
	CMPQ 176(AX), $0          // relu
	JE   norelu16
	VPXORQ Z0, Z0, Z0
	VCMPPD $0x1E, Z0, Z16, K3  // GT_OQ: acc > 0
	VMOVAPD.Z Z16, K3, Z16
	VCMPPD $0x1E, Z0, Z17, K3
	VMOVAPD.Z Z17, K3, Z17
	VCMPPD $0x1E, Z0, Z18, K3
	VMOVAPD.Z Z18, K3, Z18
	VCMPPD $0x1E, Z0, Z19, K3
	VMOVAPD.Z Z19, K3, Z19
	VCMPPD $0x1E, Z0, Z20, K3
	VMOVAPD.Z Z20, K3, Z20
	VCMPPD $0x1E, Z0, Z21, K3
	VMOVAPD.Z Z21, K3, Z21
	VCMPPD $0x1E, Z0, Z22, K3
	VMOVAPD.Z Z22, K3, Z22
	VCMPPD $0x1E, Z0, Z23, K3
	VMOVAPD.Z Z23, K3, Z23
	VCMPPD $0x1E, Z0, Z24, K3
	VMOVAPD.Z Z24, K3, Z24
	VCMPPD $0x1E, Z0, Z25, K3
	VMOVAPD.Z Z25, K3, Z25
	VCMPPD $0x1E, Z0, Z26, K3
	VMOVAPD.Z Z26, K3, Z26
	VCMPPD $0x1E, Z0, Z27, K3
	VMOVAPD.Z Z27, K3, Z27
	VCMPPD $0x1E, Z0, Z28, K3
	VMOVAPD.Z Z28, K3, Z28
	VCMPPD $0x1E, Z0, Z29, K3
	VMOVAPD.Z Z29, K3, Z29
	VCMPPD $0x1E, Z0, Z30, K3
	VMOVAPD.Z Z30, K3, Z30
	VCMPPD $0x1E, Z0, Z31, K3
	VMOVAPD.Z Z31, K3, Z31
norelu16:
	MOVQ 80(AX), R8
	MOVQ 88(AX), R9
	MOVQ 96(AX), R10
	MOVQ 104(AX), R11
	MOVQ 112(AX), R12
	MOVQ 120(AX), R13
	MOVQ 128(AX), BX
	MOVQ 136(AX), DX
	CMPQ 224(AX), $0          // a column map
	JNE  scatter16
	CMPQ 184(AX), $0          // accumulate
	JE   store16
	VMOVUPD.Z (R8)(CX*1), K1, Z0
	VADDPD Z16, Z0, Z16
	VMOVUPD.Z 64(R8)(CX*1), K2, Z1
	VADDPD Z17, Z1, Z17
	VMOVUPD.Z (R9)(CX*1), K1, Z0
	VADDPD Z18, Z0, Z18
	VMOVUPD.Z 64(R9)(CX*1), K2, Z1
	VADDPD Z19, Z1, Z19
	VMOVUPD.Z (R10)(CX*1), K1, Z0
	VADDPD Z20, Z0, Z20
	VMOVUPD.Z 64(R10)(CX*1), K2, Z1
	VADDPD Z21, Z1, Z21
	VMOVUPD.Z (R11)(CX*1), K1, Z0
	VADDPD Z22, Z0, Z22
	VMOVUPD.Z 64(R11)(CX*1), K2, Z1
	VADDPD Z23, Z1, Z23
	VMOVUPD.Z (R12)(CX*1), K1, Z0
	VADDPD Z24, Z0, Z24
	VMOVUPD.Z 64(R12)(CX*1), K2, Z1
	VADDPD Z25, Z1, Z25
	VMOVUPD.Z (R13)(CX*1), K1, Z0
	VADDPD Z26, Z0, Z26
	VMOVUPD.Z 64(R13)(CX*1), K2, Z1
	VADDPD Z27, Z1, Z27
	VMOVUPD.Z (BX)(CX*1), K1, Z0
	VADDPD Z28, Z0, Z28
	VMOVUPD.Z 64(BX)(CX*1), K2, Z1
	VADDPD Z29, Z1, Z29
	VMOVUPD.Z (DX)(CX*1), K1, Z0
	VADDPD Z30, Z0, Z30
	VMOVUPD.Z 64(DX)(CX*1), K2, Z1
	VADDPD Z31, Z1, Z31
store16:
	VMOVUPD Z16, K1, (R8)(CX*1)
	VMOVUPD Z17, K2, 64(R8)(CX*1)
	VMOVUPD Z18, K1, (R9)(CX*1)
	VMOVUPD Z19, K2, 64(R9)(CX*1)
	VMOVUPD Z20, K1, (R10)(CX*1)
	VMOVUPD Z21, K2, 64(R10)(CX*1)
	VMOVUPD Z22, K1, (R11)(CX*1)
	VMOVUPD Z23, K2, 64(R11)(CX*1)
	VMOVUPD Z24, K1, (R12)(CX*1)
	VMOVUPD Z25, K2, 64(R12)(CX*1)
	VMOVUPD Z26, K1, (R13)(CX*1)
	VMOVUPD Z27, K2, 64(R13)(CX*1)
	VMOVUPD Z28, K1, (BX)(CX*1)
	VMOVUPD Z29, K2, 64(BX)(CX*1)
	VMOVUPD Z30, K1, (DX)(CX*1)
	VMOVUPD Z31, K2, 64(DX)(CX*1)
	JMP  next16
scatter16:
	// The pass's columns of every row go where the column map sends them:
	// its sixteen entries (four bytes each, from the pass's first column)
	// loaded under K1 and K2, then per row and half a gather of the
	// destination (dst + acc) when accumulating, and a scatter. A gather
	// or scatter clears its mask: each takes a copy in K3.
	MOVQ 224(AX), SI
	SHRQ $1, CX
	VMOVDQU32.Z (SI)(CX*1), K1, Y8
	VMOVDQU32.Z 32(SI)(CX*1), K2, Y9
	CMPQ 184(AX), $0          // accumulate
	JE   scat16
	KMOVW K1, K3
	VGATHERDPD (R8)(Y8*8), K3, Z0
	VADDPD Z16, Z0, Z16
	KMOVW K2, K3
	VGATHERDPD (R8)(Y9*8), K3, Z1
	VADDPD Z17, Z1, Z17
	KMOVW K1, K3
	VGATHERDPD (R9)(Y8*8), K3, Z0
	VADDPD Z18, Z0, Z18
	KMOVW K2, K3
	VGATHERDPD (R9)(Y9*8), K3, Z1
	VADDPD Z19, Z1, Z19
	KMOVW K1, K3
	VGATHERDPD (R10)(Y8*8), K3, Z0
	VADDPD Z20, Z0, Z20
	KMOVW K2, K3
	VGATHERDPD (R10)(Y9*8), K3, Z1
	VADDPD Z21, Z1, Z21
	KMOVW K1, K3
	VGATHERDPD (R11)(Y8*8), K3, Z0
	VADDPD Z22, Z0, Z22
	KMOVW K2, K3
	VGATHERDPD (R11)(Y9*8), K3, Z1
	VADDPD Z23, Z1, Z23
	KMOVW K1, K3
	VGATHERDPD (R12)(Y8*8), K3, Z0
	VADDPD Z24, Z0, Z24
	KMOVW K2, K3
	VGATHERDPD (R12)(Y9*8), K3, Z1
	VADDPD Z25, Z1, Z25
	KMOVW K1, K3
	VGATHERDPD (R13)(Y8*8), K3, Z0
	VADDPD Z26, Z0, Z26
	KMOVW K2, K3
	VGATHERDPD (R13)(Y9*8), K3, Z1
	VADDPD Z27, Z1, Z27
	KMOVW K1, K3
	VGATHERDPD (BX)(Y8*8), K3, Z0
	VADDPD Z28, Z0, Z28
	KMOVW K2, K3
	VGATHERDPD (BX)(Y9*8), K3, Z1
	VADDPD Z29, Z1, Z29
	KMOVW K1, K3
	VGATHERDPD (DX)(Y8*8), K3, Z0
	VADDPD Z30, Z0, Z30
	KMOVW K2, K3
	VGATHERDPD (DX)(Y9*8), K3, Z1
	VADDPD Z31, Z1, Z31
scat16:
	KMOVW K1, K3
	VSCATTERDPD Z16, K3, (R8)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z17, K3, (R8)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z18, K3, (R9)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z19, K3, (R9)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z20, K3, (R10)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z21, K3, (R10)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z22, K3, (R11)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z23, K3, (R11)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z24, K3, (R12)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z25, K3, (R12)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z26, K3, (R13)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z27, K3, (R13)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z28, K3, (BX)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z29, K3, (BX)(Y9*8)
	KMOVW K1, K3
	VSCATTERDPD Z30, K3, (DX)(Y8*8)
	KMOVW K2, K3
	VSCATTERDPD Z31, K3, (DX)(Y9*8)
next16:
	ADDQ $128, 192(AX)
	MOVQ 152(AX), R9          // bytes from one panel to the next …
	SHLQ $1, R9               // … and from one pass to the next
	ADDQ R9, 208(AX)
	SUBQ $2, 160(AX)
	JG   pass16
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
