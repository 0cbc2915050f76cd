//go:build amd64

#include "textflag.h"

// func adamStepAVX2(n int, value, grad, m, v *float64, k *adamConsts, zero bool)
//
// Adam.update over n elements (n a multiple of 4), four lanes at a time,
// in the scalar loop's operation order: every multiply, add, divide and
// square root is its own correctly rounded IEEE operation (VDIVPD and
// VSQRTPD are exact; nothing is fused, nothing reassociated), so each
// lane equals the scalar element bit for bit. k holds β₁, 1−β₁, β₂,
// 1−β₂, c₁, c₂, lr, ε in that order.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-49
	MOVQ n+0(FP), CX
	MOVQ value+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ m+24(FP), R8
	MOVQ v+32(FP), R9
	MOVQ k+40(FP), AX
	MOVBLZX zero+48(FP), BX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	VXORPD Y7, Y7, Y7
	SHRQ $2, CX
	JZ   doneadam
loopadam:
	VMOVUPD (SI), Y0          // g
	VMULPD (R8), Y8, Y1       // β₁·m
	VMULPD Y0, Y9, Y2         // (1−β₁)·g
	VADDPD Y2, Y1, Y1         // m′
	VMOVUPD Y1, (R8)
	VMULPD (R9), Y10, Y3      // β₂·v
	VMULPD Y0, Y11, Y4        // (1−β₂)·g
	VMULPD Y0, Y4, Y4         // ·g
	VADDPD Y4, Y3, Y3         // v′
	VMOVUPD Y3, (R9)
	VDIVPD Y12, Y1, Y1        // m′/c₁
	VMULPD Y1, Y14, Y1        // lr·(m′/c₁)
	VDIVPD Y13, Y3, Y3        // v′/c₂
	VSQRTPD Y3, Y3
	VADDPD Y15, Y3, Y3        // √(v′/c₂) + ε
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	TESTQ BX, BX
	JZ   keepgrad
	VMOVUPD Y7, (SI)
keepgrad:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  loopadam
doneadam:
	VZEROUPPER
	RET
