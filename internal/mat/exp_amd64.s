//go:build amd64

#include "textflag.h"

// expc holds the runtime's archExp constants (math/exp_amd64.s): log₂e,
// 1.5·2⁵², the upper and lower halves of ln 2, 1/16, 2, 1, then the
// Taylor coefficients 1/8! down to 1/3! and 1/2, and |x|'s bound.
DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+8(SB)/8, $0x4338000000000000
DATA expc<>+16(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+24(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+32(SB)/8, $0.0625
DATA expc<>+40(SB)/8, $2.0
DATA expc<>+48(SB)/8, $1.0
DATA expc<>+56(SB)/8, $2.4801587301587301587e-5
DATA expc<>+64(SB)/8, $1.9841269841269841270e-4
DATA expc<>+72(SB)/8, $1.3888888888888888889e-3
DATA expc<>+80(SB)/8, $8.3333333333333333333e-3
DATA expc<>+88(SB)/8, $4.1666666666666666667e-2
DATA expc<>+96(SB)/8, $1.6666666666666666667e-1
DATA expc<>+104(SB)/8, $0.5
DATA expc<>+112(SB)/8, $700.0
DATA expc<>+120(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL expc<>(SB), RODATA|NOPTR, $128

// func expKernel(xs []float64) int
//
// Replaces xs[i] with math.Exp(xs[i]) four lanes at a time, performing
// the runtime's FMA path (archExp under useFMA) lane for lane, and
// returns how many elements it did: every whole vector up to the first
// one with a lane outside (−700, 700), where archExp may leave its normal
// path. k = RN(x·log₂e) is the product plus 1.5·2⁵², whose low bits are
// then k itself (CVTSD2SL rounds to nearest even too), and 2ᵏ is those
// bits shifted into the exponent plus the bits of 1.0.
TEXT ·expKernel(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	VBROADCASTSD expc<>+0(SB), Y15
	VBROADCASTSD expc<>+8(SB), Y14
	VBROADCASTSD expc<>+16(SB), Y13
	VBROADCASTSD expc<>+24(SB), Y12
	VBROADCASTSD expc<>+32(SB), Y11
	VBROADCASTSD expc<>+40(SB), Y10
	VBROADCASTSD expc<>+48(SB), Y9
	VBROADCASTSD expc<>+112(SB), Y8
	VBROADCASTSD expc<>+120(SB), Y7
	TESTQ CX, CX
	JZ   doneexp
loopexp:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD Y7, Y0, Y1
	VCMPPD $0x11, Y8, Y1, Y1  // |x| < 700, false for NaN
	VMOVMSKPD Y1, DX
	CMPQ DX, $15
	JNE  doneexp
	VMULPD Y15, Y0, Y1
	VADDPD Y14, Y1, Y1        // 1.5·2⁵² + k
	VSUBPD Y14, Y1, Y2        // k
	VFNMADD231PD Y13, Y2, Y0  // x − k·ln2U
	VFNMADD231PD Y12, Y2, Y0  // − k·ln2L
	VMULPD Y11, Y0, Y0        // r
	VBROADCASTSD expc<>+56(SB), Y3
	VBROADCASTSD expc<>+64(SB), Y4
	VFMADD213PD Y4, Y0, Y3
	VBROADCASTSD expc<>+72(SB), Y4
	VFMADD213PD Y4, Y0, Y3
	VBROADCASTSD expc<>+80(SB), Y4
	VFMADD213PD Y4, Y0, Y3
	VBROADCASTSD expc<>+88(SB), Y4
	VFMADD213PD Y4, Y0, Y3
	VBROADCASTSD expc<>+96(SB), Y4
	VFMADD213PD Y4, Y0, Y3
	VBROADCASTSD expc<>+104(SB), Y4
	VFMADD213PD Y4, Y0, Y3
	VFMADD213PD Y9, Y0, Y3
	VMULPD Y3, Y0, Y0         // r·p, then three r·(r+2)
	VADDPD Y10, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y10, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y10, Y0, Y3
	VMULPD Y3, Y0, Y0
	VADDPD Y10, Y0, Y3
	VFMADD213PD Y9, Y3, Y0    // r·(r+2) + 1
	VPSLLQ $52, Y1, Y1
	VPADDQ Y9, Y1, Y1         // 2ᵏ
	VMULPD Y1, Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ  loopexp
doneexp:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func cpuHasFMA() bool
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX              // FMA
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
