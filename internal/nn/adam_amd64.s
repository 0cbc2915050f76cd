//go:build amd64

#include "textflag.h"

// The guard's constants, one per lane. adamAbs clears a double's sign
// bit. With a the bit pattern of |x|, (a − adamLo) > adamSpan as signed
// integers exactly when a lies outside [bits(2⁻⁹⁰⁰), bits(2⁹⁰⁰)]: adamLo
// is bits(2⁻⁹⁰⁰) + 2⁶³ and adamSpan bits(2⁹⁰⁰) − bits(2⁻⁹⁰⁰) − 2⁶³, the
// bias that makes the one signed compare an unsigned range test. Zero,
// every denormal, Inf and NaN all land outside.
DATA adamAbs<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA adamAbs<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA adamAbs<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA adamAbs<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL adamAbs<>(SB), RODATA|NOPTR, $32
DATA adamLo<>+0(SB)/8, $0x87B0000000000000
DATA adamLo<>+8(SB)/8, $0x87B0000000000000
DATA adamLo<>+16(SB)/8, $0x87B0000000000000
DATA adamLo<>+24(SB)/8, $0x87B0000000000000
GLOBL adamLo<>(SB), RODATA|NOPTR, $32
DATA adamSpan<>+0(SB)/8, $0xF080000000000000
DATA adamSpan<>+8(SB)/8, $0xF080000000000000
DATA adamSpan<>+16(SB)/8, $0xF080000000000000
DATA adamSpan<>+24(SB)/8, $0xF080000000000000
GLOBL adamSpan<>(SB), RODATA|NOPTR, $32

// func adamKernel(rows, cols int, value, grad, m, v, pack *float64, k *adamConsts, zero bool)
//
// Adam.update over a rows×cols tensor (cols a multiple of 4; a flat run
// of elements is one row), four lanes at a time, in the scalar loop's
// operation order. Every multiply, add and square root and the final
// divide is its own correctly rounded IEEE operation, so each lane
// equals the scalar element bit for bit. The two divisions by the
// step's constants, m′/c₁ and v′/c₂, do not visit the divider: with
// y = RN(1/c) from the caller,
//
//	q₀ = RN(x·y)   r₀ = RN(x − q₀·c)   q₁ = RN(q₀ + r₀·y)
//	               r₁ = RN(x − q₁·c)   q  = RN(q₁ + r₁·y)
//
// is RN(x/c) (Markstein: q₁ is a faithful rounding of x/c, which q₀ —
// up to 1.5 ulp off — need not be; then r₁ is exact and one more
// correction rounds correctly), provided nothing under- or overflows on
// the way. No x is known for which q₁ is not already RN(x/c) — 10⁸
// quotients built to sit beside a rounding midpoint turned up none — so
// no test tells one round from two; the second is what the theorem
// covers, and it runs in the divider's shadow. The guard is the
// proviso: a vector takes the sequence when every lane of |m′| and of
// |v′| is exactly 0 or in [2⁻⁹⁰⁰, 2⁹⁰⁰] (±0 is exact through it but
// comes out +0, so x's sign bit is ORed back), and k.reciprocal says c₁
// and c₂ are in [2⁻¹⁰, 1]; any other vector runs VDIVPD twice, as every
// vector once did.
//
// pack, when non-nil, is the tensor's mat.PackedB panels (cols a
// multiple of the panel width 8): element (t, j) also goes to
// pack[(j/8)·rows·8 + t·8 + j%8], so the step leaves the pack current.
//
// k holds β₁, 1−β₁, β₂, 1−β₂, c₁, c₂, lr, ε, 1/c₁, 1/c₂, reciprocal in
// that order. The frame holds the four constants read once a vector as
// memory operands, the pack rewind of a finished row and the vectors in
// a row.
TEXT ·adamKernel(SB), NOSPLIT, $144-65
	MOVQ rows+0(FP), DX
	MOVQ cols+8(FP), CX
	MOVQ value+16(FP), DI
	MOVQ grad+24(FP), SI
	MOVQ m+32(FP), R8
	MOVQ v+40(FP), R9
	MOVQ pack+48(FP), R10
	MOVQ k+56(FP), AX
	MOVBLZX zero+64(FP), BX
	VBROADCASTSD 0(AX), Y15   // β₁
	VBROADCASTSD 16(AX), Y14  // β₂
	VBROADCASTSD 32(AX), Y13  // c₁
	VBROADCASTSD 64(AX), Y12  // y₁
	VBROADCASTSD 40(AX), Y11  // c₂
	VBROADCASTSD 72(AX), Y10  // y₂
	VBROADCASTSD 8(AX), Y0
	VMOVUPD Y0, 0(SP)         // 1−β₁
	VBROADCASTSD 24(AX), Y0
	VMOVUPD Y0, 32(SP)        // 1−β₂
	VBROADCASTSD 48(AX), Y0
	VMOVUPD Y0, 64(SP)        // lr
	VBROADCASTSD 56(AX), Y0
	VMOVUPD Y0, 96(SP)        // ε
	VPXOR Y7, Y7, Y7          // +0 in every lane, for the guard and the gradient
	MOVBLZX 80(AX), R12
	XORQ $1, R12              // 1: c₁ or c₂ out of range, every vector divides
	// The pack walk. A panel is rows·64 bytes; row t of it starts t·64
	// in. From a row's first half-panel the next vector is 32 bytes on,
	// from its second rows·64 − 32: R11 alternates between the two by
	// XOR with R13. A finished row has moved (cols/8)·rows·64 and the
	// next starts 64 past where it began.
	MOVQ DX, R13
	SHLQ $6, R13
	MOVQ CX, AX
	SHRQ $3, AX
	IMULQ R13, AX
	SUBQ $64, AX
	MOVQ AX, 128(SP)
	SUBQ $32, R13
	XORQ $32, R13
	MOVQ $32, R11
	SHRQ $2, CX
	MOVQ CX, 136(SP)
	TESTQ CX, CX
	JZ   doneadam
	TESTQ DX, DX
	JZ   doneadam
rowadam:
	MOVQ 136(SP), CX
loopadam:
	VMOVUPD (SI), Y0          // g
	VMULPD (R8), Y15, Y1      // β₁·m
	VMULPD 0(SP), Y0, Y2      // (1−β₁)·g
	VADDPD Y2, Y1, Y1         // m′
	VMOVUPD Y1, (R8)
	VMULPD (R9), Y14, Y3      // β₂·v
	VMULPD 32(SP), Y0, Y4     // (1−β₂)·g
	VMULPD Y0, Y4, Y4         // ·g
	VADDPD Y4, Y3, Y3         // v′
	VMOVUPD Y3, (R9)
	// The guard: a lane is bad when it is out of range and not ±0.
	VANDPD adamAbs<>(SB), Y1, Y2 // |m′|
	VANDPD adamAbs<>(SB), Y3, Y4 // |v′|
	VPSUBQ adamLo<>(SB), Y2, Y5
	VPSUBQ adamLo<>(SB), Y4, Y6
	VPCMPGTQ adamSpan<>(SB), Y5, Y5
	VPCMPGTQ adamSpan<>(SB), Y6, Y6
	VPCMPEQQ Y7, Y2, Y8
	VPCMPEQQ Y7, Y4, Y9
	VPANDN Y5, Y8, Y5
	VPANDN Y6, Y9, Y6
	VPOR Y6, Y5, Y5
	VMOVMSKPD Y5, AX
	ORQ  R12, AX
	JNZ  divadam
	VMULPD Y12, Y1, Y5        // q₀ = m′·y₁
	VMULPD Y10, Y3, Y6        // q₀ = v′·y₂
	VMOVAPD Y1, Y8
	VMOVAPD Y3, Y9
	VFNMADD231PD Y13, Y5, Y8  // r₀ = m′ − q₀·c₁
	VFNMADD231PD Y11, Y6, Y9  // r₀ = v′ − q₀·c₂
	VFMADD231PD Y12, Y8, Y5   // q₁ = q₀ + r₀·y₁
	VFMADD231PD Y10, Y9, Y6   // q₁ = q₀ + r₀·y₂
	VMOVAPD Y1, Y8
	VMOVAPD Y3, Y9
	VFNMADD231PD Y13, Y5, Y8  // r₁ = m′ − q₁·c₁
	VFNMADD231PD Y11, Y6, Y9  // r₁ = v′ − q₁·c₂
	VFMADD231PD Y12, Y8, Y5   // q = q₁ + r₁·y₁
	VFMADD231PD Y10, Y9, Y6   // q = q₁ + r₁·y₂
	VXORPD Y2, Y1, Y1         // the sign bit of m′
	VXORPD Y4, Y3, Y3         // the sign bit of v′
	VORPD Y5, Y1, Y1          // m′/c₁
	VORPD Y6, Y3, Y3          // v′/c₂
stepadam:
	VMULPD 64(SP), Y1, Y1     // lr·(m′/c₁)
	VSQRTPD Y3, Y3
	VADDPD 96(SP), Y3, Y3     // √(v′/c₂) + ε
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	TESTQ R10, R10
	JZ   nopack
	VMOVUPD Y5, (R10)
	ADDQ R11, R10
	XORQ R13, R11
nopack:
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
	TESTQ R10, R10
	JZ   nextrow
	SUBQ 128(SP), R10
nextrow:
	DECQ DX
	JNZ  rowadam
doneadam:
	VZEROUPPER
	RET
divadam:
	VDIVPD Y13, Y1, Y1        // m′/c₁
	VDIVPD Y11, Y3, Y3        // v′/c₂
	JMP  stepadam
