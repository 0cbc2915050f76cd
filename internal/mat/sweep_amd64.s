//go:build amd64

#include "textflag.h"

// func sweepKernel(s *sweepArgs)
//
// SweepGrad on the AVX-512 tier: one panel of eight columns at a time, down
// every row. A row's eight elements are one ZMM, loaded under K1 (the
// panel's columns: all eight, or the last panel's few, the rest +0); less
// the row's shift, times the scale, and zeroed under the mask's compare
// (GT_OQ: y > 0, false for −0 and NaN) as sweepRows makes them; then
// zeroed outside K1 again, stored to the row of dst under K1, stored whole
// to the panels (the pad lanes +0), added to the sums and ORed into the
// ORs, both held in registers for the whole panel. The panels are written
// in order, 64 bytes a row. The add takes the sums as its first source
// (sums + v), the subtraction and product v as theirs. Field offsets are
// sweepArgs' (sweep.go). R14/R15 are left alone.
TEXT ·sweepKernel(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), AX
	MOVQ 0(AX), R8            // rows
	MOVQ 8(AX), R9            // cols
	LEAQ (R9*8), R10          // bytes from one row to the next
	VBROADCASTSD 48(AX), Z7   // scale
	VPXORQ Z6, Z6, Z6         // +0, the mask's threshold
	MOVQ 72(AX), DI           // the panels, written in order
	MOVQ 40(AX), DX           // shift
	XORQ BX, BX               // the panel's first column
panelsw:
	MOVQ R9, CX
	SUBQ BX, CX               // columns left
	MOVQ $0xFF, R11
	CMPQ CX, $8
	JGE  wholesw
	MOVQ $1, R11
	SHLQ CX, R11
	DECQ R11
wholesw:
	KMOVW R11, K1
	VPXORQ Z4, Z4, Z4         // the panel's column sums
	VPXORQ Z5, Z5, Z5         // and ORs
	LEAQ (BX*8), R11          // byte offset of the panel's first column in a row
	MOVQ 16(AX), SI
	ADDQ R11, SI              // g
	MOVQ 24(AX), R12
	TESTQ R12, R12
	JZ   maskptrsw
	ADDQ R11, R12             // dst
maskptrsw:
	MOVQ 32(AX), R13
	TESTQ R13, R13
	JZ   rowsstartsw
	ADDQ R11, R13             // mask
rowsstartsw:
	XORQ CX, CX               // row
rowsw:
	VMOVUPD.Z (SI), K1, Z0
	TESTQ DX, DX
	JZ   noshiftsw
	VBROADCASTSD (DX)(CX*8), Z1
	VSUBPD Z1, Z0, Z0         // v − shift
noshiftsw:
	CMPQ 48(AX), $0
	JE   noscalesw
	VMULPD Z7, Z0, Z0         // v · scale
noscalesw:
	TESTQ R13, R13
	JZ   nomasksw
	VMOVUPD.Z (R13), K1, Z2
	VCMPPD $0x1E, Z6, Z2, K2  // GT_OQ: y > 0
	VMOVAPD.Z Z0, K2, Z0
	ADDQ R10, R13
nomasksw:
	VMOVAPD.Z Z0, K1, Z0      // the pad lanes +0
	TESTQ R12, R12
	JZ   nostoresw
	VMOVUPD Z0, K1, (R12)
	ADDQ R10, R12
nostoresw:
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	VADDPD Z0, Z4, Z4         // sums + v
	VPORQ Z0, Z5, Z5
	ADDQ R10, SI
	INCQ CX
	CMPQ CX, R8
	JL   rowsw
	LEAQ (BX*8), R11
	MOVQ 56(AX), SI
	VMOVUPD Z4, K1, (SI)(R11*1)
	MOVQ 64(AX), SI
	VMOVDQU64 Z5, K1, (SI)(R11*1)
	ADDQ $8, BX
	CMPQ BX, R9
	JL   panelsw
	VZEROUPPER
	RET

// func gatherPanel(k int, base *float64, src *[8]int, lanes int, dst *float64)
//
// compactPanels' destination panel on the AVX-512 tier: for each of the k
// rows, the lanes' elements gathered from base[src[jj] + 8t] (a zeroed
// register first, so the lanes outside the mask are +0) and the row stored
// whole at dst[8t].
TEXT ·gatherPanel(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ base+8(FP), SI
	MOVQ src+16(FP), AX
	VMOVDQU64 (AX), Z1        // the lanes' offsets, in elements
	MOVQ lanes+24(FP), R8
	MOVQ dst+32(FP), DI
	TESTQ CX, CX
	JZ   donegp
rowgp:
	KMOVW R8, K1              // the gather clears its mask
	VPXORQ Z0, Z0, Z0
	VGATHERQPD (SI)(Z1*8), K1, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  rowgp
donegp:
	VZEROUPPER
	RET
