// CPU feature probe and the per-dimension statistics kernels. See
// simd.go for the lane-per-dimension layout and the bit-identity
// argument. Register use in every kernel:
//
//	R8  row header cursor (24 bytes per []float64 header)
//	R9  rows left
//	R10 full vectors per row
//	SI  row data cursor
//	DI, BX  start of acc (or lo) and of mean (or hi)
//	DX, R12  their cursors within the row
//	CX  vectors left in the row
//	R11 / K1  tail lanes (AVX2 count with mask in Y15 / AVX-512 mask)

#include "textflag.h"

// func cpuid1ecx() uint32
TEXT ·cpuid1ecx(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func cpuid7ebx() uint32
TEXT ·cpuid7ebx(SB), NOSPLIT, $0-4
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// TAILMASK8 sets K1 to the dim%8 low lanes (dim in R10) and turns R10
// into the count of full eight-lane vectors per row.
#define TAILMASK8 \
	MOVQ  R10, CX; \
	ANDQ  $7, CX; \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K1; \
	SHRQ  $3, R10

// func addRows4(rows *[]float64, n, dim int, acc *float64, mask *int64)
TEXT ·addRows4(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dim+16(FP), R10
	MOVQ acc+24(FP), DI
	MOVQ mask+32(FP), AX
	VMOVDQU (AX), Y15
	MOVQ R10, R11
	ANDQ $3, R11               // tail lanes
	SHRQ $2, R10

add4row:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   add4tail

add4vec:
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  add4vec

add4tail:
	TESTQ R11, R11
	JZ   add4next
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (DX), Y15, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DX)

add4next:
	ADDQ $24, R8
	DECQ R9
	JNZ  add4row
	VZEROUPPER
	RET

// func addRows8(rows *[]float64, n, dim int, acc *float64)
TEXT ·addRows8(SB), NOSPLIT, $0-32
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dim+16(FP), R10
	MOVQ acc+24(FP), DI
	TAILMASK8

add8row:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   add8tail

add8vec:
	VMOVUPD (SI), Z0
	VADDPD  (DX), Z0, Z0
	VMOVUPD Z0, (DX)
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  add8vec

add8tail:
	KORTESTW K1, K1
	JZ   add8next
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DX), K1, Z1
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (DX)

add8next:
	ADDQ $24, R8
	DECQ R9
	JNZ  add8row
	VZEROUPPER
	RET

// func sqDevRows4(rows *[]float64, n, dim int, mean, acc *float64, mask *int64)
TEXT ·sqDevRows4(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dim+16(FP), R10
	MOVQ mean+24(FP), BX
	MOVQ acc+32(FP), DI
	MOVQ mask+40(FP), AX
	VMOVDQU (AX), Y15
	MOVQ R10, R11
	ANDQ $3, R11
	SHRQ $2, R10

sq4row:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   sq4tail

sq4vec:
	VMOVUPD (SI), Y0
	VSUBPD  (R12), Y0, Y0      // d = row - mean
	VMULPD  Y0, Y0, Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ $32, SI
	ADDQ $32, R12
	ADDQ $32, DX
	DECQ CX
	JNZ  sq4vec

sq4tail:
	TESTQ R11, R11
	JZ   sq4next
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (R12), Y15, Y2
	VMASKMOVPD (DX), Y15, Y1
	VSUBPD     Y2, Y0, Y0
	VMULPD     Y0, Y0, Y0
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DX)

sq4next:
	ADDQ $24, R8
	DECQ R9
	JNZ  sq4row
	VZEROUPPER
	RET

// func sqDevRows8(rows *[]float64, n, dim int, mean, acc *float64)
TEXT ·sqDevRows8(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dim+16(FP), R10
	MOVQ mean+24(FP), BX
	MOVQ acc+32(FP), DI
	TAILMASK8

sq8row:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   sq8tail

sq8vec:
	VMOVUPD (SI), Z0
	VSUBPD  (R12), Z0, Z0      // d = row - mean
	VMULPD  Z0, Z0, Z0
	VADDPD  (DX), Z0, Z0
	VMOVUPD Z0, (DX)
	ADDQ $64, SI
	ADDQ $64, R12
	ADDQ $64, DX
	DECQ CX
	JNZ  sq8vec

sq8tail:
	KORTESTW K1, K1
	JZ   sq8next
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (R12), K1, Z2
	VMOVUPD.Z (DX), K1, Z1
	VSUBPD    Z2, Z0, Z0
	VMULPD    Z0, Z0, Z0
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (DX)

sq8next:
	ADDQ $24, R8
	DECQ R9
	JNZ  sq8row
	VZEROUPPER
	RET

// func minMaxRows4(rows *[]float64, n, dim int, lo, hi *float64, mask *int64)
//
// VMINPD src2, src1, dst is dst = src1 < src2 ? src1 : src2, so with
// the row value as src1 and the bound as src2 it keeps the bound on
// equality (either zero sign) and on NaN, as the scalar compare does.
TEXT ·minMaxRows4(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dim+16(FP), R10
	MOVQ lo+24(FP), DI
	MOVQ hi+32(FP), BX
	MOVQ mask+40(FP), AX
	VMOVDQU (AX), Y15
	MOVQ R10, R11
	ANDQ $3, R11
	SHRQ $2, R10

mm4row:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   mm4tail

mm4vec:
	VMOVUPD (SI), Y0
	VMINPD  (DX), Y0, Y1
	VMAXPD  (R12), Y0, Y2
	VMOVUPD Y1, (DX)
	VMOVUPD Y2, (R12)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R12
	DECQ CX
	JNZ  mm4vec

mm4tail:
	TESTQ R11, R11
	JZ   mm4next
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (DX), Y15, Y3
	VMASKMOVPD (R12), Y15, Y4
	VMINPD     Y3, Y0, Y1
	VMAXPD     Y4, Y0, Y2
	VMASKMOVPD Y1, Y15, (DX)
	VMASKMOVPD Y2, Y15, (R12)

mm4next:
	ADDQ $24, R8
	DECQ R9
	JNZ  mm4row
	VZEROUPPER
	RET

// func minMaxRows8(rows *[]float64, n, dim int, lo, hi *float64)
TEXT ·minMaxRows8(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dim+16(FP), R10
	MOVQ lo+24(FP), DI
	MOVQ hi+32(FP), BX
	TAILMASK8

mm8row:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   mm8tail

mm8vec:
	VMOVUPD (SI), Z0
	VMINPD  (DX), Z0, Z1
	VMAXPD  (R12), Z0, Z2
	VMOVUPD Z1, (DX)
	VMOVUPD Z2, (R12)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, R12
	DECQ CX
	JNZ  mm8vec

mm8tail:
	KORTESTW K1, K1
	JZ   mm8next
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DX), K1, Z3
	VMOVUPD.Z (R12), K1, Z4
	VMINPD    Z3, Z0, Z1
	VMAXPD    Z4, Z0, Z2
	VMOVUPD   Z1, K1, (DX)
	VMOVUPD   Z2, K1, (R12)

mm8next:
	ADDQ $24, R8
	DECQ R9
	JNZ  mm8row
	VZEROUPPER
	RET
