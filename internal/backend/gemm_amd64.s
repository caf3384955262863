#include "textflag.h"

// The AVX2 bodies of the three row micro-kernels of gemm.go. A register
// holds eight neighbouring output columns, and a lane does exactly what one
// trip of the Go loop does to one o[j]: VMULPS rounds the product to
// float32, a separate VADDPS rounds the sum — never a fused multiply-add —
// and a row's k steps are applied in the order given. Lanes are independent
// outputs, so the bits are the Go loop's.
//
// Operand order is the compiled Go loop's too (MULSS b, a; ADDSS o, prod):
// the multiplier av and then the product are the first source operands. It
// decides nothing but which of two different NaNs survives a NaN*NaN or
// NaN+NaN, which the scalar loops never pinned either: the compiler adds
// product-first into a stored accumulator and accumulator-first into a
// register one.
//
// Every n is a positive multiple of 8 (the callers keep the n%8 tail), and
// all loads and stores are unaligned moves: slices start anywhere.

// func cpuHasAVX2() bool
//
// AVX2 needs the CPU to implement it (CPUID.7:EBX bit 5) and the OS to save
// the YMM halves across context switches (OSXSAVE and AVX in CPUID.1:ECX,
// then XMM and YMM state enabled in XCR0).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JEQ  done
	MOVB $1, ret+0(FP)
done:
	RET

// func axpyAVX2(o, b *float32, n int, av float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         o+0(FP), DI
	MOVQ         b+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS av+24(FP), Y8
	XORQ         AX, AX
loop:
	VMULPS  (SI)(AX*4), Y8, Y0
	VADDPS  (DI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func axpy1x4AVX2(o, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
TEXT ·axpy1x4AVX2(SB), NOSPLIT, $0-64
	MOVQ         o+0(FP), DI
	MOVQ         b0+8(FP), R8
	MOVQ         b1+16(FP), R9
	MOVQ         b2+24(FP), R10
	MOVQ         b3+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y8
	VBROADCASTSS a1+52(FP), Y9
	VBROADCASTSS a2+56(FP), Y10
	VBROADCASTSS a3+60(FP), Y11
	XORQ         AX, AX
loop:
	VMULPS  (R8)(AX*4), Y8, Y0
	VADDPS  (DI)(AX*4), Y0, Y4
	VMULPS  (R9)(AX*4), Y9, Y1
	VADDPS  Y4, Y1, Y4
	VMULPS  (R10)(AX*4), Y10, Y2
	VADDPS  Y4, Y2, Y4
	VMULPS  (R11)(AX*4), Y11, Y3
	VADDPS  Y4, Y3, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func axpy2x4AVX2(o0, o1, bp *float32, n, stride int, a00, a01, a02, a03, a10, a11, a12, a13 float32)
//
// The four b rows start stride floats apart at bp. Each b vector is loaded
// once and multiplied into both output rows.
TEXT ·axpy2x4AVX2(SB), NOSPLIT, $0-72
	MOVQ         o0+0(FP), DI
	MOVQ         o1+8(FP), SI
	MOVQ         bp+16(FP), R8
	MOVQ         n+24(FP), CX
	MOVQ         stride+32(FP), DX
	SHLQ         $2, DX
	LEAQ         (R8)(DX*1), R9
	LEAQ         (R9)(DX*1), R10
	LEAQ         (R10)(DX*1), R11
	VBROADCASTSS a00+40(FP), Y7
	VBROADCASTSS a01+44(FP), Y8
	VBROADCASTSS a02+48(FP), Y9
	VBROADCASTSS a03+52(FP), Y10
	VBROADCASTSS a10+56(FP), Y11
	VBROADCASTSS a11+60(FP), Y12
	VBROADCASTSS a12+64(FP), Y13
	VBROADCASTSS a13+68(FP), Y14
	XORQ         AX, AX
loop:
	VMOVUPS (R8)(AX*4), Y0
	VMOVUPS (R9)(AX*4), Y1
	VMOVUPS (R10)(AX*4), Y2
	VMOVUPS (R11)(AX*4), Y3
	VMULPS  Y0, Y7, Y4
	VADDPS  (DI)(AX*4), Y4, Y4
	VMULPS  Y0, Y11, Y5
	VADDPS  (SI)(AX*4), Y5, Y5
	VMULPS  Y1, Y8, Y6
	VADDPS  Y4, Y6, Y4
	VMULPS  Y1, Y12, Y6
	VADDPS  Y5, Y6, Y5
	VMULPS  Y2, Y9, Y6
	VADDPS  Y4, Y6, Y4
	VMULPS  Y2, Y13, Y6
	VADDPS  Y5, Y6, Y5
	VMULPS  Y3, Y10, Y6
	VADDPS  Y4, Y6, Y4
	VMULPS  Y3, Y14, Y6
	VADDPS  Y5, Y6, Y5
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, (SI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET
