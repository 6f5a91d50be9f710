//go:build !purego

#include "textflag.h"

// The field kernels below use MULX, ADCX and ADOX (BMI2 and ADX); Go
// calls them only when useADX is set. Every product follows
// gfP.mulGeneric's no-carry CIOS exactly: for every limb a_i of a, one
// row adds a_i*b to the running value T (R8..R12) and one row adds m*p
// for m = T_0 * np, then drops the zero low limb. ADCX carries one chain
// in CF and ADOX an independent one in OF, so the low and high halves of
// a row's four products are summed in parallel. gfP.mulGeneric's
// comment proves the bounds: operands below 2p keep T within five limbs
// during a row and four after it, and the result below 2p, so one
// subtraction of p, kept by CMOV, reduces it. Every result is fully
// reduced, so it equals the Go code's limb for limb.
//
// p and np are read from memory (·pLimbs, ·np), never held in a fixed
// register, and R15 is not used: -dynlink builds reach globals through
// R15. No kernel branches on data or indexes memory by it.

// MULROW0 sets T = a_0*b for a_0 in DX; b0..b3 are memory operands.
#define MULROW0(b0, b1, b2, b3) \
	XORQ  AX, AX;       \
	MULXQ b0, R8, R9;   \
	MULXQ b1, AX, R10;  \
	ADCXQ AX, R9;       \
	MULXQ b2, AX, R11;  \
	ADCXQ AX, R10;      \
	MULXQ b3, AX, R12;  \
	ADCXQ AX, R11;      \
	MOVQ  $0, AX;       \
	ADCXQ AX, R12

// MULROW adds a_i*b to T for a_i in DX: the low halves of the products
// go into the OF chain, the high halves into the CF chain one limb up.
#define MULROW(b0, b1, b2, b3) \
	XORQ  AX, AX;       \
	MULXQ b0, AX, R13;  \
	ADOXQ AX, R8;       \
	ADCXQ R13, R9;      \
	MULXQ b1, AX, R13;  \
	ADOXQ AX, R9;       \
	ADCXQ R13, R10;     \
	MULXQ b2, AX, R13;  \
	ADOXQ AX, R10;      \
	ADCXQ R13, R11;     \
	MULXQ b3, AX, R12;  \
	ADOXQ AX, R11;      \
	MOVQ  $0, AX;       \
	ADCXQ AX, R12;      \
	ADOXQ AX, R12

// REDROW sets T = (T + m*p)/2^64 for m = T_0 * np, leaving four limbs
// in R8..R11. The low limb of T + m*p is zero by the choice of m; only
// its carry is kept.
#define REDROW \
	MOVQ  ·np(SB), DX;               \
	IMULQ R8, DX;                    \
	XORQ  AX, AX;                    \
	MULXQ ·pLimbs+0(SB), AX, R13;    \
	ADCXQ R8, AX;                    \
	MOVQ  R13, R8;                   \
	ADCXQ R9, R8;                    \
	MULXQ ·pLimbs+8(SB), AX, R9;     \
	ADOXQ AX, R8;                    \
	ADCXQ R10, R9;                   \
	MULXQ ·pLimbs+16(SB), AX, R10;   \
	ADOXQ AX, R9;                    \
	ADCXQ R11, R10;                  \
	MULXQ ·pLimbs+24(SB), AX, R11;   \
	ADOXQ AX, R10;                   \
	MOVQ  $0, AX;                    \
	ADCXQ AX, R11;                   \
	ADOXQ R12, R11

// REDUCE maps R8..R11 < 2p to R8..R11 mod p: it computes the value
// minus p in BX, CX, R12, R13 and keeps it unless the subtraction
// borrowed.
#define REDUCE \
	MOVQ    R8, BX;                \
	MOVQ    R9, CX;                \
	MOVQ    R10, R12;              \
	MOVQ    R11, R13;              \
	SUBQ    ·pLimbs+0(SB), BX;     \
	SBBQ    ·pLimbs+8(SB), CX;     \
	SBBQ    ·pLimbs+16(SB), R12;   \
	SBBQ    ·pLimbs+24(SB), R13;   \
	CMOVQCC BX, R8;                \
	CMOVQCC CX, R9;                \
	CMOVQCC R12, R10;              \
	CMOVQCC R13, R11

// MONTMUL sets R8..R11 to the reduced Montgomery product a*b*2^-256 mod
// p of a = a0..a3 and b = b0..b3 (memory operands, both below 2p). It
// clobbers AX, BX, CX, DX, R12 and R13.
#define MONTMUL(a0, a1, a2, a3, b0, b1, b2, b3) \
	MOVQ a0, DX;                 \
	MULROW0(b0, b1, b2, b3);     \
	REDROW;                      \
	MOVQ a1, DX;                 \
	MULROW(b0, b1, b2, b3);      \
	REDROW;                      \
	MOVQ a2, DX;                 \
	MULROW(b0, b1, b2, b3);      \
	REDROW;                      \
	MOVQ a3, DX;                 \
	MULROW(b0, b1, b2, b3);      \
	REDROW;                      \
	REDUCE

// SUBMOD sets R8..R11 = R8..R11 - y mod p for reduced operands: on a
// borrow, CMOV selects p rather than zero as the addend. It clobbers BX,
// CX, R12 and R13.
#define SUBMOD(y0, y1, y2, y3) \
	XORQ    BX, BX;                \
	XORQ    CX, CX;                \
	XORQ    R12, R12;              \
	XORQ    R13, R13;              \
	SUBQ    y0, R8;                \
	SBBQ    y1, R9;                \
	SBBQ    y2, R10;               \
	SBBQ    y3, R11;               \
	CMOVQCS ·pLimbs+0(SB), BX;     \
	CMOVQCS ·pLimbs+8(SB), CX;     \
	CMOVQCS ·pLimbs+16(SB), R12;   \
	CMOVQCS ·pLimbs+24(SB), R13;   \
	ADDQ    BX, R8;                \
	ADCQ    CX, R9;                \
	ADCQ    R12, R10;              \
	ADCQ    R13, R11

// ADDNR sets R8..R11 = x + y with no reduction (the sum of two reduced
// elements fits in four limbs).
#define ADDNR(x0, x1, x2, x3, y0, y1, y2, y3) \
	MOVQ x0, R8;  \
	MOVQ x1, R9;  \
	MOVQ x2, R10; \
	MOVQ x3, R11; \
	ADDQ y0, R8;  \
	ADCQ y1, R9;  \
	ADCQ y2, R10; \
	ADCQ y3, R11

// DOUBLEMOD sets R8..R11 = 2*R8..R11 mod p for a reduced operand.
#define DOUBLEMOD \
	ADDQ R8, R8;   \
	ADCQ R9, R9;   \
	ADCQ R10, R10; \
	ADCQ R11, R11; \
	REDUCE

// ADDMOD sets R8..R11 = R8..R11 + y mod p for reduced operands.
#define ADDMOD(y0, y1, y2, y3) \
	ADDQ y0, R8;  \
	ADCQ y1, R9;  \
	ADCQ y2, R10; \
	ADCQ y3, R11; \
	REDUCE

// LOAD reads the four limbs at off(ptr) into R8..R11.
#define LOAD(off, ptr) \
	MOVQ off+0(ptr), R8;  \
	MOVQ off+8(ptr), R9;  \
	MOVQ off+16(ptr), R10; \
	MOVQ off+24(ptr), R11

// STORE writes R8..R11 to the four limbs at off(ptr).
#define STORE(off, ptr) \
	MOVQ R8, off+0(ptr);  \
	MOVQ R9, off+8(ptr);  \
	MOVQ R10, off+16(ptr); \
	MOVQ R11, off+24(ptr)

// func gfpMul(c, a, b *gfP)
TEXT ·gfpMul(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), SI
	MONTMUL(0(DI), 8(DI), 16(DI), 24(DI), 0(SI), 8(SI), 16(SI), 24(SI))
	MOVQ c+0(FP), DI
	STORE(0, DI)
	RET

// func gfp2Mul(c, a, b *gfP2)
//
// Karatsuba, as gfP2.mulGeneric: with v0 = a0*b0 and v1 = a1*b1, c0 =
// v0 - v1 and c1 = (a0+a1)(b0+b1) - v0 - v1, the operand sums left
// unreduced. The frame holds v0 at 0(SP), v1 at 32(SP), a0+a1 at 64(SP)
// and b0+b1 at 96(SP). c is written only after a and b are last read.
TEXT ·gfp2Mul(SB), NOSPLIT, $128-24
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), SI
	MONTMUL(0(DI), 8(DI), 16(DI), 24(DI), 0(SI), 8(SI), 16(SI), 24(SI))
	STORE(0, SP)
	MONTMUL(32(DI), 40(DI), 48(DI), 56(DI), 32(SI), 40(SI), 48(SI), 56(SI))
	STORE(32, SP)
	ADDNR(0(DI), 8(DI), 16(DI), 24(DI), 32(DI), 40(DI), 48(DI), 56(DI))
	STORE(64, SP)
	ADDNR(0(SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	STORE(96, SP)
	MONTMUL(64(SP), 72(SP), 80(SP), 88(SP), 96(SP), 104(SP), 112(SP), 120(SP))
	SUBMOD(0(SP), 8(SP), 16(SP), 24(SP))
	SUBMOD(32(SP), 40(SP), 48(SP), 56(SP))
	MOVQ c+0(FP), DI
	STORE(32, DI)
	LOAD(0, SP)
	SUBMOD(32(SP), 40(SP), 48(SP), 56(SP))
	STORE(0, DI)
	RET

// func gfp2Square(c, a *gfP2)
//
// As gfP2.squareGeneric: c0 = (a0+a1)(a0-a1) and c1 = 2*a0*a1. The sum
// a0+a1 is left unreduced, which the product accepts. The frame holds
// a0+a1 at 0(SP) and a0-a1 at 32(SP), so c1 may be written as soon as
// a is last read.
TEXT ·gfp2Square(SB), NOSPLIT, $64-16
	MOVQ a+8(FP), DI
	ADDNR(0(DI), 8(DI), 16(DI), 24(DI), 32(DI), 40(DI), 48(DI), 56(DI))
	STORE(0, SP)
	LOAD(0, DI)
	SUBMOD(32(DI), 40(DI), 48(DI), 56(DI))
	STORE(32, SP)
	MONTMUL(0(DI), 8(DI), 16(DI), 24(DI), 32(DI), 40(DI), 48(DI), 56(DI))
	DOUBLEMOD
	MOVQ c+0(FP), DI
	STORE(32, DI)
	MONTMUL(0(SP), 8(SP), 16(SP), 24(SP), 32(SP), 40(SP), 48(SP), 56(SP))
	STORE(0, DI)
	RET

// func gfp2MulXi(c, a *gfP2)
//
// As gfP2.mulXiGeneric: c0 = 9*a0 - a1 and c1 = a0 + 9*a1, with
// 9x = 8x + x as three doublings and an addition, each reduced. c0 waits
// in the frame until a is last read.
TEXT ·gfp2MulXi(SB), NOSPLIT, $32-16
	MOVQ a+8(FP), DI
	LOAD(0, DI)
	DOUBLEMOD
	DOUBLEMOD
	DOUBLEMOD
	ADDMOD(0(DI), 8(DI), 16(DI), 24(DI))
	SUBMOD(32(DI), 40(DI), 48(DI), 56(DI))
	STORE(0, SP)
	LOAD(32, DI)
	DOUBLEMOD
	DOUBLEMOD
	DOUBLEMOD
	ADDMOD(32(DI), 40(DI), 48(DI), 56(DI))
	ADDMOD(0(DI), 8(DI), 16(DI), 24(DI))
	MOVQ c+0(FP), DI
	STORE(32, DI)
	LOAD(0, SP)
	STORE(0, DI)
	RET

// func cpuid(leaf uint32) (eax, ebx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	RET
