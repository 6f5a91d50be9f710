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

// The tower kernels below (gfp12MulLine, gfp6Mul, gfp12Mul, gfp12Square
// and gfp12CyclotomicSquare) reduce lazily. Each Fp product is a plain
// 512-bit product (MULP, no reduction) stored in the frame; the
// products of one output coefficient are added and subtracted as
// 512-bit integers, and one Montgomery reduction (redc) per output Fp
// coefficient maps the sum T to T*2^-256 mod p. With q = p^2 and
// U = p*2^256 (U/q = 2^256/p > 5.29, 2^512/q > 27.9) the bounds are:
//
//   - The product of two reduced elements is below q. An Fp2 product of
//     reduced x and y, by Karatsuba on v0 = x0*y0, v1 = x1*y1 and
//     v2 = (x0+x1)(y0+y1) with unreduced operand sums, has a real part
//     v0 - v1 in (-q, q) and an imaginary part v2 - v0 - v1 =
//     x0*y1 + x1*y0 in [0, 2q). Every operand of every kernel product is
//     reduced, except those Karatsuba sums.
//   - Sums are taken mod 2^512 and may wrap in between: the result is
//     exact once the true value lies in [0, 2^512). A reduced addend r
//     enters as r*2^256 < U, in the high half, where it stands for r
//     itself after the reduction. Where a sum can be negative, U (p
//     added to the high half) makes it non-negative; U is 0 mod p and
//     adds exactly p after the reduction.
//   - redc maps T = H*2^256 + L to H + R(L), where R is the four
//     REDROWs of a Montgomery reduction with no product row and is at
//     most p: (L + m*p)/2^256 < 1 + p. For T < k*U, H < k*p, so the
//     result is below (k+1)*p. Every T below is under 3U (the largest,
//     the real part of M1 in the cyclotomic square, under 2.9U), so the
//     result is under 4p < 2^256, and 2p off if it is at least 2p, then
//     p off if it is at least p, bring it below p. Each kernel lists the
//     range of T at each reduction.
//   - xi = 9 + i scales a double-width value only in the cyclotomic
//     square, where the value is below q. Elsewhere xi scales a reduced
//     operand or a reduced result (MULXI), never a double-width sum.
//
// The repeated blocks (the Karatsuba triple of products, the complex
// square, the reduction, xi, the Fp6 product) are subroutines with their
// own register conventions, called with CALL: unrolled in place, the
// kernels ran to 22-74 KB each and no longer fit the instruction cache
// together.
// Every result is fully reduced, so it equals the Go code limb for limb.
// Nothing branches on data or indexes memory by it, and R15 is never
// used; the kernels' frames are above the nosplit limit, so they take
// the ordinary stack check.

// MULADD adds DX*b to t0..t3 for the four limbs b at bo(br), leaving
// the fifth limb in t4: the low halves of the products go into the OF
// chain, the high halves into the CF chain one limb up. It clobbers AX
// and BX.
#define MULADD(bo, br, t0, t1, t2, t3, t4) \
	XORQ  AX, AX;            \
	MULXQ bo+0(br), AX, BX;  \
	ADOXQ AX, t0;            \
	ADCXQ BX, t1;            \
	MULXQ bo+8(br), AX, BX;  \
	ADOXQ AX, t1;            \
	ADCXQ BX, t2;            \
	MULXQ bo+16(br), AX, BX; \
	ADOXQ AX, t2;            \
	ADCXQ BX, t3;            \
	MULXQ bo+24(br), AX, t4; \
	ADOXQ AX, t3;            \
	MOVQ  $0, AX;            \
	ADCXQ AX, t4;            \
	ADOXQ AX, t4

// MULP stores the 512-bit product of the four limbs at ao(ar) and the
// four at bo(br) at do(dr), one MULADD row per limb of a; each row
// stores its finished low limb, so five registers carry the rest. It
// clobbers AX, BX, DX and R8..R12.
#define MULP(ao, ar, bo, br, do, dr) \
	MOVQ  ao+0(ar), DX;                    \
	XORQ  AX, AX;                          \
	MULXQ bo+0(br), R8, R9;                \
	MULXQ bo+8(br), AX, R10;               \
	ADCXQ AX, R9;                          \
	MULXQ bo+16(br), AX, R11;              \
	ADCXQ AX, R10;                         \
	MULXQ bo+24(br), AX, R12;              \
	ADCXQ AX, R11;                         \
	MOVQ  $0, AX;                          \
	ADCXQ AX, R12;                         \
	MOVQ  R8, do+0(dr);                    \
	MOVQ  ao+8(ar), DX;                    \
	MULADD(bo, br, R9, R10, R11, R12, R8); \
	MOVQ  R9, do+8(dr);                    \
	MOVQ  ao+16(ar), DX;                   \
	MULADD(bo, br, R10, R11, R12, R8, R9); \
	MOVQ  R10, do+16(dr);                  \
	MOVQ  ao+24(ar), DX;                   \
	MULADD(bo, br, R11, R12, R8, R9, R10); \
	MOVQ  R11, do+24(dr);                  \
	MOVQ  R12, do+32(dr);                  \
	MOVQ  R8, do+40(dr);                   \
	MOVQ  R9, do+48(dr);                   \
	MOVQ  R10, do+56(dr)

// kara stores the Karatsuba products of the Fp2 elements x at (SI) and
// y at (R13) in the 256-byte block at (CX): v0 = x0*y0 at 0, v1 = x1*y1
// at 64, v2 = (x0+x1)(y0+y1) at 128, with the unreduced operand sums at
// 192 and 224. It clobbers AX, BX, DX and R8..R12.
TEXT ·kara<>(SB), NOSPLIT, $0-0
	ADDNR(0(SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	STORE(192, CX)
	ADDNR(0(R13), 8(R13), 16(R13), 24(R13), 32(R13), 40(R13), 48(R13), 56(R13))
	STORE(224, CX)
	MULP(0, SI, 0, R13, 0, CX)
	MULP(32, SI, 32, R13, 64, CX)
	MULP(192, CX, 224, CX, 128, CX)
	RET

// KARA runs kara on x at xo(xr) and y at yo(yr) into the block at P(SP).
// xr must not be R13.
#define KARA(xo, xr, yo, yr, P) \
	LEAQ yo(yr), R13;          \
	LEAQ xo(xr), SI;           \
	LEAQ P(SP), CX;            \
	CALL ·kara<>(SB)

// The sum T that REDC reduces is built in R8..R11 (its low half L) and
// BX, CX, R14, SI (its high half H). LOADT, ADDT and SUBT set, add and
// subtract the eight limbs at off(SP), mod 2^512.
#define LOADT(off) \
	MOVQ off+0(SP), R8;   \
	MOVQ off+8(SP), R9;   \
	MOVQ off+16(SP), R10; \
	MOVQ off+24(SP), R11; \
	MOVQ off+32(SP), BX;  \
	MOVQ off+40(SP), CX;  \
	MOVQ off+48(SP), R14; \
	MOVQ off+56(SP), SI

#define ADDT(off) \
	ADDQ off+0(SP), R8;   \
	ADCQ off+8(SP), R9;   \
	ADCQ off+16(SP), R10; \
	ADCQ off+24(SP), R11; \
	ADCQ off+32(SP), BX;  \
	ADCQ off+40(SP), CX;  \
	ADCQ off+48(SP), R14; \
	ADCQ off+56(SP), SI

#define SUBT(off) \
	SUBQ off+0(SP), R8;   \
	SBBQ off+8(SP), R9;   \
	SBBQ off+16(SP), R10; \
	SBBQ off+24(SP), R11; \
	SBBQ off+32(SP), BX;  \
	SBBQ off+40(SP), CX;  \
	SBBQ off+48(SP), R14; \
	SBBQ off+56(SP), SI

// RE and IM set T to the real and the imaginary part of the Karatsuba
// block at P: v0 - v1 and v2 - v0 - v1. ADDRE, SUBRE, ADDIM and SUBIM
// add and subtract them.
#define RE(P) \
	LOADT(P); \
	SUBT(P+64)

#define IM(P)      \
	LOADT(P+128); \
	SUBT(P);      \
	SUBT(P+64)

#define ADDRE(P) \
	ADDT(P);   \
	SUBT(P+64)

#define SUBRE(P) \
	SUBT(P);   \
	ADDT(P+64)

#define ADDIM(P)   \
	ADDT(P+128); \
	SUBT(P);     \
	SUBT(P+64)

#define SUBIM(P)   \
	SUBT(P+128); \
	ADDT(P);     \
	ADDT(P+64)

// ADDH adds the reduced element at o(r) to the high half of T: it adds
// the element times 2^256. ADDHU adds U = p*2^256.
#define ADDH(o, r) \
	ADDQ o+0(r), BX;   \
	ADCQ o+8(r), CX;   \
	ADCQ o+16(r), R14; \
	ADCQ o+24(r), SI

#define ADDHU \
	ADDQ ·pLimbs+0(SB), BX;   \
	ADCQ ·pLimbs+8(SB), CX;   \
	ADCQ ·pLimbs+16(SB), R14; \
	ADCQ ·pLimbs+24(SB), SI

// REDCROWS sets R8..R11 to H + R(L) for T = H*2^256 + L in R8..R11 and
// BX, CX, R14, SI: four REDROWs on L with a zero fifth limb give R(L),
// at most p, and H is added.
#define REDCROWS \
	XORQ R12, R12; \
	REDROW;        \
	REDROW;        \
	REDROW;        \
	REDROW;        \
	ADDQ BX, R8;   \
	ADCQ CX, R9;   \
	ADCQ R14, R10; \
	ADCQ SI, R11

// redc sets R8..R11 to T*2^-256 mod p, fully reduced, for T below 3U:
// the result of REDCROWS, below 4p, loses 2p if it is at least 2p, then
// p if it is at least p. It clobbers AX, BX, CX, DX, R12 and R13.
TEXT ·redc<>(SB), NOSPLIT, $0-0
	REDCROWS
	MOVQ R8, BX
	MOVQ R9, CX
	MOVQ R10, R12
	MOVQ R11, R13
	SUBQ ·p2Limbs+0(SB), BX
	SBBQ ·p2Limbs+8(SB), CX
	SBBQ ·p2Limbs+16(SB), R12
	SBBQ ·p2Limbs+24(SB), R13
	CMOVQCC BX, R8
	CMOVQCC CX, R9
	CMOVQCC R12, R10
	CMOVQCC R13, R11
	REDUCE
	RET

#define REDC CALL ·redc<>(SB)

// redcu is redc for T below U: then H < p, the result of REDCROWS is
// below 2p, and one subtraction of p reduces it. It clobbers what redc
// does.
TEXT ·redcu<>(SB), NOSPLIT, $0-0
	REDCROWS
	REDUCE
	RET

#define REDCU CALL ·redcu<>(SB)

// ADDMODM and SUBMODM are ADDMOD and SUBMOD of the element at o(r).
#define ADDMODM(o, r) ADDMOD(o+0(r), o+8(r), o+16(r), o+24(r))
#define SUBMODM(o, r) SUBMOD(o+0(r), o+8(r), o+16(r), o+24(r))

// FP2ADD stores the reduced Fp2 sum of the elements at xo(xr) and yo(yr)
// at d(SP).
#define FP2ADD(xo, xr, yo, yr, d) \
	LOAD(xo, xr);         \
	ADDMODM(yo, yr);      \
	STORE(d, SP);         \
	LOAD(xo+32, xr);      \
	ADDMODM(yo+32, yr);   \
	STORE(d+32, SP)

// mulxi stores xi times the reduced Fp2 element at (SI) at (DX), which
// must not alias it: c0 = 9*a0 - a1 and c1 = a0 + 9*a1, as gfP2.MulXi,
// with 9x = 8x + x as three doublings and an addition, each reduced. It
// clobbers BX, CX and R8..R13.
TEXT ·mulxi<>(SB), NOSPLIT, $0-0
	LOAD(0, SI)
	DOUBLEMOD
	DOUBLEMOD
	DOUBLEMOD
	ADDMODM(0, SI)
	SUBMODM(32, SI)
	STORE(0, DX)
	LOAD(32, SI)
	DOUBLEMOD
	DOUBLEMOD
	DOUBLEMOD
	ADDMODM(32, SI)
	ADDMODM(0, SI)
	STORE(32, DX)
	RET

// MULXI runs mulxi on so(sr) into d(SP).
#define MULXI(so, sr, d) \
	LEAQ so(sr), SI; \
	LEAQ d(SP), DX;  \
	CALL ·mulxi<>(SB)

// The frame of gfp12MulLine: copies of l1 and l3, xi*l3, l1 + l3, the
// Fp2 sum X0 + X1 of the current Fp6 half, the five Karatsuba blocks of
// the half, the staged c0 of the result and two Fp2 temporaries.
#define ML_L1 0
#define ML_L3 64
#define ML_XL3 128
#define ML_LS 192
#define ML_XS 256
#define ML_PK 320
#define ML_P1 576
#define ML_P4 832
#define ML_P2 1088
#define ML_P5 1344
#define ML_ST 1600
#define ML_R 1792
#define ML_XR 1856

// LINE runs the five Fp2 products of the sparse Fp6 product
// X*(l1 + l3 tau) for X = X0 + X1 tau + X2 tau^2 at X0(DI), X1(DI),
// X2(DI): PK = (X0+X1)(l1+l3), P1 = X0 l1, P4 = X2 xi l3, P2 = X1 l3 and
// P5 = X2 l1. The product is (P1 + P4) + (PK - P1 - P2) tau +
// (P2 + P5) tau^2.
#define LINE(X0, X1, X2) \
	FP2ADD(X0, DI, X1, DI, ML_XS);          \
	KARA(ML_XS, SP, ML_LS, SP, ML_PK);      \
	KARA(X0, DI, ML_L1, SP, ML_P1);         \
	KARA(X2, DI, ML_XL3, SP, ML_P4);        \
	KARA(X1, DI, ML_L3, SP, ML_P2);         \
	KARA(X2, DI, ML_L1, SP, ML_P5)

// LINEB0 and LINEB0I reduce the real and the imaginary part of the tau^0
// coefficient of LINE's product plus the reduced Fp2 addend at A(DI),
// with U added where the part can be negative; LINEB1 and LINEB2 do the
// same for the tau^1 and tau^2 coefficients. Ranges of T: tau^0 and
// tau^2 in (-2q, 2q) + U plus the addend, (0.62U, 2.38U), and [0, 4q)
// plus the addend, [0, 1.76U); tau^1 in (-3q, 3q) + U and (-4q, 2q) + U
// plus the addend, both within (0.24U, 2.57U).
#define LINEB0(A) \
	RE(ML_P1);       \
	ADDRE(ML_P4);    \
	ADDH(A, DI);     \
	ADDHU;           \
	REDC

#define LINEB0I(A) \
	IM(ML_P1);       \
	ADDIM(ML_P4);    \
	ADDH(A+32, DI);  \
	REDC

#define LINEB1(A) \
	RE(ML_PK);       \
	SUBRE(ML_P1);    \
	SUBRE(ML_P2);    \
	ADDH(A, DI);     \
	ADDHU;           \
	REDC

#define LINEB1I(A) \
	IM(ML_PK);       \
	SUBIM(ML_P1);    \
	SUBIM(ML_P2);    \
	ADDH(A+32, DI);  \
	ADDHU;           \
	REDC

#define LINEB2(A) \
	RE(ML_P2);       \
	ADDRE(ML_P5);    \
	ADDH(A, DI);     \
	ADDHU;           \
	REDC

#define LINEB2I(A) \
	IM(ML_P2);       \
	ADDIM(ML_P5);    \
	ADDH(A+32, DI);  \
	REDC

// func gfp12MulLine(e, a *gfP12, l1, l3 *gfP2)
//
// e = a*(1 + (l1 + l3 tau) omega), as gfP12.mulLineGeneric: with
// a = c0 + c1 omega and L = l1 + l3 tau, e.c0 = c0 + tau*(c1 L) and
// e.c1 = c1 + c0 L. Each half is one LINE, 15 Fp products, and each Fp
// coefficient of e one reduction: 30 products and 12 reductions, against
// 30 and 30 in ten gfp2Mul. The xi of tau*(c1 L) scales l3 before the
// products and the reduced tau^2 coefficient of c1 L after them, whose
// parts lie in (-2q, 2q) + U = (0.62U, 1.38U) and [0, 4q) = [0, 0.76U).
// The c0 half is staged in the frame, because e may alias a; the c1
// half then reads only c0 and its own addends.
TEXT ·gfp12MulLine(SB), 0, $1920-32
	MOVQ l1+16(FP), SI
	LOAD(0, SI)
	STORE(ML_L1, SP)
	LOAD(32, SI)
	STORE(ML_L1+32, SP)
	MOVQ l3+24(FP), SI
	LOAD(0, SI)
	STORE(ML_L3, SP)
	LOAD(32, SI)
	STORE(ML_L3+32, SP)
	MULXI(ML_L3, SP, ML_XL3)
	FP2ADD(ML_L1, SP, ML_L3, SP, ML_LS)
	MOVQ a+8(FP), DI

	// c1 L, with c1 at 192(DI): e.c0.b1 = c0.b1 + (c1 L).b0 and
	// e.c0.b2 = c0.b2 + (c1 L).b1, staged.
	LINE(192, 256, 320)
	LINEB0(64)
	STORE(ML_ST+64, SP)
	LINEB0I(64)
	STORE(ML_ST+96, SP)
	LINEB1(128)
	STORE(ML_ST+128, SP)
	LINEB1I(128)
	STORE(ML_ST+160, SP)

	// e.c0.b0 = c0.b0 + xi (c1 L).b2, staged.
	RE(ML_P2)
	ADDRE(ML_P5)
	ADDHU
	REDC
	STORE(ML_R, SP)
	IM(ML_P2)
	ADDIM(ML_P5)
	REDC
	STORE(ML_R+32, SP)
	MULXI(ML_R, SP, ML_XR)
	LOAD(ML_XR, SP)
	ADDMODM(0, DI)
	STORE(ML_ST, SP)
	LOAD(ML_XR+32, SP)
	ADDMODM(32, DI)
	STORE(ML_ST+32, SP)

	// c0 L, with c0 at 0(DI): e.c1 = c1 + c0 L, written in place. Each
	// part of an addend is read before that part of e is written.
	LINE(0, 64, 128)
	LINEB0(192)
	MOVQ e+0(FP), SI
	STORE(192, SI)
	LINEB0I(192)
	MOVQ e+0(FP), SI
	STORE(224, SI)
	LINEB1(256)
	MOVQ e+0(FP), SI
	STORE(256, SI)
	LINEB1I(256)
	MOVQ e+0(FP), SI
	STORE(288, SI)
	LINEB2(320)
	MOVQ e+0(FP), SI
	STORE(320, SI)
	LINEB2I(320)
	MOVQ e+0(FP), SI
	STORE(352, SI)

	// e.c0 from the frame.
	MOVQ e+0(FP), SI
	LOAD(ML_ST, SP)
	STORE(0, SI)
	LOAD(ML_ST+32, SP)
	STORE(32, SI)
	LOAD(ML_ST+64, SP)
	STORE(64, SI)
	LOAD(ML_ST+96, SP)
	STORE(96, SI)
	LOAD(ML_ST+128, SP)
	STORE(128, SI)
	LOAD(ML_ST+160, SP)
	STORE(160, SI)
	RET

// The frame of fp6mul, which runs in its caller's frame: the caller
// reserves the F6_SIZE bytes at the bottom of its frame, which fp6mul
// addresses 8 bytes up, past its return address (NOFRAME keeps the
// assembler from pushing BP there as well). It holds the six
// Karatsuba blocks, an Fp2 operand pair, a reduced Fp2 and xi times it,
// and the result pointer, which the caller stores at F6_SIZE-8(SP).
#define F6_T0 8
#define F6_T1 264
#define F6_T2 520
#define F6_S01 776
#define F6_S02 1032
#define F6_S12 1288
#define F6_XS 1544
#define F6_YS 1608
#define F6_R 1672
#define F6_XR 1736
#define F6_EP 1800
#define F6_SIZE 1800

// F6SUM stores the reduced Fp2 sums a_i + a_j and b_i + b_j, for a at
// (DI) and b at (R14), and their Karatsuba block at P.
#define F6SUM(I, J, P) \
	FP2ADD(I, DI, J, DI, F6_XS);   \
	FP2ADD(I, R14, J, R14, F6_YS); \
	KARA(F6_XS, SP, F6_YS, SP, P)

// F6STORE stores R8..R11 at o from the result pointer.
#define F6STORE(o) \
	MOVQ F6_EP(SP), SI; \
	STORE(o, SI)

// fp6mul sets the Fp6 element at the result pointer to the product of
// the reduced Fp6 elements at (DI) and (R14). It clobbers every register
// but DI and leaves the pointer slot as it was.
//
// As gfP6.mulGeneric: with t_i = a_i b_i and S_ij = (a_i + a_j)(b_i +
// b_j), c0 = t0 + xi (S12 - t1 - t2), c1 = S01 - t0 - t1 + xi t2 and
// c2 = S02 - t0 - t2 + t1: six Fp2 products, 18 Fp products. xi times a
// double-width sum of Fp2 products would leave the range above (9 times
// (-3q, 3q)), so xi scales reduced values instead: t2 and the bracket
// X = S12 - t1 - t2 are reduced first (two reductions each), scaled by
// MULXI and added to c1 and c0 in the high half. That is 10 reductions
// against the 18 of six gfp2Mul. Every product is taken before the
// result is written, so it may alias either operand.
//
// Ranges of T: t2 in (-q, q) + U = (0.81U, 1.19U) and [0, 2q); X in
// (-3q, 3q) + U and (-4q, 2q) + U; c2 in (-4q, 4q) + U; all under 2U.
// c1 in (-3q, 3q) and (-4q, 2q), plus U and the addend: under 2.57U.
// c0 in (-q, q) + U plus the addend, under 2.19U, and [0, 2q) plus the
// addend, under 1.38U.
TEXT ·fp6mul<>(SB), NOSPLIT|NOFRAME, $0-0
	F6SUM(0, 64, F6_S01)
	F6SUM(0, 128, F6_S02)
	F6SUM(64, 128, F6_S12)
	KARA(0, DI, 0, R14, F6_T0)
	KARA(64, DI, 64, R14, F6_T1)
	KARA(128, DI, 128, R14, F6_T2)

	// xi t2, reduced.
	RE(F6_T2)
	ADDHU
	REDC
	STORE(F6_R, SP)
	IM(F6_T2)
	REDC
	STORE(F6_R+32, SP)
	MULXI(F6_R, SP, F6_XR)

	// c1 = S01 - t0 - t1 + xi t2
	RE(F6_S01)
	SUBRE(F6_T0)
	SUBRE(F6_T1)
	ADDH(F6_XR, SP)
	ADDHU
	REDC
	F6STORE(64)
	IM(F6_S01)
	SUBIM(F6_T0)
	SUBIM(F6_T1)
	ADDH(F6_XR+32, SP)
	ADDHU
	REDC
	F6STORE(96)

	// c2 = S02 - t0 - t2 + t1
	RE(F6_S02)
	SUBRE(F6_T0)
	SUBRE(F6_T2)
	ADDRE(F6_T1)
	ADDHU
	REDC
	F6STORE(128)
	IM(F6_S02)
	SUBIM(F6_T0)
	SUBIM(F6_T2)
	ADDIM(F6_T1)
	ADDHU
	REDC
	F6STORE(160)

	// xi (S12 - t1 - t2), reduced.
	RE(F6_S12)
	SUBRE(F6_T1)
	SUBRE(F6_T2)
	ADDHU
	REDC
	STORE(F6_R, SP)
	IM(F6_S12)
	SUBIM(F6_T1)
	SUBIM(F6_T2)
	ADDHU
	REDC
	STORE(F6_R+32, SP)
	MULXI(F6_R, SP, F6_XR)

	// c0 = t0 + xi (S12 - t1 - t2)
	RE(F6_T0)
	ADDH(F6_XR, SP)
	ADDHU
	REDC
	F6STORE(0)
	IM(F6_T0)
	ADDH(F6_XR+32, SP)
	REDC
	F6STORE(32)
	RET

// FP6MUL runs fp6mul on the elements at ao(ar) and bo(br) into eo(er),
// from a kernel whose frame starts with fp6mul's. ar and er must not be
// R14, nor er DI.
#define FP6MUL(ao, ar, bo, br, eo, er) \
	LEAQ bo(br), R14;           \
	LEAQ ao(ar), DI;            \
	LEAQ eo(er), AX;            \
	MOVQ AX, F6_SIZE-8(SP);     \
	CALL ·fp6mul<>(SB)

// func gfp6Mul(e, a, b *gfP6)
TEXT ·gfp6Mul(SB), 0, $1800-24
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), R14
	MOVQ e+0(FP), SI
	FP6MUL(0, DI, 0, R14, 0, SI)
	RET

// FP6ADD stores the reduced sum of the Fp6 elements at xo(xr) and
// yo(yr) at d(SP).
#define FP6ADD(xo, xr, yo, yr, d) \
	FP2ADD(xo, xr, yo, yr, d);          \
	FP2ADD(xo+64, xr, yo+64, yr, d+64); \
	FP2ADD(xo+128, xr, yo+128, yr, d+128)

// SUB2 stores x - y - z at o(SI) for the reduced Fp elements at xo(SP),
// yo(SP) and zo(SP).
#define SUB2(xo, yo, zo, o) \
	LOAD(xo, SP);       \
	SUBMODM(yo, SP);    \
	SUBMODM(zo, SP);    \
	STORE(o, SI)

// ADD1 stores x + y at o(SI) for the reduced Fp elements at xo(SP) and
// yo(SP).
#define ADD1(xo, yo, o) \
	LOAD(xo, SP);       \
	ADDMODM(yo, SP);    \
	STORE(o, SI)

// DBL1 stores 2x at o(SI) for the reduced Fp element at xo(SP).
#define DBL1(xo, o) \
	LOAD(xo, SP);       \
	DOUBLEMOD;          \
	STORE(o, SI)

// The frame of gfp12Mul above fp6mul's: v0 = a.c0 b.c0, v1 = a.c1 b.c1,
// the sums a.c0 + a.c1 and b.c0 + b.c1 and their product, and
// xi v1.b2.
#define M12_V0 1800
#define M12_V1 1992
#define M12_A 2184
#define M12_B 2376
#define M12_S 2568
#define M12_X 2760

// func gfp12Mul(e, a, b *gfP12)
//
// As gfP12.mulGeneric, by Karatsuba over Fp6: e.c0 = v0 + tau v1 and
// e.c1 = (a.c0 + a.c1)(b.c0 + b.c1) - v0 - v1, three FP6MULs with the
// sums and differences between them done here rather than in Go. Every
// input is read before e is written, so e may alias a or b.
TEXT ·gfp12Mul(SB), 0, $2824-24
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	FP6MUL(0, SI, 0, R14, M12_V0, SP)
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	FP6MUL(192, SI, 192, R14, M12_V1, SP)
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), R14
	FP6ADD(0, DI, 192, DI, M12_A)
	FP6ADD(0, R14, 192, R14, M12_B)
	FP6MUL(M12_A, SP, M12_B, SP, M12_S, SP)
	MULXI(M12_V1+128, SP, M12_X)
	MOVQ e+0(FP), SI
	SUB2(M12_S, M12_V0, M12_V1, 192)
	SUB2(M12_S+32, M12_V0+32, M12_V1+32, 224)
	SUB2(M12_S+64, M12_V0+64, M12_V1+64, 256)
	SUB2(M12_S+96, M12_V0+96, M12_V1+96, 288)
	SUB2(M12_S+128, M12_V0+128, M12_V1+128, 320)
	SUB2(M12_S+160, M12_V0+160, M12_V1+160, 352)
	ADD1(M12_V0, M12_X, 0)
	ADD1(M12_V0+32, M12_X+32, 32)
	ADD1(M12_V0+64, M12_V1, 64)
	ADD1(M12_V0+96, M12_V1+32, 96)
	ADD1(M12_V0+128, M12_V1+64, 128)
	ADD1(M12_V0+160, M12_V1+96, 160)
	RET

// The frame of gfp12Square above fp6mul's: v = c0 c1, c0 + c1,
// c0 + tau c1, their product w, and xi times an Fp2 coefficient.
#define S12_V 1800
#define S12_S 1992
#define S12_T 2184
#define S12_W 2376
#define S12_X 2568

// func gfp12Square(e, a *gfP12)
//
// As gfP12.squareGeneric, by complex squaring: with v = c0 c1,
// e.c0 = (c0 + c1)(c0 + tau c1) - v - tau v and e.c1 = 2v, two
// FP6MULs with the sums and differences between them done here rather
// than in Go. a is read before e is written, so e may alias a.
TEXT ·gfp12Square(SB), 0, $2632-16
	MOVQ a+8(FP), SI
	FP6MUL(0, SI, 192, SI, S12_V, SP)
	MOVQ a+8(FP), DI
	FP6ADD(0, DI, 192, DI, S12_S)
	MULXI(320, DI, S12_X)
	FP2ADD(0, DI, S12_X, SP, S12_T)
	FP2ADD(64, DI, 192, DI, S12_T+64)
	FP2ADD(128, DI, 256, DI, S12_T+128)
	FP6MUL(S12_S, SP, S12_T, SP, S12_W, SP)
	MULXI(S12_V+128, SP, S12_X)
	MOVQ e+0(FP), SI
	SUB2(S12_W, S12_V, S12_X, 0)
	SUB2(S12_W+32, S12_V+32, S12_X+32, 32)
	SUB2(S12_W+64, S12_V+64, S12_V, 64)
	SUB2(S12_W+96, S12_V+96, S12_V+32, 96)
	SUB2(S12_W+128, S12_V+128, S12_V+64, 128)
	SUB2(S12_W+160, S12_V+160, S12_V+96, 160)
	DBL1(S12_V, 192)
	DBL1(S12_V+32, 224)
	DBL1(S12_V+64, 256)
	DBL1(S12_V+96, 288)
	DBL1(S12_V+128, 320)
	DBL1(S12_V+160, 352)
	RET

// csq stores the complex square of the reduced Fp2 element x at (SI) in
// the 224-byte block at (R14): R = (x0 + x1)(x0 - x1) at 0 and
// I = 2x0*x1 at 64, with the three operands, each reduced, at 128, 160
// and 192; so R and I lie in [0, q), and x^2 = R + I i. It clobbers AX,
// BX, CX, DX and R8..R13.
TEXT ·csq<>(SB), NOSPLIT, $0-0
	LOAD(0, SI)
	ADDMODM(32, SI)
	STORE(128, R14)
	LOAD(0, SI)
	SUBMODM(32, SI)
	STORE(160, R14)
	LOAD(0, SI)
	DOUBLEMOD
	STORE(192, R14)
	MULP(128, R14, 160, R14, 0, R14)
	MULP(192, R14, 32, SI, 64, R14)
	RET

// CSQ runs csq on x at xo(xr) into the block at P(SP).
#define CSQ(xo, xr, P) \
	LEAQ xo(xr), SI; \
	LEAQ P(SP), R14; \
	CALL ·csq<>(SB)

// TIMES8 shifts T left by three bits: T = 8T mod 2^512.
#define TIMES8 \
	SHLQ $3, R14, SI;  \
	SHLQ $3, CX, R14;  \
	SHLQ $3, BX, CX;   \
	SHLQ $3, R11, BX;  \
	SHLQ $3, R10, R11; \
	SHLQ $3, R9, R10;  \
	SHLQ $3, R8, R9;   \
	SHLQ $3, R8

// The frame of gfp12CyclotomicSquare: the Fp2 sum u + v, the csq blocks
// of u, v and u + v, and reduced Fp2 results: two for the pair in hand,
// two staged, one scaled by xi.
#define CS_T 0
#define CS_PU 64
#define CS_PV 288
#define CS_PT 512
#define CS_R1 736
#define CS_R2 800
#define CS_R1B 864
#define CS_R2B 928
#define CS_XR 992

// CYCPAIR runs one Fp4 pair (u, v) of the Granger-Scott square, at
// U(DI) and V(DI): it stores M1 = xi v^2 + u^2 at R1(SP) and
// M2 = 2uv = (u + v)^2 - u^2 - v^2 at R2(SP), reduced. With R, I and
// the parts of u^2 in [0, q), M1 = (9R - I + u^2_0) + (R + 9I + u^2_1) i
// has T in (-q, 10q) + U = (0.81U, 2.9U) and in [0, 11q) = [0, 2.08U);
// M2 has both parts in (-2q, q) + U = (0.62U, 1.19U).
#define CYCPAIR(U, V, R1, R2) \
	CSQ(U, DI, CS_PU);          \
	CSQ(V, DI, CS_PV);          \
	FP2ADD(U, DI, V, DI, CS_T); \
	CSQ(CS_T, SP, CS_PT);       \
	LOADT(CS_PV);               \
	TIMES8;                     \
	ADDT(CS_PV);                \
	SUBT(CS_PV+64);             \
	ADDT(CS_PU);                \
	ADDHU;                      \
	REDC;                       \
	STORE(R1, SP);              \
	LOADT(CS_PV+64);            \
	TIMES8;                     \
	ADDT(CS_PV+64);             \
	ADDT(CS_PV);                \
	ADDT(CS_PU+64);             \
	REDC;                       \
	STORE(R1+32, SP);           \
	LOADT(CS_PT);               \
	SUBT(CS_PU);                \
	SUBT(CS_PV);                \
	ADDHU;                      \
	REDC;                       \
	STORE(R2, SP);              \
	LOADT(CS_PT+64);            \
	SUBT(CS_PU+64);             \
	SUBT(CS_PV+64);             \
	ADDHU;                      \
	REDC;                       \
	STORE(R2+32, SP)

// CSMINUS stores 3r - 2x = 2(r - x) + r at o(SI) for the reduced r at
// ro(SP) and x at o(DI); CSPLUS stores 3r + 2x = 2(r + x) + r. Both
// read x before they write, so SI may equal DI.
#define CSMINUS(ro, o) \
	LOAD(ro, SP);       \
	SUBMODM(o, DI);     \
	DOUBLEMOD;          \
	ADDMODM(ro, SP);    \
	STORE(o, SI)

#define CSPLUS(ro, o) \
	LOAD(ro, SP);       \
	ADDMODM(o, DI);     \
	DOUBLEMOD;          \
	ADDMODM(ro, SP);    \
	STORE(o, SI)

// func gfp12CyclotomicSquare(e, a *gfP12)
//
// As gfP12.cyclotomicSquareGeneric, pair by pair: (c0.b0, c1.b1) gives
// e.c0.b0 = 3 M1 - 2 c0.b0 and e.c1.b1 = 3 M2 + 2 c1.b1; (c1.b0, c0.b2)
// gives e.c0.b1 = 3 M1 - 2 c0.b1 and e.c1.b2 = 3 M2 + 2 c1.b2;
// (c0.b1, c1.b2) gives e.c0.b2 = 3 M1 - 2 c0.b2 and
// e.c1.b0 = 3 xi M2 + 2 c1.b0. Three complex squares per pair: 18 Fp
// products and 12 reductions, against 18 and 18 in nine gfp2Square; xi
// scales the last M2 after its reduction, since 9 times its range
// (-2q, q) would not fit. e may alias a: the first pair reads and writes
// only its own coefficients, and the second is staged until the third,
// which reads its inputs, has written.
TEXT ·gfp12CyclotomicSquare(SB), 0, $1056-16
	MOVQ a+8(FP), DI

	CYCPAIR(0, 256, CS_R1, CS_R2)
	MOVQ e+0(FP), SI
	CSMINUS(CS_R1, 0)
	CSMINUS(CS_R1+32, 32)
	CSPLUS(CS_R2, 256)
	CSPLUS(CS_R2+32, 288)

	CYCPAIR(192, 128, CS_R1B, CS_R2B)

	CYCPAIR(64, 320, CS_R1, CS_R2)
	MULXI(CS_R2, SP, CS_XR)
	MOVQ e+0(FP), SI
	CSMINUS(CS_R1, 128)
	CSMINUS(CS_R1+32, 160)
	CSPLUS(CS_XR, 192)
	CSPLUS(CS_XR+32, 224)

	CSMINUS(CS_R1B, 64)
	CSMINUS(CS_R1B+32, 96)
	CSPLUS(CS_R2B, 320)
	CSPLUS(CS_R2B+32, 352)
	RET

// func cpuid(leaf uint32) (eax, ebx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	RET

// The comb kernels below are the two halves of the loop body of
// ScalarBaseMult (comb.go): the table select and the G1 mixed addition.
//
// The selects read a whole row, 32 affine entries, in the shape of the
// Go standard library's p256SelectAffine: a lane-wise counter j runs
// from 1 to 32 beside mag, PCMPEQL turns j == mag into an all-ones or
// an all-zero 16-byte mask, and every 16 bytes of every entry are ANDed
// with the mask and XORed into the result. Exactly one entry survives,
// none for mag = 0. The loop count is a constant, so neither a branch
// nor an address depends on mag. They use SSE2 only, which every amd64
// CPU has.
//
// g1AddMixed is RCB Algorithm 8 with lazy reduction, in the terms of the
// tower kernels above (q = p^2, U = p*2^256): all 11 products are plain
// (MULP), and each value goes through one reduction. redcu, redc for T
// below U, ends in one subtraction of p rather than two. Before any
// product, t2 = 9 Z1 and 9 X1 are taken with additions (3b = 9, and
// 9x = 8x + x is three doublings and an addition, each reduced). Then,
// with the range of T at each reduction:
//
//   - t3 = (X1 + Y1)(x2 + y2) - X1 x2 - Y1 y2 = X1 y2 + Y1 x2, with
//     unreduced operand sums below 2p: [0, 2q), by redcu.
//   - t0 = 3 X1 x2, the product added three times: [0, 3q), by redcu.
//   - t1 = Y1 y2: [0, q), by redcu. Then, reduced, Z3 = t1 + t2 and
//     t1 = t1 - t2.
//   - t4 = y2 Z1 + Y1 and y3 = x2 t2 + 9 X1 = 9 (x2 Z1 + X1), the
//     reduced addend in the high half: [0, q + U), under 1.19U, by redc.
//   - X3 = t3 t1 - t4 y3 + U: (U - q, U + q), under 1.19U, by redc.
//   - Y3 = t1 Z3 + y3 t0 and Z3 = Z3 t4 + t0 t3: [0, 2q), by redcu.
//
// 2q < 0.38U and 3q < 0.57U, so every redcu input is below U. That is 8
// reductions where the Go code takes 11 Montgomery products. Every
// result is fully reduced, so it equals addMixedG1 limb for limb, and r
// is written only after p and q are last read, so it may alias either.

// func g1SelectAffine(res *g1Affine, row *g1CombRow, mag uint64)
//
// X0..X3 collect the result, X4..X11 hold two entries, X12 is the mask,
// X13 the counter j, X14 mag and X15 the lane-wise 1 that steps j.
TEXT ·g1SelectAffine(SB), NOSPLIT, $0-24
	MOVQ    res+0(FP), DI
	MOVQ    row+8(FP), SI
	MOVQ    mag+16(FP), X14
	PSHUFD  $0, X14, X14
	PXOR    X15, X15
	PCMPEQL X13, X13
	PSUBL   X13, X15
	MOVOU   X15, X13
	PXOR    X0, X0
	PXOR    X1, X1
	PXOR    X2, X2
	PXOR    X3, X3
	MOVQ    $16, CX

g1select:
	MOVOU   X13, X12
	PADDL   X15, X13
	PCMPEQL X14, X12
	MOVOU   0(SI), X4
	MOVOU   16(SI), X5
	MOVOU   32(SI), X6
	MOVOU   48(SI), X7
	PAND    X12, X4
	PAND    X12, X5
	PAND    X12, X6
	PAND    X12, X7
	MOVOU   X13, X12
	PADDL   X15, X13
	PCMPEQL X14, X12
	MOVOU   64(SI), X8
	MOVOU   80(SI), X9
	MOVOU   96(SI), X10
	MOVOU   112(SI), X11
	PAND    X12, X8
	PAND    X12, X9
	PAND    X12, X10
	PAND    X12, X11
	PXOR    X4, X0
	PXOR    X5, X1
	PXOR    X6, X2
	PXOR    X7, X3
	PXOR    X8, X0
	PXOR    X9, X1
	PXOR    X10, X2
	PXOR    X11, X3
	ADDQ    $128, SI
	DECQ    CX
	JNE     g1select

	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	RET

// func g2SelectAffine(res *g2Affine, row *g2CombRow, mag uint64)
//
// As g1SelectAffine on 128-byte entries, one per iteration: X0..X7
// collect the result and X8..X11 hold a half entry.
TEXT ·g2SelectAffine(SB), NOSPLIT, $0-24
	MOVQ    res+0(FP), DI
	MOVQ    row+8(FP), SI
	MOVQ    mag+16(FP), X14
	PSHUFD  $0, X14, X14
	PXOR    X15, X15
	PCMPEQL X13, X13
	PSUBL   X13, X15
	MOVOU   X15, X13
	PXOR    X0, X0
	PXOR    X1, X1
	PXOR    X2, X2
	PXOR    X3, X3
	PXOR    X4, X4
	PXOR    X5, X5
	PXOR    X6, X6
	PXOR    X7, X7
	MOVQ    $32, CX

g2select:
	MOVOU   X13, X12
	PADDL   X15, X13
	PCMPEQL X14, X12
	MOVOU   0(SI), X8
	MOVOU   16(SI), X9
	MOVOU   32(SI), X10
	MOVOU   48(SI), X11
	PAND    X12, X8
	PAND    X12, X9
	PAND    X12, X10
	PAND    X12, X11
	PXOR    X8, X0
	PXOR    X9, X1
	PXOR    X10, X2
	PXOR    X11, X3
	MOVOU   64(SI), X8
	MOVOU   80(SI), X9
	MOVOU   96(SI), X10
	MOVOU   112(SI), X11
	PAND    X12, X8
	PAND    X12, X9
	PAND    X12, X10
	PAND    X12, X11
	PXOR    X8, X4
	PXOR    X9, X5
	PXOR    X10, X6
	PXOR    X11, X7
	ADDQ    $128, SI
	DECQ    CX
	JNE     g2select

	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	RET

// The frame of g1AddMixed: the operand sums X1 + Y1 and x2 + y2, the
// reduced values t0, t1, t2, t3, t4, y3, Z3 and 9 X1, and six
// products.
#define AM_S1 0
#define AM_S2 32
#define AM_T0 64
#define AM_T1 96
#define AM_T2 128
#define AM_T3 160
#define AM_T4 192
#define AM_Y3 224
#define AM_Z3 256
#define AM_X9 288
#define AM_PA 320
#define AM_PB 384
#define AM_PC 448
#define AM_PD 512
#define AM_PE 576
#define AM_PF 640

// MUL9 sets R8..R11 = 9*R8..R11 mod p, for a reduced operand also
// stored at o(r), as three doublings and an addition.
#define MUL9(o, r) \
	DOUBLEMOD; \
	DOUBLEMOD; \
	DOUBLEMOD; \
	ADDMODM(o, r)

// func g1AddMixed(r, p *g1Proj, q *g1Affine)
//
// DI holds p, then r: it is the one register that MULP, LOADT and redc
// all leave alone. SI holds q until the first LOADT. The products of
// each round are taken before its reductions, whose latency chains are
// then independent and overlap.
TEXT ·g1AddMixed(SB), 0, $704-24
	MOVQ p+8(FP), DI
	MOVQ q+16(FP), SI

	// t2 = 9 Z1 and 9 X1, which need no product, then the operand sums.
	LOAD(64, DI)
	MUL9(64, DI)
	STORE(AM_T2, SP)
	LOAD(0, DI)
	MUL9(0, DI)
	STORE(AM_X9, SP)
	ADDNR(0(DI), 8(DI), 16(DI), 24(DI), 32(DI), 40(DI), 48(DI), 56(DI))
	STORE(AM_S1, SP)
	ADDNR(0(SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	STORE(AM_S2, SP)

	// t3 = X1 y2 + Y1 x2, t0 = 3 X1 x2, t1 = Y1 y2, t4 = y2 Z1 + Y1 and
	// y3 = x2 t2 + 9 X1 = 9 (x2 Z1 + X1); then Z3 = t1 + t2 and
	// t1 = t1 - t2.
	MULP(0, DI, 0, SI, AM_PA, SP)
	MULP(32, DI, 32, SI, AM_PB, SP)
	MULP(AM_S1, SP, AM_S2, SP, AM_PC, SP)
	MULP(32, SI, 64, DI, AM_PD, SP)
	MULP(0, SI, AM_T2, SP, AM_PE, SP)
	LOADT(AM_PC)
	SUBT(AM_PA)
	SUBT(AM_PB)
	REDCU
	STORE(AM_T3, SP)
	LOADT(AM_PA)
	ADDT(AM_PA)
	ADDT(AM_PA)
	REDCU
	STORE(AM_T0, SP)
	LOADT(AM_PD)
	ADDH(32, DI)
	REDC
	STORE(AM_T4, SP)
	LOADT(AM_PE)
	ADDH(AM_X9, SP)
	REDC
	STORE(AM_Y3, SP)
	LOADT(AM_PB)
	REDCU
	STORE(AM_T1, SP)
	ADDMODM(AM_T2, SP)
	STORE(AM_Z3, SP)
	LOAD(AM_T1, SP)
	SUBMODM(AM_T2, SP)
	STORE(AM_T1, SP)

	// X3 = t3 t1 - t4 y3, Y3 = t1 Z3 + y3 t0, Z3 = Z3 t4 + t0 t3.
	MULP(AM_T4, SP, AM_Y3, SP, AM_PB, SP)
	MULP(AM_Y3, SP, AM_T0, SP, AM_PD, SP)
	MULP(AM_T0, SP, AM_T3, SP, AM_PF, SP)
	MULP(AM_T3, SP, AM_T1, SP, AM_PA, SP)
	MULP(AM_T1, SP, AM_Z3, SP, AM_PC, SP)
	MULP(AM_Z3, SP, AM_T4, SP, AM_PE, SP)
	MOVQ r+0(FP), DI
	LOADT(AM_PA)
	SUBT(AM_PB)
	ADDHU
	REDC
	STORE(0, DI)
	LOADT(AM_PC)
	ADDT(AM_PD)
	REDCU
	STORE(32, DI)
	LOADT(AM_PE)
	ADDT(AM_PF)
	REDCU
	STORE(64, DI)
	RET
