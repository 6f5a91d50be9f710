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

// func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
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

// The lane kernels below evaluate eight independent Fp operations at
// once, one per 64-bit lane of a ZMM register, with AVX-512F and the
// IFMA multiply-adds VPMADD52LUQ/VPMADD52HUQ (Gueron and Krasnov,
// "Accelerating Big Integer Arithmetic Using Intel IFMA Extensions",
// ARITH 2016). Go calls them only when useIFMA is set. An lfp holds
// eight elements as five 52-bit limbs each, limb-major: limb i of all
// eight lanes is the 64 bytes at offset 64i, so one ZMM load fetches it.
// Values are in Montgomery form with R = 2^260 and every stored value is
// normalised (limbs below 2^52) and lies in [0, 2p); lanes.go proves the
// bounds. The products are operand-scanning Montgomery: per limb b_i,
// ten IFMA ops add a*b_i, m = lo52(c_0 * np), ten more add m*p, and c_0's
// carry moves into c_1. The accumulators hold up to 2^57, so no carry is
// taken inside the loop; one pass normalises at the end.
//
// Register use in every lane kernel: Z0-Z4 one factor, Z10-Z15 the
// accumulators, Z16 m, Z17 and Z19 scratch, Z18 the current limb b_i,
// Z20-Z24 the limbs of p, Z25 np, Z26 the 52-bit mask and Z27-Z31 the
// limbs of 2p. Z5-Z9 carry sums and differences. No general-purpose
// register beyond AX, BX, CX, DX, SI, DI, R8 and R9 is used (R15 stays
// untouched for -dynlink builds), and every kernel ends in VZEROUPPER.
// Scratch elements live in the frame from its first 64-byte boundary
// (LALIGN). The subroutines lfp2sqr<> and lfp6mul<> take their operands
// in registers and expect LCONSTS already loaded.

// LCONSTS loads the constants every lane kernel keeps in Z20-Z31.
#define LCONSTS \
	VPBROADCASTQ ·laneP+0(SB), Z20;   \
	VPBROADCASTQ ·laneP+8(SB), Z21;   \
	VPBROADCASTQ ·laneP+16(SB), Z22;  \
	VPBROADCASTQ ·laneP+24(SB), Z23;  \
	VPBROADCASTQ ·laneP+32(SB), Z24;  \
	VPBROADCASTQ ·laneNP(SB), Z25;    \
	VPTERNLOGQ   $0xff, Z26, Z26, Z26; \
	VPSRLQ       $12, Z26, Z26;       \
	VPBROADCASTQ ·lane2P+0(SB), Z27;  \
	VPBROADCASTQ ·lane2P+8(SB), Z28;  \
	VPBROADCASTQ ·lane2P+16(SB), Z29; \
	VPBROADCASTQ ·lane2P+24(SB), Z30; \
	VPBROADCASTQ ·lane2P+32(SB), Z31

#define LLOAD(o, r, x0, x1, x2, x3, x4) \
	VMOVDQU64 o+0(r), x0;   \
	VMOVDQU64 o+64(r), x1;  \
	VMOVDQU64 o+128(r), x2; \
	VMOVDQU64 o+192(r), x3; \
	VMOVDQU64 o+256(r), x4

#define LSTORE(x0, x1, x2, x3, x4, o, r) \
	VMOVDQU64 x0, o+0(r);   \
	VMOVDQU64 x1, o+64(r);  \
	VMOVDQU64 x2, o+128(r); \
	VMOVDQU64 x3, o+192(r); \
	VMOVDQU64 x4, o+256(r)

// LNORM carries limbs x0..x3 into the next one, leaving them below
// 2^52; x0..x3 must be non-negative.
#define LNORM(x0, x1, x2, x3, x4) \
	VPSRLQ $52, x0, Z17; VPANDQ Z26, x0, x0; VPADDQ Z17, x1, x1; \
	VPSRLQ $52, x1, Z17; VPANDQ Z26, x1, x1; VPADDQ Z17, x2, x2; \
	VPSRLQ $52, x2, Z17; VPANDQ Z26, x2, x2; VPADDQ Z17, x3, x3; \
	VPSRLQ $52, x3, Z17; VPANDQ Z26, x3, x3; VPADDQ Z17, x4, x4

// LSNORM is LNORM for signed limbs: the carries are arithmetic shifts,
// so x0..x3 end in [0, 2^52) and the sign of the value is x4's.
#define LSNORM(x0, x1, x2, x3, x4) \
	VPSRAQ $52, x0, Z17; VPANDQ Z26, x0, x0; VPADDQ Z17, x1, x1; \
	VPSRAQ $52, x1, Z17; VPANDQ Z26, x1, x1; VPADDQ Z17, x2, x2; \
	VPSRAQ $52, x2, Z17; VPANDQ Z26, x2, x2; VPADDQ Z17, x3, x3; \
	VPSRAQ $52, x3, Z17; VPANDQ Z26, x3, x3; VPADDQ Z17, x4, x4

// FIXNEG adds 2p to the lanes of a signed-normalised value in (-2p, 2p)
// that are negative, selected by the sign of x4 and not by a branch,
// and normalises: the result is in [0, 2p).
#define FIXNEG(x0, x1, x2, x3, x4) \
	VPSRAQ $63, x4, Z17;                     \
	VPANDQ Z27, Z17, Z19; VPADDQ Z19, x0, x0; \
	VPANDQ Z28, Z17, Z19; VPADDQ Z19, x1, x1; \
	VPANDQ Z29, Z17, Z19; VPADDQ Z19, x2, x2; \
	VPANDQ Z30, Z17, Z19; VPADDQ Z19, x3, x3; \
	VPANDQ Z31, Z17, Z19; VPADDQ Z19, x4, x4; \
	LNORM(x0, x1, x2, x3, x4)

// LREDROW adds m*p for m = lo52(c0 * np) and moves c0's carry into c1.
#define LREDROW(c0, c1, c2, c3, c4, c5) \
	VPXORQ      Z16, Z16, Z16;  \
	VPMADD52LUQ Z25, c0, Z16;   \
	VPMADD52LUQ Z20, Z16, c0;   \
	VPMADD52LUQ Z21, Z16, c1;   \
	VPMADD52LUQ Z22, Z16, c2;   \
	VPMADD52LUQ Z23, Z16, c3;   \
	VPMADD52LUQ Z24, Z16, c4;   \
	VPMADD52HUQ Z20, Z16, c1;   \
	VPMADD52HUQ Z21, Z16, c2;   \
	VPMADD52HUQ Z22, Z16, c3;   \
	VPMADD52HUQ Z23, Z16, c4;   \
	VPMADD52HUQ Z24, Z16, c5;   \
	VPSRLQ      $52, c0, Z17;   \
	VPADDQ      Z17, c1, c1

// LROUND adds a*b_i (a in Z0-Z4, b_i in Z18) to the accumulator
// c0..c5, whose c5 it clears first, then reduces by one row (LREDROW):
// c0 is then zero modulo 2^52 and is dropped.
#define LROUND(c0, c1, c2, c3, c4, c5) \
	VPXORQ      c5, c5, c5;     \
	VPMADD52LUQ Z18, Z0, c0;    \
	VPMADD52LUQ Z18, Z1, c1;    \
	VPMADD52LUQ Z18, Z2, c2;    \
	VPMADD52LUQ Z18, Z3, c3;    \
	VPMADD52LUQ Z18, Z4, c4;    \
	VPMADD52HUQ Z18, Z0, c1;    \
	VPMADD52HUQ Z18, Z1, c2;    \
	VPMADD52HUQ Z18, Z2, c3;    \
	VPMADD52HUQ Z18, Z3, c4;    \
	VPMADD52HUQ Z18, Z4, c5;    \
	LREDROW(c0, c1, c2, c3, c4, c5)

#define LZEROACC \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14

// LMULM sets Z15, Z10, Z11, Z12, Z13 to the normalised product
// a*b/2^260 of Z0-Z4 and the lane element at bo(br); LMULB does the same
// for the five limbs at bo(br), broadcast to every lane.
#define LMULM(bo, br) \
	LZEROACC; \
	VMOVDQU64 bo+0(br), Z18; LROUND(Z10, Z11, Z12, Z13, Z14, Z15); \
	VMOVDQU64 bo+64(br), Z18; LROUND(Z11, Z12, Z13, Z14, Z15, Z10); \
	VMOVDQU64 bo+128(br), Z18; LROUND(Z12, Z13, Z14, Z15, Z10, Z11); \
	VMOVDQU64 bo+192(br), Z18; LROUND(Z13, Z14, Z15, Z10, Z11, Z12); \
	VMOVDQU64 bo+256(br), Z18; LROUND(Z14, Z15, Z10, Z11, Z12, Z13); \
	LNORM(Z15, Z10, Z11, Z12, Z13)

#define LMULB(bo, br) \
	LZEROACC; \
	VPBROADCASTQ bo+0(br), Z18; LROUND(Z10, Z11, Z12, Z13, Z14, Z15); \
	VPBROADCASTQ bo+8(br), Z18; LROUND(Z11, Z12, Z13, Z14, Z15, Z10); \
	VPBROADCASTQ bo+16(br), Z18; LROUND(Z12, Z13, Z14, Z15, Z10, Z11); \
	VPBROADCASTQ bo+24(br), Z18; LROUND(Z13, Z14, Z15, Z10, Z11, Z12); \
	VPBROADCASTQ bo+32(br), Z18; LROUND(Z14, Z15, Z10, Z11, Z12, Z13); \
	LNORM(Z15, Z10, Z11, Z12, Z13)

// LADDNR sets x = a + b, normalised but not reduced (below 4p).
#define LADDNR(ao, ar, bo, br, x0, x1, x2, x3, x4) \
	LLOAD(ao, ar, x0, x1, x2, x3, x4); \
	VPADDQ bo+0(br), x0, x0;         \
	VPADDQ bo+64(br), x1, x1;        \
	VPADDQ bo+128(br), x2, x2;       \
	VPADDQ bo+192(br), x3, x3;       \
	VPADDQ bo+256(br), x4, x4;       \
	LNORM(x0, x1, x2, x3, x4)

// LSUBM subtracts the lane element at bo(br) from x, limb by limb.
#define LSUBM(bo, br, x0, x1, x2, x3, x4) \
	VPSUBQ bo+0(br), x0, x0;   \
	VPSUBQ bo+64(br), x1, x1;  \
	VPSUBQ bo+128(br), x2, x2; \
	VPSUBQ bo+192(br), x3, x3; \
	VPSUBQ bo+256(br), x4, x4

// LSUB2P subtracts 2p from x, limb by limb; LADD2P adds it.
#define LSUB2P(x0, x1, x2, x3, x4) \
	VPSUBQ Z27, x0, x0; \
	VPSUBQ Z28, x1, x1; \
	VPSUBQ Z29, x2, x2; \
	VPSUBQ Z30, x3, x3; \
	VPSUBQ Z31, x4, x4

#define LADD2P(x0, x1, x2, x3, x4) \
	VPADDQ Z27, x0, x0; \
	VPADDQ Z28, x1, x1; \
	VPADDQ Z29, x2, x2; \
	VPADDQ Z30, x3, x3; \
	VPADDQ Z31, x4, x4

// LADDR sets Z5-Z9 = a + b mod 2p: a + b - 2p, plus 2p where negative.
#define LADDR(ao, ar, bo, br) \
	LLOAD(ao, ar, Z5, Z6, Z7, Z8, Z9);    \
	VPADDQ bo+0(br), Z5, Z5;   \
	VPADDQ bo+64(br), Z6, Z6;  \
	VPADDQ bo+128(br), Z7, Z7; \
	VPADDQ bo+192(br), Z8, Z8; \
	VPADDQ bo+256(br), Z9, Z9; \
	LSUB2P(Z5, Z6, Z7, Z8, Z9);                \
	LSNORM(Z5, Z6, Z7, Z8, Z9);                \
	FIXNEG(Z5, Z6, Z7, Z8, Z9)

// LSUBR sets Z5-Z9 = a - b mod 2p.
#define LSUBR(ao, ar, bo, br) \
	LLOAD(ao, ar, Z5, Z6, Z7, Z8, Z9);      \
	LSUBM(bo, br, Z5, Z6, Z7, Z8, Z9);      \
	LSNORM(Z5, Z6, Z7, Z8, Z9);             \
	FIXNEG(Z5, Z6, Z7, Z8, Z9)

// LRED reduces a normalised x in [0, 2^260) into [0, 2p) without a
// branch: q = floor(x4 * laneQC / 2^96) never exceeds floor(x/p) and
// falls short of it by at most one (lanes.go), so x - q*p is below 2p.
// t0..t4 are scratch; Z17 holds q and Z19 laneQC.
#define LRED(x0, x1, x2, x3, x4, t0, t1, t2, t3, t4) \
	VPBROADCASTQ ·laneQC(SB), Z19; \
	VPXORQ       Z17, Z17, Z17;    \
	VPMADD52HUQ  Z19, x4, Z17;     \
	VPSRLQ       $44, Z17, Z17;    \
	VPXORQ       t0, t0, t0;       \
	VPXORQ       t1, t1, t1;       \
	VPXORQ       t2, t2, t2;       \
	VPXORQ       t3, t3, t3;       \
	VPXORQ       t4, t4, t4;       \
	VPMADD52LUQ  Z20, Z17, t0;     \
	VPMADD52LUQ  Z21, Z17, t1;     \
	VPMADD52LUQ  Z22, Z17, t2;     \
	VPMADD52LUQ  Z23, Z17, t3;     \
	VPMADD52LUQ  Z24, Z17, t4;     \
	VPMADD52HUQ  Z20, Z17, t1;     \
	VPMADD52HUQ  Z21, Z17, t2;     \
	VPMADD52HUQ  Z22, Z17, t3;     \
	VPMADD52HUQ  Z23, Z17, t4;     \
	VPSUBQ       t0, x0, x0;       \
	VPSUBQ       t1, x1, x1;       \
	VPSUBQ       t2, x2, x2;       \
	VPSUBQ       t3, x3, x3;       \
	VPSUBQ       t4, x4, x4;       \
	LSNORM(x0, x1, x2, x3, x4)

// LALIGN points BX at the first 64-byte boundary of the frame, so the
// scratch elements a kernel keeps there never straddle a cache line.
#define LALIGN \
	LEAQ 63(SP), BX; \
	ANDQ $-64, BX

// func lfpMul(c, a, b *lfp)
TEXT ·lfpMul(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LCONSTS
	LLOAD(0, SI, Z0, Z1, Z2, Z3, Z4)
	LMULM(0, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 0, DI)
	VZEROUPPER
	RET

// func lfpAdd(c, a, b *lfp)
TEXT ·lfpAdd(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LCONSTS
	LADDR(0, SI, 0, DX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 0, DI)
	VZEROUPPER
	RET

// func lfpSub(c, a, b *lfp)
TEXT ·lfpSub(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LCONSTS
	LSUBR(0, SI, 0, DX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 0, DI)
	VZEROUPPER
	RET

// func lfp2Add(c, a, b *lfp2)
TEXT ·lfp2Add(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LCONSTS
	LADDR(0, SI, 0, DX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 0, DI)
	LADDR(320, SI, 320, DX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 320, DI)
	VZEROUPPER
	RET

// func lfp2Sub(c, a, b *lfp2)
TEXT ·lfp2Sub(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LCONSTS
	LSUBR(0, SI, 0, DX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 0, DI)
	LSUBR(320, SI, 320, DX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 320, DI)
	VZEROUPPER
	RET

// func lfp2Mul(c, a, b *lfp2)
//
// Karatsuba, as gfP2.mulGeneric: v0 = a0 b0 and v1 = a1 b1 go to the
// frame, then s = (a0 + a1)(b0 + b1) on unreduced sums below 4p, and
// c1 = s - v0 - v1, c0 = v0 - v1. c is written last, so it may alias a
// or b.
TEXT ·lfp2Mul(SB), 0, $1024-24
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LALIGN
	LCONSTS
	LLOAD(0, SI, Z0, Z1, Z2, Z3, Z4)
	LMULM(0, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 0, BX)
	LLOAD(320, SI, Z0, Z1, Z2, Z3, Z4)
	LMULM(320, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 320, BX)
	LADDNR(0, DX, 320, DX, Z5, Z6, Z7, Z8, Z9)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 640, BX)
	LADDNR(0, SI, 320, SI, Z0, Z1, Z2, Z3, Z4)
	LMULM(640, BX)
	LSUBM(0, BX, Z15, Z10, Z11, Z12, Z13)
	LSNORM(Z15, Z10, Z11, Z12, Z13)
	FIXNEG(Z15, Z10, Z11, Z12, Z13)
	LSUBM(320, BX, Z15, Z10, Z11, Z12, Z13)
	LSNORM(Z15, Z10, Z11, Z12, Z13)
	FIXNEG(Z15, Z10, Z11, Z12, Z13)
	LSUBR(0, BX, 320, BX)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 0, DI)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 320, DI)
	VZEROUPPER
	RET

// lfp2sqr<> sets the lane Fp2 element at DI to the square of the one at
// SI, as gfP2.squareGeneric: c0 = (a0 + a1)(a0 - a1) and c1 = 2 a0 a1,
// the factors unreduced, below 4p. R9 points at 640 bytes of aligned
// scratch; Z20-Z31 hold LCONSTS. DI may equal SI.
TEXT ·lfp2sqr<>(SB), NOSPLIT|NOFRAME, $0-0
	LLOAD(0, SI, Z0, Z1, Z2, Z3, Z4)
	LMULM(320, SI)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 0, R9)
	LLOAD(0, SI, Z5, Z6, Z7, Z8, Z9)
	LSUBM(320, SI, Z5, Z6, Z7, Z8, Z9)
	LADD2P(Z5, Z6, Z7, Z8, Z9)
	LSNORM(Z5, Z6, Z7, Z8, Z9)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 320, R9)
	LADDNR(0, SI, 320, SI, Z0, Z1, Z2, Z3, Z4)
	LMULM(320, R9)
	LADDR(0, R9, 0, R9)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 0, DI)
	LSTORE(Z5, Z6, Z7, Z8, Z9, 320, DI)
	RET

// func lfp2Square(c, a *lfp2)
TEXT ·lfp2Square(SB), 0, $704-16
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	LALIGN
	MOVQ BX, R9
	LCONSTS
	CALL ·lfp2sqr<>(SB)
	VZEROUPPER
	RET

// LMULXI sets the lane element at do(dr) to xi times the one at
// so(sr): (9 a0 - a1) + (a0 + 9 a1) i, each coordinate formed limb by
// limb, below 20p after 2p is added to the first, and reduced by LRED.
// It reads all of the source before it writes, so the two may alias.
#define LMULXI(so, sr, do, dr) \
	LLOAD(so, sr, Z0, Z1, Z2, Z3, Z4);              \
	LLOAD(so+320, sr, Z5, Z6, Z7, Z8, Z9);          \
	VPSLLQ $3, Z0, Z10;                              \
	VPSLLQ $3, Z1, Z11;                              \
	VPSLLQ $3, Z2, Z12;                              \
	VPSLLQ $3, Z3, Z13;                              \
	VPSLLQ $3, Z4, Z14;                              \
	VPADDQ Z0, Z10, Z10;                             \
	VPADDQ Z1, Z11, Z11;                             \
	VPADDQ Z2, Z12, Z12;                             \
	VPADDQ Z3, Z13, Z13;                             \
	VPADDQ Z4, Z14, Z14;                             \
	LADD2P(Z10, Z11, Z12, Z13, Z14);                 \
	VPSUBQ Z5, Z10, Z10;                             \
	VPSUBQ Z6, Z11, Z11;                             \
	VPSUBQ Z7, Z12, Z12;                             \
	VPSUBQ Z8, Z13, Z13;                             \
	VPSUBQ Z9, Z14, Z14;                             \
	VPSLLQ $3, Z5, Z15; VPADDQ Z15, Z5, Z5; VPADDQ Z0, Z5, Z5; \
	VPSLLQ $3, Z6, Z15; VPADDQ Z15, Z6, Z6; VPADDQ Z1, Z6, Z6; \
	VPSLLQ $3, Z7, Z15; VPADDQ Z15, Z7, Z7; VPADDQ Z2, Z7, Z7; \
	VPSLLQ $3, Z8, Z15; VPADDQ Z15, Z8, Z8; VPADDQ Z3, Z8, Z8; \
	VPSLLQ $3, Z9, Z15; VPADDQ Z15, Z9, Z9; VPADDQ Z4, Z9, Z9; \
	LSNORM(Z10, Z11, Z12, Z13, Z14);                 \
	LRED(Z10, Z11, Z12, Z13, Z14, Z0, Z1, Z2, Z3, Z4); \
	LNORM(Z5, Z6, Z7, Z8, Z9);                       \
	LRED(Z5, Z6, Z7, Z8, Z9, Z0, Z1, Z2, Z3, Z4);    \
	LSTORE(Z10, Z11, Z12, Z13, Z14, do, dr);         \
	LSTORE(Z5, Z6, Z7, Z8, Z9, do+320, dr)

// func lfp2MulXi(c, a *lfp2)
TEXT ·lfp2MulXi(SB), NOSPLIT, $0-16
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	LCONSTS
	LMULXI(0, SI, 0, DI)
	VZEROUPPER
	RET

// func lfpLine(l *[2]lfp2, co *[4][5]uint64, x, y *lfp)
//
// l = (co0 x, co1 x), (co2 y, co3 y): a recorded line's broadcast
// coefficients b and c instantiated at eight rows' xP/yP and 1/yP.
TEXT ·lfpLine(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ co+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), R8
	LCONSTS
	LLOAD(0, SI, Z0, Z1, Z2, Z3, Z4)
	LMULB(0, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 0, DI)
	LMULB(40, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 320, DI)
	LLOAD(0, R8, Z0, Z1, Z2, Z3, Z4)
	LMULB(80, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 640, DI)
	LMULB(120, DX)
	LSTORE(Z15, Z10, Z11, Z12, Z13, 960, DI)
	VZEROUPPER
	RET

// The fused line product below adds up to four products of lane
// elements before one Montgomery reduction: per round, for each pair
// (a_k, b_k), b_k's limb i goes into Z18 and ten IFMA ops with a_k's
// limbs as memory operands add a_k*b_k,i; then one m*p row reduces the
// sum. Four products under one reduction cost 255 IFMA ops where four
// separate ones cost 404 and three additions. A sum of four products of
// operands below 2p is below 16p^2, so the result is below
// 16p^2/R + p < 1.25p, and the accumulator limbs stay below 2^59.

// LPROD1 adds a*b_i to c0..c5 for b_i in Z18 and a at ao(ar).
#define LPROD1(ao, ar, c0, c1, c2, c3, c4, c5) \
	VPMADD52LUQ ao+0(ar), Z18, c0;   \
	VPMADD52LUQ ao+64(ar), Z18, c1;  \
	VPMADD52LUQ ao+128(ar), Z18, c2; \
	VPMADD52LUQ ao+192(ar), Z18, c3; \
	VPMADD52LUQ ao+256(ar), Z18, c4; \
	VPMADD52HUQ ao+0(ar), Z18, c1;   \
	VPMADD52HUQ ao+64(ar), Z18, c2;  \
	VPMADD52HUQ ao+128(ar), Z18, c3; \
	VPMADD52HUQ ao+192(ar), Z18, c4; \
	VPMADD52HUQ ao+256(ar), Z18, c5

// LSUM4ROUND is round OFF/64 of LSUM4.
#define LSUM4ROUND(OFF, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, c0, c1, c2, c3, c4, c5) \
	VPXORQ    c5, c5, c5;                                  \
	VMOVDQU64 b1o+OFF(b1r), Z18; LPROD1(a1o, a1r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b2o+OFF(b2r), Z18; LPROD1(a2o, a2r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b3o+OFF(b3r), Z18; LPROD1(a3o, a3r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b4o+OFF(b4r), Z18; LPROD1(a4o, a4r, c0, c1, c2, c3, c4, c5); \
	LREDROW(c0, c1, c2, c3, c4, c5)

// LSUM4 sets Z15, Z10, Z11, Z12, Z13 to (a1 b1 + a2 b2 + a3 b3 + a4 b4)/2^260
// with unnormalised limbs.
#define LSUM4(a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r) \
	LZEROACC; \
	LSUM4ROUND(0, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, Z10, Z11, Z12, Z13, Z14, Z15);   \
	LSUM4ROUND(64, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, Z11, Z12, Z13, Z14, Z15, Z10);  \
	LSUM4ROUND(128, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, Z12, Z13, Z14, Z15, Z10, Z11); \
	LSUM4ROUND(192, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, Z13, Z14, Z15, Z10, Z11, Z12); \
	LSUM4ROUND(256, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, Z14, Z15, Z10, Z11, Z12, Z13)

// LADDTO adds the lane element at ao(ar), below 2p, to an LSUM4 result
// (below 1.25p), brings the sum below 2p and stores it at do(dr).
#define LADDTO(ao, ar, do, dr) \
	VPADDQ ao+0(ar), Z15, Z15;   \
	VPADDQ ao+64(ar), Z10, Z10;  \
	VPADDQ ao+128(ar), Z11, Z11; \
	VPADDQ ao+192(ar), Z12, Z12; \
	VPADDQ ao+256(ar), Z13, Z13; \
	LSUB2P(Z15, Z10, Z11, Z12, Z13);  \
	LSNORM(Z15, Z10, Z11, Z12, Z13);  \
	FIXNEG(Z15, Z10, Z11, Z12, Z13);  \
	LSTORE(Z15, Z10, Z11, Z12, Z13, do, dr)

// LFP2MAC sets the Fp2 lane element at do(dr) to z + x y + x' y', for
// x and x' in the f argument (at xo(SI), x2o(SI)) and y, y' given by
// their real and imaginary parts and the negated imaginary part.
#define LFP2MAC(xo, yro, yrr, yio, yir, nyio, nyir, x2o, y2ro, y2rr, y2io, y2ir, ny2io, ny2ir, zo, do, dr) \
	LSUM4(xo, SI, yro, yrr, xo+320, SI, nyio, nyir, x2o, SI, y2ro, y2rr, x2o+320, SI, ny2io, ny2ir); \
	LADDTO(zo, SI, do, dr);                                                                         \
	LSUM4(xo, SI, yio, yir, xo+320, SI, yro, yrr, x2o, SI, y2io, y2ir, x2o+320, SI, y2ro, y2rr);     \
	LADDTO(zo+320, SI, do+320, dr)

// LNEG sets the lane element at do(dr) to minus the one at so(sr).
#define LNEG(so, sr, do, dr) \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	LSUBM(so, sr, Z5, Z6, Z7, Z8, Z9); \
	LSNORM(Z5, Z6, Z7, Z8, Z9);        \
	FIXNEG(Z5, Z6, Z7, Z8, Z9);        \
	LSTORE(Z5, Z6, Z7, Z8, Z9, do, dr)

// Frame of lfp12MulLine, from the aligned base BX: the negated
// imaginary parts of s0 = l1 and s1 = l3, xi s0 and xi s1 with theirs,
// and the result, copied to e at the end so that e may alias a.
#define MLL_N0I 0
#define MLL_N1I 320
#define MLL_X0 640
#define MLL_NX0I 1280
#define MLL_X1 1600
#define MLL_NX1I 2240
#define MLL_E 2560

// func lfp12MulLine(e, a *lfp12, l1, l3 *lfp2)
//
// e = a (1 + (l1 + l3 tau) omega), as gfP12.mulLineGeneric, with every
// coordinate one LFP2MAC. With b the Fp6 halves of a and
// L = s0 + s1 tau, b L = (b0 s0 + b2 xi s1) + (b0 s1 + b1 s0) tau +
// (b1 s1 + b2 s0) tau^2, and
//
//	e0 = c0 + tau (c1 L) = c0 + (c1_1 xi s1 + c1_2 xi s0, c1_0 s0 + c1_2 xi s1, c1_0 s1 + c1_1 s0)
//	e1 = c1 + c0 L       = c1 + (c0_0 s0 + c0_2 xi s1, c0_0 s1 + c0_1 s0, c0_1 s1 + c0_2 s0).
TEXT ·lfp12MulLine(SB), 0, $6464-32
	MOVQ e+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ l1+16(FP), DX
	MOVQ l3+24(FP), R8
	LALIGN
	LCONSTS
	LMULXI(0, DX, MLL_X0, BX)
	LMULXI(0, R8, MLL_X1, BX)
	LNEG(320, DX, MLL_N0I, BX)
	LNEG(320, R8, MLL_N1I, BX)
	LNEG(MLL_X0+320, BX, MLL_NX0I, BX)
	LNEG(MLL_X1+320, BX, MLL_NX1I, BX)
	// e0
	LFP2MAC(1920+640, MLL_X1, BX, MLL_X1+320, BX, MLL_NX1I, BX, 1920+1280, MLL_X0, BX, MLL_X0+320, BX, MLL_NX0I, BX, 0, MLL_E, BX)
	LFP2MAC(1920, 0, DX, 320, DX, MLL_N0I, BX, 1920+1280, MLL_X1, BX, MLL_X1+320, BX, MLL_NX1I, BX, 640, MLL_E+640, BX)
	LFP2MAC(1920, 0, R8, 320, R8, MLL_N1I, BX, 1920+640, 0, DX, 320, DX, MLL_N0I, BX, 1280, MLL_E+1280, BX)
	// e1
	LFP2MAC(0, 0, DX, 320, DX, MLL_N0I, BX, 1280, MLL_X1, BX, MLL_X1+320, BX, MLL_NX1I, BX, 1920, MLL_E+1920, BX)
	LFP2MAC(0, 0, R8, 320, R8, MLL_N1I, BX, 640, 0, DX, 320, DX, MLL_N0I, BX, 1920+640, MLL_E+2560, BX)
	LFP2MAC(640, 0, R8, 320, R8, MLL_N1I, BX, 1280, 0, DX, 320, DX, MLL_N0I, BX, 1920+1280, MLL_E+3200, BX)
	// e = the result
	MOVQ $0, AX
mllcopy:
	VMOVDQU64 MLL_E(BX)(AX*1), Z0
	VMOVDQU64 MLL_E+64(BX)(AX*1), Z1
	VMOVDQU64 MLL_E+128(BX)(AX*1), Z2
	VMOVDQU64 MLL_E+192(BX)(AX*1), Z3
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z1, 64(DI)(AX*1)
	VMOVDQU64 Z2, 128(DI)(AX*1)
	VMOVDQU64 Z3, 192(DI)(AX*1)
	ADDQ $256, AX
	CMPQ AX, $3840
	JNE  mllcopy
	VZEROUPPER
	RET

// LSUM6ROUND is round OFF/64 of LSUM6.
#define LSUM6ROUND(OFF, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r, c0, c1, c2, c3, c4, c5) \
	VPXORQ    c5, c5, c5;                                  \
	VMOVDQU64 b1o+OFF(b1r), Z18; LPROD1(a1o, a1r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b2o+OFF(b2r), Z18; LPROD1(a2o, a2r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b3o+OFF(b3r), Z18; LPROD1(a3o, a3r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b4o+OFF(b4r), Z18; LPROD1(a4o, a4r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b5o+OFF(b5r), Z18; LPROD1(a5o, a5r, c0, c1, c2, c3, c4, c5); \
	VMOVDQU64 b6o+OFF(b6r), Z18; LPROD1(a6o, a6r, c0, c1, c2, c3, c4, c5); \
	LREDROW(c0, c1, c2, c3, c4, c5)

// LSUM6 is LSUM4 for six products: below 24p^2, so the result is below
// 24p^2/R + p < 1.4p and the accumulator limbs below 2^59.
#define LSUM6(a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r) \
	LZEROACC; \
	LSUM6ROUND(0, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r, Z10, Z11, Z12, Z13, Z14, Z15); \
	LSUM6ROUND(64, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r, Z11, Z12, Z13, Z14, Z15, Z10); \
	LSUM6ROUND(128, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r, Z12, Z13, Z14, Z15, Z10, Z11); \
	LSUM6ROUND(192, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r, Z13, Z14, Z15, Z10, Z11, Z12); \
	LSUM6ROUND(256, a1o, a1r, b1o, b1r, a2o, a2r, b2o, b2r, a3o, a3r, b3o, b3r, a4o, a4r, b4o, b4r, a5o, a5r, b5o, b5r, a6o, a6r, b6o, b6r, Z14, Z15, Z10, Z11, Z12, Z13)

// L6MAC sets the lane Fp2 element at do(DI) to x1 y1 + x2 y2 + x3 y3 for
// x1, x2, x3 at x1o(SI), x2o(SI), x3o(SI) and y1, y2, y3 given by the
// offsets from R9 of their real parts, imaginary parts and negated
// imaginary parts.
#define L6MAC(x1o, y1r, y1i, ny1i, x2o, y2r, y2i, ny2i, x3o, y3r, y3i, ny3i, do) \
	LSUM6(x1o, SI, y1r, R9, x1o+320, SI, ny1i, R9, x2o, SI, y2r, R9, x2o+320, SI, ny2i, R9, x3o, SI, y3r, R9, x3o+320, SI, ny3i, R9); \
	LNORM(Z15, Z10, Z11, Z12, Z13);                                                                                                \
	LSTORE(Z15, Z10, Z11, Z12, Z13, do, DI);                                                                                      \
	LSUM6(x1o, SI, y1i, R9, x1o+320, SI, y1r, R9, x2o, SI, y2i, R9, x2o+320, SI, y2r, R9, x3o, SI, y3i, R9, x3o+320, SI, y3r, R9); \
	LNORM(Z15, Z10, Z11, Z12, Z13);                                                                                                \
	LSTORE(Z15, Z10, Z11, Z12, Z13, do+320, DI)

// Scratch of lfp6mul<>, from R9: a copy of b, the negated imaginary
// parts of b0, b1 and b2, xi b1 and xi b2 with theirs.
#define L6_B 0
#define L6_NB0I 1920
#define L6_NB1I 2240
#define L6_NB2I 2560
#define L6_XB1 2880
#define L6_NXB1I 3520
#define L6_XB2 3840
#define L6_NXB2I 4480
#define L6_SIZE 4800

// lfp6mul<> sets the lane Fp6 element at DI to the product of those at
// SI and DX, with one reduction per output coordinate (gfp6Mul's lazy
// reduction, on lanes): with xi folded into b,
//
//	e0 = a0 b0 + a1 (xi b2) + a2 (xi b1)
//	e1 = a0 b1 + a1 b0 + a2 (xi b2)
//	e2 = a0 b2 + a1 b1 + a2 b0,
//
// and each Fp coordinate of an Fp2 sum of three products is one LSUM6.
// Every output is below 1.4p, so none needs a subtraction. R9 points at
// L6_SIZE bytes of aligned scratch; DI must not overlap SI, and may
// overlap DX only if equal. Z20-Z31 hold LCONSTS. It clobbers Z0-Z19.
TEXT ·lfp6mul<>(SB), NOSPLIT|NOFRAME, $0-0
	MOVQ $0, AX
l6copy:
	VMOVDQU64 (DX)(AX*1), Z5
	VMOVDQU64 Z5, L6_B(R9)(AX*1)
	ADDQ $64, AX
	CMPQ AX, $1920
	JNE  l6copy
	LMULXI(L6_B+640, R9, L6_XB1, R9)
	LMULXI(L6_B+1280, R9, L6_XB2, R9)
	LNEG(L6_B+320, R9, L6_NB0I, R9)
	LNEG(L6_B+960, R9, L6_NB1I, R9)
	LNEG(L6_B+1600, R9, L6_NB2I, R9)
	LNEG(L6_XB1+320, R9, L6_NXB1I, R9)
	LNEG(L6_XB2+320, R9, L6_NXB2I, R9)
	L6MAC(0, L6_B, L6_B+320, L6_NB0I, 640, L6_XB2, L6_XB2+320, L6_NXB2I, 1280, L6_XB1, L6_XB1+320, L6_NXB1I, 0)
	L6MAC(0, L6_B+640, L6_B+960, L6_NB1I, 640, L6_B, L6_B+320, L6_NB0I, 1280, L6_XB2, L6_XB2+320, L6_NXB2I, 640)
	L6MAC(0, L6_B+1280, L6_B+1600, L6_NB2I, 640, L6_B+640, L6_B+960, L6_NB1I, 1280, L6_B, L6_B+320, L6_NB0I, 1280)
	RET

// Fp2 lane macros on memory: the sum, the difference and the difference
// of three, each reduced into [0, 2p).
#define L2ADD(ao, ar, bo, br, do, dr) \
	LADDR(ao, ar, bo, br);                   \
	LSTORE(Z5, Z6, Z7, Z8, Z9, do, dr);      \
	LADDR(ao+320, ar, bo+320, br);           \
	LSTORE(Z5, Z6, Z7, Z8, Z9, do+320, dr)

#define L1SUB3(ao, ar, bo, br, co, cr, do, dr) \
	LSUBR(ao, ar, bo, br);                   \
	LSUBM(co, cr, Z5, Z6, Z7, Z8, Z9);       \
	LSNORM(Z5, Z6, Z7, Z8, Z9);              \
	FIXNEG(Z5, Z6, Z7, Z8, Z9);              \
	LSTORE(Z5, Z6, Z7, Z8, Z9, do, dr)

#define L2SUB3(ao, ar, bo, br, co, cr, do, dr) \
	L1SUB3(ao, ar, bo, br, co, cr, do, dr);  \
	L1SUB3(ao+320, ar, bo+320, br, co+320, cr, do+320, dr)

// Frame of lfp12Square, from BX: v = c0 c1, s = c0 + c1,
// x = c0 + tau c1, t = s x, xi c1_2 or xi v2, and lfp6mul<>'s scratch.
#define S12L_V 0
#define S12L_S 1920
#define S12L_X 3840
#define S12L_T 5760
#define S12L_XI 7680
#define S12L_M 8320

// func lfp12Square(e, a *lfp12)
//
// e = a^2, as gfP12.squareGeneric: with v = c0 c1,
// (c0 + c1 w)^2 = (c0 + c1)(c0 + tau c1) - v - tau v + 2 v w. e may
// alias a: a is read only before the first write to e.
TEXT ·lfp12Square(SB), 0, $13184-16
	MOVQ e+0(FP), R8
	MOVQ a+8(FP), SI
	LALIGN
	LEAQ S12L_M(BX), R9
	LCONSTS
	LEAQ 1920(SI), DX
	LEAQ S12L_V(BX), DI
	CALL ·lfp6mul<>(SB)
	L2ADD(0, SI, 1920, SI, S12L_S, BX)
	L2ADD(640, SI, 2560, SI, S12L_S+640, BX)
	L2ADD(1280, SI, 3200, SI, S12L_S+1280, BX)
	LMULXI(3200, SI, S12L_XI, BX)
	L2ADD(0, SI, S12L_XI, BX, S12L_X, BX)
	L2ADD(640, SI, 1920, SI, S12L_X+640, BX)
	L2ADD(1280, SI, 2560, SI, S12L_X+1280, BX)
	LEAQ S12L_S(BX), SI
	LEAQ S12L_X(BX), DX
	LEAQ S12L_T(BX), DI
	CALL ·lfp6mul<>(SB)
	LMULXI(S12L_V+1280, BX, S12L_XI, BX)
	L2SUB3(S12L_T, BX, S12L_V, BX, S12L_XI, BX, 0, R8)
	L2SUB3(S12L_T+640, BX, S12L_V+640, BX, S12L_V, BX, 640, R8)
	L2SUB3(S12L_T+1280, BX, S12L_V+1280, BX, S12L_V+640, BX, 1280, R8)
	L2ADD(S12L_V, BX, S12L_V, BX, 1920, R8)
	L2ADD(S12L_V+640, BX, S12L_V+640, BX, 2560, R8)
	L2ADD(S12L_V+1280, BX, S12L_V+1280, BX, 3200, R8)
	VZEROUPPER
	RET

// Frame of lfp12Mul, from BX: v0 = a0 b0, v1 = a1 b1, the sums
// a0 + a1 and b0 + b1, s = their product, xi v1_2, and lfp6mul<>'s
// scratch.
#define M12L_V0 0
#define M12L_V1 1920
#define M12L_SA 3840
#define M12L_SB 5760
#define M12L_S 7680
#define M12L_XI 9600
#define M12L_M 10240

// func lfp12Mul(e, a, b *lfp12)
//
// e = a b, as gfP12.mulGeneric: Karatsuba over Fp6,
// e0 = v0 + tau v1, e1 = (a0 + a1)(b0 + b1) - v0 - v1. e may alias a
// or b: they are read only before the first write to e.
TEXT ·lfp12Mul(SB), 0, $15104-24
	MOVQ e+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), CX
	LALIGN
	LEAQ M12L_M(BX), R9
	LCONSTS
	MOVQ CX, DX
	LEAQ M12L_V0(BX), DI
	CALL ·lfp6mul<>(SB)
	LEAQ 1920(SI), SI
	LEAQ 1920(CX), DX
	LEAQ M12L_V1(BX), DI
	CALL ·lfp6mul<>(SB)
	LEAQ -1920(SI), SI
	L2ADD(0, SI, 1920, SI, M12L_SA, BX)
	L2ADD(640, SI, 2560, SI, M12L_SA+640, BX)
	L2ADD(1280, SI, 3200, SI, M12L_SA+1280, BX)
	L2ADD(0, CX, 1920, CX, M12L_SB, BX)
	L2ADD(640, CX, 2560, CX, M12L_SB+640, BX)
	L2ADD(1280, CX, 3200, CX, M12L_SB+1280, BX)
	LEAQ M12L_SA(BX), SI
	LEAQ M12L_SB(BX), DX
	LEAQ M12L_S(BX), DI
	CALL ·lfp6mul<>(SB)
	L2SUB3(M12L_S, BX, M12L_V0, BX, M12L_V1, BX, 1920, R8)
	L2SUB3(M12L_S+640, BX, M12L_V0+640, BX, M12L_V1+640, BX, 2560, R8)
	L2SUB3(M12L_S+1280, BX, M12L_V0+1280, BX, M12L_V1+1280, BX, 3200, R8)
	LMULXI(M12L_V1+1280, BX, M12L_XI, BX)
	L2ADD(M12L_V0, BX, M12L_XI, BX, 0, R8)
	L2ADD(M12L_V0+640, BX, M12L_V1, BX, 640, R8)
	L2ADD(M12L_V0+1280, BX, M12L_V1+640, BX, 1280, R8)
	VZEROUPPER
	RET

// L3T2X sets the lane element at do(dr) to 3t - 2x (op VPSUBQ, with 4p
// added) or 3t + 2x (op VPADDQ), t at to(tr) and x at xo(xr): below 10p
// either way, reduced by LRED.
#define L3T2X(op, to, tr, xo, xr, do, dr) \
	LLOAD(to, tr, Z5, Z6, Z7, Z8, Z9);              \
	LLOAD(xo, xr, Z10, Z11, Z12, Z13, Z14);         \
	VPSLLQ $1, Z5, Z15; VPADDQ Z15, Z5, Z5;         \
	VPSLLQ $1, Z6, Z15; VPADDQ Z15, Z6, Z6;         \
	VPSLLQ $1, Z7, Z15; VPADDQ Z15, Z7, Z7;         \
	VPSLLQ $1, Z8, Z15; VPADDQ Z15, Z8, Z8;         \
	VPSLLQ $1, Z9, Z15; VPADDQ Z15, Z9, Z9;         \
	VPSLLQ $1, Z10, Z10;                            \
	VPSLLQ $1, Z11, Z11;                            \
	VPSLLQ $1, Z12, Z12;                            \
	VPSLLQ $1, Z13, Z13;                            \
	VPSLLQ $1, Z14, Z14;                            \
	op     Z10, Z5, Z5;                             \
	op     Z11, Z6, Z6;                             \
	op     Z12, Z7, Z7;                             \
	op     Z13, Z8, Z8;                             \
	op     Z14, Z9, Z9;                             \
	LADD2P(Z5, Z6, Z7, Z8, Z9);                     \
	LADD2P(Z5, Z6, Z7, Z8, Z9);                     \
	LSNORM(Z5, Z6, Z7, Z8, Z9);                     \
	LRED(Z5, Z6, Z7, Z8, Z9, Z0, Z1, Z2, Z3, Z4);   \
	LSTORE(Z5, Z6, Z7, Z8, Z9, do, dr)

// Frame of lfp12CyclotomicSquare, from BX: t0..t8 and lfp2sqr<>'s
// scratch.
#define CSL_T0 0
#define CSL_T1 640
#define CSL_T2 1280
#define CSL_T3 1920
#define CSL_T4 2560
#define CSL_T5 3200
#define CSL_T6 3840
#define CSL_T7 4480
#define CSL_T8 5120
#define CSL_Q 5760

// LCSQ sets t at to(BX) to the square of the lane Fp2 element at so(sr).
#define LCSQ(so, sr, to) \
	LEAQ so(sr), SI; \
	LEAQ to(BX), DI; \
	CALL ·lfp2sqr<>(SB)

// LCSQSUM sets t at to(BX) to (x + y)^2 - u - v, for x, y in the
// argument (at xo(R8), yo(R8)) and u, v at uo(BX), vo(BX).
#define LCSQSUM(xo, yo, uo, vo, to) \
	L2ADD(xo, R8, yo, R8, to, BX);                  \
	LCSQ(to, BX, to);                               \
	L2SUB3(to, BX, uo, BX, vo, BX, to, BX)

// func lfp12CyclotomicSquare(e, a *lfp12)
//
// e = a^2 for a in the cyclotomic subgroup, as
// gfP12.cyclotomicSquareGeneric (Granger-Scott): x0..x5, the
// coefficients of w^0..w^5, are at 0, 1920, 640, 2560, 1280 and 3200.
// Each output coefficient reads only its own input coefficient after
// the squares, so e may alias a.
TEXT ·lfp12CyclotomicSquare(SB), 0, $6464-16
	MOVQ e+0(FP), DX
	MOVQ a+8(FP), R8
	LALIGN
	LEAQ CSL_Q(BX), R9
	LCONSTS
	LCSQ(2560, R8, CSL_T0)
	LCSQ(0, R8, CSL_T1)
	LCSQSUM(2560, 0, CSL_T0, CSL_T1, CSL_T6)
	LCSQ(1280, R8, CSL_T2)
	LCSQ(1920, R8, CSL_T3)
	LCSQSUM(1280, 1920, CSL_T2, CSL_T3, CSL_T7)
	LCSQ(3200, R8, CSL_T4)
	LCSQ(640, R8, CSL_T5)
	LCSQSUM(3200, 640, CSL_T4, CSL_T5, CSL_T8)
	LMULXI(CSL_T8, BX, CSL_T8, BX)
	LMULXI(CSL_T0, BX, CSL_T0, BX)
	L2ADD(CSL_T0, BX, CSL_T1, BX, CSL_T0, BX)
	LMULXI(CSL_T2, BX, CSL_T2, BX)
	L2ADD(CSL_T2, BX, CSL_T3, BX, CSL_T2, BX)
	LMULXI(CSL_T4, BX, CSL_T4, BX)
	L2ADD(CSL_T4, BX, CSL_T5, BX, CSL_T4, BX)
	L3T2X(VPSUBQ, CSL_T0, BX, 0, R8, 0, DX)
	L3T2X(VPSUBQ, CSL_T0+320, BX, 320, R8, 320, DX)
	L3T2X(VPSUBQ, CSL_T2, BX, 640, R8, 640, DX)
	L3T2X(VPSUBQ, CSL_T2+320, BX, 960, R8, 960, DX)
	L3T2X(VPSUBQ, CSL_T4, BX, 1280, R8, 1280, DX)
	L3T2X(VPSUBQ, CSL_T4+320, BX, 1600, R8, 1600, DX)
	L3T2X(VPADDQ, CSL_T8, BX, 1920, R8, 1920, DX)
	L3T2X(VPADDQ, CSL_T8+320, BX, 2240, R8, 2240, DX)
	L3T2X(VPADDQ, CSL_T6, BX, 2560, R8, 2560, DX)
	L3T2X(VPADDQ, CSL_T6+320, BX, 2880, R8, 2880, DX)
	L3T2X(VPADDQ, CSL_T7, BX, 3200, R8, 3200, DX)
	L3T2X(VPADDQ, CSL_T7+320, BX, 3520, R8, 3520, DX)
	VZEROUPPER
	RET

// func lfp6Mul(c, a, b *lfp6)
//
// c = a b by lfp6mul<>, through the frame, so that c may alias a or b.
TEXT ·lfp6Mul(SB), 0, $6784-24
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	LALIGN
	LEAQ 1920(BX), R9
	MOVQ BX, DI
	LCONSTS
	CALL ·lfp6mul<>(SB)
	MOVQ c+0(FP), DI
	MOVQ $0, AX
l6mcopy:
	VMOVDQU64 (BX)(AX*1), Z5
	VMOVDQU64 Z5, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, $1920
	JNE  l6mcopy
	VZEROUPPER
	RET
