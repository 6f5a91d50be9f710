package bn256

import "math/big"

// The lane evaluator runs the recorded Miller program and the final
// exponentiation for up to eight rows at once: every row executes the
// same straight-line program on different inputs, so the rows become the
// eight 64-bit lanes of AVX-512 registers and the field products run on
// the IFMA multiply-adds (Gueron and Krasnov, "Accelerating Big Integer
// Arithmetic Using Intel IFMA Extensions", ARITH 2016; Drucker and
// Gueron, "Fast modular squaring with AVX512IFMA", 2019). The line
// product, the Fp6 and Fp12 products, the Fp12 square and the
// cyclotomic square are single kernels in gfp_amd64.s, with the
// formulas of gfp6.go and gfp12.go; the rest of the tower (inversion,
// Frobenius maps, expByU and the hard part of the final exponentiation)
// is written here on lane elements, over the Fp and Fp2 lane kernels.
//
// A lane element is in Montgomery form with R = 2^260 and radix 2^52:
// five limbs, limb-major, so that limb i of all eight lanes is one ZMM
// register. The kernels keep two invariants on every stored element:
// each limb is below 2^52 (IFMA reads only a limb's low 52 bits, so sums
// are normalised before they are multiplied) and the value lies in
// [0, 2p), not necessarily reduced.
//
// Bounds. The product of a and b is t = (ab + mp)/R with m < R, so
// t < ab/R + p. For a, b < 2p, ab/R < 4p^2/R < p because 4p < 2^260, so
// t < 2p and no final subtraction is needed. Karatsuba's unreduced sums
// are below 4p, and 16p^2/R < 0.3p keeps those products below 2p too;
// so does a sum of up to six products under one reduction, below
// 24p^2/R + p < 1.4p. Sums and differences are formed limb by limb,
// normalised with signed carries, and brought back into [0, 2p) by
// adding 2p under a mask taken from the sign of the top limb (FIXNEG).
// MulXi's coordinates reach 20p, and 3t +- 2x in the cyclotomic square
// 10p; they are reduced by a quotient estimate (LRED):
// q = floor(x4 * laneQC / 2^96) with laneQC = floor(2^304/p) is at most
// floor(x/p), and short of it by at most one, since x4 * 2^208 is x
// without its low 208 bits and laneQC/2^96 is 2^208/p to within 2^-96;
// so x - q*p is in [0, 2p).
//
// Conversions. A gfP holds x*2^256 mod p; its lane form x*2^260 mod p is
// four modular doublings away, split into 52-bit limbs. Back, a lane
// value is joined into 64-bit limbs, reduced once below p and multiplied
// by 2^252 mod p (a Montgomery product by 2^-256, so by 1/16): fully
// reduced, the same limbs as the scalar path computes.

// laneRows is the number of rows one lane evaluation takes: one per
// 64-bit lane of a ZMM register.
const laneRows = 8

// laneMinRows is the smallest chunk the lane evaluator takes. A lane
// evaluation costs the same for one row as for eight, and on one row
// the row path is cheaper; from two rows on the lanes win. It was
// measured with BenchmarkLane's chunkN pairs at d = 5 (DESIGN.md has the
// numbers).
const laneMinRows = 2

// lfp is eight Fp elements in lane form: lfp[i][k] is limb i of lane k.
type lfp [5][laneRows]uint64

// lfp2, lfp6 and lfp12 are eight elements of Fp2, Fp6 and Fp12, laid
// out as gfP2, gfP6 and gfP12 are: lfp2 is (a0, a1), lfp6 (b0, b1, b2)
// and lfp12 (c0, c1).
type (
	lfp2  [2]lfp
	lfp6  [3]lfp2
	lfp12 [2]lfp6
)

var (
	// laneP and lane2P are p and 2p in 52-bit limbs; laneNP is
	// -p^-1 mod 2^52 and laneQC is floor(2^304/p), LRED's quotient
	// constant. The lane kernels read them.
	laneP, lane2P  [5]uint64
	laneNP, laneQC uint64
	// laneInv16 is 2^252 mod p as raw limbs: a Montgomery product by it
	// divides by 16, taking R = 2^260 back to R = 2^256.
	laneInv16 gfP
	// laneOne, laneFrob1 and laneFrob2 are one and the Frobenius
	// constants of gfp12.go in every lane.
	laneOne              lfp
	laneFrob1, laneFrob2 [6]lfp2
	// laneZero2 is zero, the minuend of lane negations.
	laneZero2 lfp2
)

func initLanes() {
	laneP = radix52(&pLimbs)
	lane2P = radix52(&p2Limbs)
	laneNP = np & (1<<52 - 1)
	laneQC = new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 304), P).Uint64()
	laneInv16 = gfPFromRawBig(new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 252), P))
	for k := 0; k < laneRows; k++ {
		laneOne.set(k, &rOne)
		for i := range laneFrob1 {
			laneFrob1[i].set(k, &frob1Consts[i])
			laneFrob2[i].set(k, &frob2Consts[i])
		}
	}
}

// radix52 splits a 256-bit value held in four 64-bit limbs into five
// 52-bit limbs.
func radix52(x *[4]uint64) [5]uint64 {
	const m = 1<<52 - 1
	return [5]uint64{
		x[0] & m,
		(x[0]>>52 | x[1]<<12) & m,
		(x[1]>>40 | x[2]<<24) & m,
		(x[2]>>28 | x[3]<<36) & m,
		x[3] >> 16,
	}
}

// laneEncode returns the lane form of a: a*16 mod p in 52-bit limbs.
func laneEncode(a *gfP) [5]uint64 {
	t := *a
	for i := 0; i < 4; i++ {
		t.Double(&t)
	}
	return radix52((*[4]uint64)(&t))
}

// laneDecode returns the fully reduced gfP of a lane value below 2p.
func laneDecode(l *[5]uint64) gfP {
	t := gfP{
		l[0] | l[1]<<52,
		l[1]>>12 | l[2]<<40,
		l[2]>>24 | l[3]<<28,
		l[3]>>36 | l[4]<<16,
	}
	t.reduceOnce()
	t.Mul(&t, &laneInv16)
	return t
}

// set sets lane k of e to a.
func (e *lfp) set(k int, a *gfP) {
	l := laneEncode(a)
	for i := range l {
		e[i][k] = l[i]
	}
}

// get returns lane k of e.
func (e *lfp) get(k int) gfP {
	var l [5]uint64
	for i := range l {
		l[i] = e[i][k]
	}
	return laneDecode(&l)
}

func (e *lfp2) set(k int, a *gfP2) {
	e[0].set(k, &a.a0)
	e[1].set(k, &a.a1)
}

func (e *lfp2) get(k int) gfP2 { return gfP2{e[0].get(k), e[1].get(k)} }

func (e *lfp12) set(k int, a *gfP12) {
	for j, b := range [6]*gfP2{&a.c0.b0, &a.c0.b1, &a.c0.b2, &a.c1.b0, &a.c1.b1, &a.c1.b2} {
		e[j/3][j%3].set(k, b)
	}
}

func (e *lfp12) get(k int) gfP12 {
	var a gfP12
	for j, b := range [6]*gfP2{&a.c0.b0, &a.c0.b1, &a.c0.b2, &a.c1.b0, &a.c1.b1, &a.c1.b2} {
		*b = e[j/3][j%3].get(k)
	}
	return a
}

// invert sets every lane of e to its inverse with one base-field
// inversion for all eight (batchInvert). Every lane must be non-zero.
func (e *lfp) invert() {
	var xs [laneRows]gfP
	var ps [laneRows]*gfP
	for k := range xs {
		xs[k] = e.get(k)
		ps[k] = &xs[k]
	}
	batchInvert(ps[:])
	for k := range xs {
		e.set(k, &xs[k])
	}
}

func (e *lfp2) conjugate(a *lfp2) {
	e[0] = a[0]
	lfpSub(&e[1], &laneZero2[1], &a[1])
}

func (e *lfp6) sub(a, b *lfp6) {
	for i := range e {
		lfp2Sub(&e[i], &a[i], &b[i])
	}
}

func (e *lfp6) neg(a *lfp6) {
	for i := range e {
		lfp2Sub(&e[i], &laneZero2, &a[i])
	}
}

// mulTau is gfP6.MulTau.
func (e *lfp6) mulTau(a *lfp6) {
	var t lfp2
	lfp2MulXi(&t, &a[2])
	e[2] = a[1]
	e[1] = a[0]
	e[0] = t
}

// invert sets every lane of e to its inverse, as gfP6.Invert, with the
// one base-field inversion shared by the lanes.
func (e *lfp6) invert(a *lfp6) {
	var A, B, C, F, t lfp2
	lfp2Square(&A, &a[0])
	lfp2Mul(&t, &a[1], &a[2])
	lfp2MulXi(&t, &t)
	lfp2Sub(&A, &A, &t)

	lfp2Square(&B, &a[2])
	lfp2MulXi(&B, &B)
	lfp2Mul(&t, &a[0], &a[1])
	lfp2Sub(&B, &B, &t)

	lfp2Square(&C, &a[1])
	lfp2Mul(&t, &a[0], &a[2])
	lfp2Sub(&C, &C, &t)

	lfp2Mul(&F, &a[0], &A)
	lfp2Mul(&t, &a[2], &B)
	lfp2MulXi(&t, &t)
	lfp2Add(&F, &F, &t)
	lfp2Mul(&t, &a[1], &C)
	lfp2MulXi(&t, &t)
	lfp2Add(&F, &F, &t)

	// 1/F = conj(F)/(F0^2 + F1^2)
	var n lfp
	lfpMul(&n, &F[0], &F[0])
	lfpMul(&t[0], &F[1], &F[1])
	lfpAdd(&n, &n, &t[0])
	n.invert()
	lfpMul(&F[0], &F[0], &n)
	lfpMul(&F[1], &F[1], &n)
	lfpSub(&F[1], &laneZero2[1], &F[1])

	lfp2Mul(&e[0], &A, &F)
	lfp2Mul(&e[1], &B, &F)
	lfp2Mul(&e[2], &C, &F)
}

func (e *lfp12) conjugate(a *lfp12) {
	e[0] = a[0]
	e[1].neg(&a[1])
}

// invert sets every lane of e to its inverse, as gfP12.Invert.
func (e *lfp12) invert(a *lfp12) {
	var d, t lfp6
	lfp6Mul(&d, &a[0], &a[0])
	lfp6Mul(&t, &a[1], &a[1])
	t.mulTau(&t)
	d.sub(&d, &t)
	d.invert(&d)
	lfp6Mul(&e[0], &a[0], &d)
	d.neg(&d)
	lfp6Mul(&e[1], &a[1], &d)
}

// frobenius1 is gfP12.Frobenius1: coefficient c_i.b_j sits on w^(2j+i).
func (e *lfp12) frobenius1(a *lfp12) {
	for i := range a {
		for j := range a[i] {
			var t lfp2
			t.conjugate(&a[i][j])
			lfp2Mul(&e[i][j], &t, &laneFrob1[2*j+i])
		}
	}
}

// frobenius2 is gfP12.Frobenius2.
func (e *lfp12) frobenius2(a *lfp12) {
	for i := range a {
		for j := range a[i] {
			lfp2Mul(&e[i][j], &a[i][j], &laneFrob2[2*j+i])
		}
	}
}

// expByU is gfP12.expByU.
func (e *lfp12) expByU(a *lfp12) {
	var table [4]lfp12
	var a2 lfp12
	lfp12CyclotomicSquare(&a2, a)
	table[0] = *a
	for i := 1; i < len(table); i++ {
		lfp12Mul(&table[i], &table[i-1], &a2)
	}
	n := len(uWNAF)
	acc := table[uWNAF[n-1]/2]
	var t lfp12
	for i := n - 2; i >= 0; i-- {
		lfp12CyclotomicSquare(&acc, &acc)
		switch d := uWNAF[i]; {
		case d > 0:
			lfp12Mul(&acc, &acc, &table[d/2])
		case d < 0:
			t.conjugate(&table[-d/2])
			lfp12Mul(&acc, &acc, &t)
		}
	}
	*e = acc
}

// finalExponentiation is finalExponentiationBatch on eight lanes: the
// easy part's inversion is one base-field inversion for all of them,
// and the hard part is hardExponentiation's.
func (e *lfp12) finalExponentiation(f *lfp12) {
	var t0, t1 lfp12
	t0.conjugate(f)
	t1.invert(f)
	lfp12Mul(&t0, &t0, &t1)
	t1.frobenius2(&t0)
	lfp12Mul(&t0, &t0, &t1)
	a := &t0

	var fp, fp2, fp3 lfp12
	fp.frobenius1(a)
	fp2.frobenius2(a)
	fp3.frobenius1(&fp2)

	var fu, fu2, fu3 lfp12
	fu.expByU(a)
	fu2.expByU(&fu)
	fu3.expByU(&fu2)

	var y3, fu2p, fu3p, y2 lfp12
	y3.frobenius1(&fu)
	fu2p.frobenius1(&fu2)
	fu3p.frobenius1(&fu3)
	y2.frobenius2(&fu2)

	var y0 lfp12
	lfp12Mul(&y0, &fp, &fp2)
	lfp12Mul(&y0, &y0, &fp3)

	var y1, y4, y5, y6 lfp12
	y1.conjugate(a)
	y5.conjugate(&fu2)
	y3.conjugate(&y3)
	lfp12Mul(&y4, &fu, &fu2p)
	y4.conjugate(&y4)
	lfp12Mul(&y6, &fu3, &fu3p)
	y6.conjugate(&y6)

	lfp12CyclotomicSquare(&t0, &y6)
	lfp12Mul(&t0, &t0, &y4)
	lfp12Mul(&t0, &t0, &y5)
	lfp12Mul(&t1, &y3, &y5)
	lfp12Mul(&t1, &t1, &t0)
	lfp12Mul(&t0, &t0, &y2)
	lfp12CyclotomicSquare(&t1, &t1)
	lfp12Mul(&t1, &t1, &t0)
	lfp12CyclotomicSquare(&t1, &t1)
	lfp12Mul(&t0, &t1, &y1)
	lfp12Mul(&t1, &t1, &y0)
	lfp12CyclotomicSquare(&t0, &t0)
	lfp12Mul(e, &t0, &t1)
}

// laneCoeffs returns the lane form of every recorded line's b and c,
// indexed like pc.ops, building it on first use.
func (pc *PairingPrecomp) laneCoeffs() [][4][5]uint64 {
	pc.laneOnce.Do(func() {
		pc.laneCo = make([][4][5]uint64, len(pc.ops))
		for i := range pc.ops {
			op := &pc.ops[i]
			if op.slot < 0 {
				continue
			}
			pc.laneCo[i] = [4][5]uint64{
				laneEncode(&op.b.a0), laneEncode(&op.b.a1),
				laneEncode(&op.c.a0), laneEncode(&op.c.a1),
			}
		}
	})
	return pc.laneCo
}

// evalLanes is evalChunk on the lane kernels: row k of pts is lane k.
func (pc *PairingPrecomp) evalLanes(pts *rowPoints, out []GT) {
	f := pc.millerLanes(pts, len(out))
	f.finalExponentiation(f)
	for r := range out {
		out[r].p = f.get(r)
	}
}

// millerLanes is miller on the lane kernels for the first rows rows of
// pts, one per lane. Lanes past the last row, like slots at infinity,
// hold xs = ys = 0, whose lines are one.
func (pc *PairingPrecomp) millerLanes(pts *rowPoints, rows int) *lfp12 {
	co := pc.laneCoeffs()
	xs := make([]lfp, pc.n)
	ys := make([]lfp, pc.n)
	for r := 0; r < rows; r++ {
		for j := 0; j < pc.n; j++ {
			if i := r*pc.n + j; !pts.skip[i] {
				xs[j].set(r, &pts.xs[i])
				ys[j].set(r, &pts.ys[i])
			}
		}
	}

	f := new(lfp12)
	f[0][0][0] = laneOne
	one := true
	var l [2]lfp2
	for i := range pc.ops {
		op := &pc.ops[i]
		if op.slot < 0 {
			if !one {
				lfp12Square(f, f)
			}
			continue
		}
		lfpLine(&l, &co[i], &xs[op.slot], &ys[op.slot])
		if one {
			f[1][0], f[1][1] = l[0], l[1]
			one = false
			continue
		}
		lfp12MulLine(f, f, &l[0], &l[1])
	}
	return f
}
