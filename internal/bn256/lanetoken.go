package bn256

import (
	"sync"
	"unsafe"
)

// Token work on the lane kernels. Each live slot of a token walks the
// same Miller chain over the NAF of 6u+2, each G2 point's membership
// test the same chain over the wNAF of u, each element's square root
// the same two exponentiations, and each of TokenGen's base
// multiplications the same comb; only the inputs differ. So up to
// eight slots, points, elements or scalars run as the lanes of one
// chain on the Fp and Fp2 lane kernels (lanes.go), the way eight rows
// run as the lanes of one Miller evaluation. The twist chains share one
// lane point type, ltwist: Jacobian doubling and addition for the
// Miller and membership chains, which are straight-line (a lane where
// the scalar code would branch, a point at infinity or H = 0 in an
// addition, ends with Z = 0, which the callers check), and the complete
// RCB mixed addition for the comb (comb.go), which needs no check.
//
// A program recorded on the lanes keeps each line's coefficients in
// the lanes' own form only (laneOp): it is evaluated on the lanes, so
// no coefficient goes back to a gfP.

// laneMinSlots is the fewest live slots PrecomputePairBatch records on
// the lanes. A lane chain costs the same for one slot as for eight;
// BenchmarkLane/recordN (medians of five at -cpu 1) put one slot at
// 0.16 ms on the scalar recorder against 0.21 ms on the lanes, and two
// at 0.31 against 0.22 ms, so Pair, a one-slot batch, keeps the scalar
// recorder and two slots go to the lanes. No SJ.Dec token has fewer
// than five slots (DESIGN.md, "Thresholds").
const laneMinSlots = 2

// laneMinPoints is the fewest G2 points UnmarshalG2s takes square
// roots of and checks for subgroup membership on the lanes at once; a
// smaller group runs the scalar Sqrt and inG2 per point. Measured with
// BenchmarkLane/inG2xN and BenchmarkTokenDecode (DESIGN.md).
const laneMinPoints = 2

// ltwist is eight twist points, one per lane: in Jacobian coordinates
// for the Miller and membership chains, homogeneous for the comb.
type ltwist struct{ x, y, z lfp2 }

func (t *ltwist) set(k int, a *twistPoint) {
	t.x.set(k, &a.x)
	t.y.set(k, &a.y)
	t.z.set(k, &a.z)
}

// double sets t = 2a with twistPoint.Double's formulas: a lane with
// Z = 0 or Y = 0 gets Z = 0.
func (t *ltwist) double(a *ltwist) {
	var A, B, C, D, E, F, x3, y3, z3 lfp2
	lfp2Square(&A, &a.x)
	lfp2Square(&B, &a.y)
	lfp2Square(&C, &B)

	lfp2Add(&D, &a.x, &B)
	lfp2Square(&D, &D)
	lfp2Sub(&D, &D, &A)
	lfp2Sub(&D, &D, &C)
	lfp2Add(&D, &D, &D)

	lfp2Add(&E, &A, &A)
	lfp2Add(&E, &E, &A)
	lfp2Square(&F, &E)

	lfp2Add(&x3, &D, &D)
	lfp2Sub(&x3, &F, &x3)

	lfp2Sub(&D, &D, &x3)
	lfp2Mul(&y3, &E, &D)
	lfp2Add(&C, &C, &C)
	lfp2Add(&C, &C, &C)
	lfp2Add(&C, &C, &C)
	lfp2Sub(&y3, &y3, &C)

	lfp2Mul(&z3, &a.y, &a.z)
	lfp2Add(&z3, &z3, &z3)
	t.x, t.y, t.z = x3, y3, z3
}

// add sets t = a + b with twistPoint.Add's formulas for distinct finite
// points: z3 = 2 Z1 Z2 H, so a lane where either input has Z = 0 or
// where H = 0 (a = b or a = -b, which Add would branch on) gets Z = 0.
func (t *ltwist) add(a, b *ltwist) {
	var z1z1, z2z2, u1, u2, s1, s2, h, r, i, j, v lfp2
	lfp2Square(&z1z1, &a.z)
	lfp2Square(&z2z2, &b.z)
	lfp2Mul(&u1, &a.x, &z2z2)
	lfp2Mul(&u2, &b.x, &z1z1)
	lfp2Mul(&s1, &a.y, &b.z)
	lfp2Mul(&s1, &s1, &z2z2)
	lfp2Mul(&s2, &b.y, &a.z)
	lfp2Mul(&s2, &s2, &z1z1)
	lfp2Sub(&h, &u2, &u1)
	lfp2Sub(&r, &s2, &s1)
	lfp2Add(&r, &r, &r)

	lfp2Add(&i, &h, &h)
	lfp2Square(&i, &i)
	lfp2Mul(&j, &h, &i)
	lfp2Mul(&v, &u1, &i)

	var x3, y3, z3 lfp2
	lfp2Square(&x3, &r)
	lfp2Sub(&x3, &x3, &j)
	lfp2Sub(&x3, &x3, &v)
	lfp2Sub(&x3, &x3, &v)

	lfp2Sub(&v, &v, &x3)
	lfp2Mul(&y3, &r, &v)
	lfp2Mul(&s1, &s1, &j)
	lfp2Add(&s1, &s1, &s1)
	lfp2Sub(&y3, &y3, &s1)

	lfp2Add(&z3, &a.z, &b.z)
	lfp2Square(&z3, &z3)
	lfp2Sub(&z3, &z3, &z1z1)
	lfp2Sub(&z3, &z3, &z2z2)
	lfp2Mul(&z3, &z3, &h)
	t.x, t.y, t.z = x3, y3, z3
}

// addMixed sets t = p + q by RCB Algorithm 8, as addMixedG2: here t
// and p are homogeneous (X:Y:Z), the comb's accumulator, and q is
// affine. The formula is complete, so no lane needs a branch, p at
// infinity and the (0, 0) of a zero digit included. t must not alias p.
func (t *ltwist) addMixed(p *ltwist, q *g2LaneAffine) {
	var t0, t1, t2, t3, t4 lfp2
	x3, y3, z3 := &t.x, &t.y, &t.z
	lfp2Mul(&t0, &p.x, &q[0])
	lfp2Mul(&t1, &p.y, &q[1])
	lfp2Add(&t3, &q[0], &q[1])
	lfp2Add(&t4, &p.x, &p.y)
	lfp2Mul(&t3, &t3, &t4)
	lfp2Add(&t4, &t0, &t1)
	lfp2Sub(&t3, &t3, &t4)
	lfp2Mul(&t4, &q[1], &p.z)
	lfp2Add(&t4, &t4, &p.y)
	lfp2Mul(y3, &q[0], &p.z)
	lfp2Add(y3, y3, &p.x)
	lfp2Add(x3, &t0, &t0)
	lfp2Add(&t0, x3, &t0)
	lfp2Mul(&t2, &laneTwistB3, &p.z)
	lfp2Add(z3, &t1, &t2)
	lfp2Sub(&t1, &t1, &t2)
	lfp2Mul(y3, &laneTwistB3, y3)
	lfp2Mul(x3, &t4, y3)
	lfp2Mul(&t2, &t3, &t1)
	lfp2Sub(x3, &t2, x3)
	lfp2Mul(y3, y3, &t0)
	lfp2Mul(&t1, &t1, z3)
	lfp2Add(y3, &t1, y3)
	lfp2Mul(&t0, &t0, &t3)
	lfp2Mul(z3, z3, &t4)
	lfp2Add(z3, z3, &t0)
}

// addMixedKeep sets lane k of t to t + q where mag[k] is not zero and
// leaves it where it is, as g1AddMixedLanes with r = p: the comb's
// addition and keep, with neither a branch nor an address depending on
// mag.
func (t *ltwist) addMixedKeep(q *g2LaneAffine, mag *[laneRows]uint64) {
	var sum ltwist
	sum.addMixed(t, q)
	var keep [laneRows]uint64
	for k, m := range mag {
		keep[k] = ^ctEqMask(m, 0)
	}
	t.cmov(&sum, &keep)
}

// cmov sets lane k of t to lane k of a where mask[k] is all ones and
// leaves it where mask[k] is zero, with no branch: limb by limb, the 30
// limb rows of the three coordinates.
func (t *ltwist) cmov(a *ltwist, mask *[laneRows]uint64) {
	e := (*[30][laneRows]uint64)(unsafe.Pointer(t))
	s := (*[30][laneRows]uint64)(unsafe.Pointer(a))
	m0, m1, m2, m3, m4, m5, m6, m7 := mask[0], mask[1], mask[2], mask[3], mask[4], mask[5], mask[6], mask[7]
	for i := range e {
		r, b := &e[i], &s[i]
		r[0] ^= (r[0] ^ b[0]) & m0
		r[1] ^= (r[1] ^ b[1]) & m1
		r[2] ^= (r[2] ^ b[2]) & m2
		r[3] ^= (r[3] ^ b[3]) & m3
		r[4] ^= (r[4] ^ b[4]) & m4
		r[5] ^= (r[5] ^ b[5]) & m5
		r[6] ^= (r[6] ^ b[6]) & m6
		r[7] ^= (r[7] ^ b[7]) & m7
	}
}

// neg sets t = -a.
func (t *ltwist) neg(a *ltwist) {
	t.x, t.z = a.x, a.z
	lfp2Sub(&t.y, &laneZero2, &a.y)
}

// frobenius is twistPoint.Frobenius.
func (t *ltwist) frobenius(a *ltwist) {
	var c lfp2
	c.conjugate(&a.x)
	lfp2Mul(&t.x, &c, &laneFrob1[2])
	c.conjugate(&a.y)
	lfp2Mul(&t.y, &c, &laneFrob1[3])
	t.z.conjugate(&a.z)
}

// isZero reports whether lane k of e is zero mod p: a lane value below
// 2p is zero mod p if it is 0 or p, which join52's reduction tells.
func (e *lfp) isZero(k int) bool {
	l := e.col(k)
	t := join52(&l)
	return t.IsZero()
}

func (e *lfp2) isZero(k int) bool { return e[0].isZero(k) && e[1].isZero(k) }

// inG2Lanes sets ok[k] = ts[k].inG2() for up to eight points, running
// the Dai-Lin-Zhao-Zhou test of inG2 on the lanes, point k in lane k;
// unused lanes repeat the last point. The wNAF walk of u starts from the table
// entry of the top digit rather than from infinity, so no lane is at
// infinity unless its point is. A lane is decided on the lanes only if
// [u]t, the left side and the right side all have Z != 0 and the sides
// are equal or not: Z != 0 at the end means every addition and doubling
// behind it had non-zero inputs and H != 0, where the formulas are
// exact. Every other lane re-runs the scalar inG2; fallback has bit k
// set for each. So the lanes accept exactly the points inG2 accepts.
func inG2Lanes(ts []*twistPoint, ok []bool) (fallback uint8) {
	var t ltwist
	for k := 0; k < laneRows; k++ {
		t.set(k, ts[min(k, len(ts)-1)])
	}

	var table [1 << (uWNAFWidth - 2)]ltwist // table[i] = (2i+1)t
	var t2 ltwist
	t2.double(&t)
	table[0] = t
	for i := 1; i < len(table); i++ {
		table[i].add(&table[i-1], &t2)
	}
	n := len(uWNAF)
	ut := table[uWNAF[n-1]/2]
	var neg ltwist
	for i := n - 2; i >= 0; i-- {
		ut.double(&ut)
		switch d := uWNAF[i]; {
		case d > 0:
			ut.add(&ut, &table[d/2])
		case d < 0:
			neg.neg(&table[-d/2])
			ut.add(&ut, &neg)
		}
	}

	var lhs, rhs ltwist
	lhs.frobenius(&ut)
	lhs.add(&lhs, &ut)
	lhs.frobenius(&lhs)
	lhs.add(&lhs, &ut)
	lhs.add(&lhs, &t)
	rhs.double(&ut)
	rhs.frobenius(&rhs)
	rhs.frobenius(&rhs)
	rhs.frobenius(&rhs)

	// lhs == rhs as Jacobian points: X1 Z2^2 == X2 Z1^2 and
	// Y1 Z2^3 == Y2 Z1^3.
	var z1z1, z2z2, l, r, dx, dy lfp2
	lfp2Square(&z1z1, &lhs.z)
	lfp2Square(&z2z2, &rhs.z)
	lfp2Mul(&l, &lhs.x, &z2z2)
	lfp2Mul(&r, &rhs.x, &z1z1)
	lfp2Sub(&dx, &l, &r)
	lfp2Mul(&z2z2, &z2z2, &rhs.z)
	lfp2Mul(&z1z1, &z1z1, &lhs.z)
	lfp2Mul(&l, &lhs.y, &z2z2)
	lfp2Mul(&r, &rhs.y, &z1z1)
	lfp2Sub(&dy, &l, &r)

	for k := range ts {
		if ut.z.isZero(k) || lhs.z.isZero(k) || rhs.z.isZero(k) {
			ok[k] = ts[k].inG2()
			fallback |= 1 << k
			continue
		}
		ok[k] = dx.isZero(k) && dy.isZero(k)
	}
	return fallback
}

// Square-root constants of the lanes: 1/2 in every lane, and the
// exponents (p+1)/4 and (p-3)/4 of gfP2.Sqrt as four 64-bit limbs.
var (
	laneInv2                 lfp
	sqrtExpRoot, sqrtExpInvR [4]uint64
)

func initLaneSqrt() {
	for k := range laneRows {
		laneInv2.set(k, &inv2)
	}
	root, invR := combScalar(pPlus1Over4), combScalar(pMinus3Over4)
	copy(sqrtExpRoot[:], root[:4])
	copy(sqrtExpInvR[:], invR[:4])
}

// exp sets e = a^k lane by lane for a public exponent k, in fixed 4-bit
// windows from the top: a table of a^1 .. a^15, then per window four
// squarings and one product, which a zero window skips.
func (e *lfp) exp(a *lfp, k *[4]uint64) {
	var table [16]lfp
	table[1] = *a
	for i := 2; i < len(table); i++ {
		lfpMul(&table[i], &table[i-1], a)
	}
	acc := laneOne
	for w := 63; w >= 0; w-- {
		for range 4 {
			lfpMul(&acc, &acc, &acc)
		}
		if d := k[w/16] >> (4 * (w % 16)) & 15; d != 0 {
			lfpMul(&acc, &acc, &table[d])
		}
	}
	*e = acc
}

// eq reports whether lane k of e equals lane k of b mod p.
func (e *lfp) eq(k int, b *lfp) bool {
	var d lfp
	lfpSub(&d, e, b)
	return d.isZero(k)
}

// sqrtLanes sets ys[k] to a square root of as[k] and ok[k] to whether
// there is one, as gfP2.Sqrt, for up to eight elements: Sqrt's chains
// run on the lanes, element k in lane k, and unused lanes repeat the
// last element. lambda = N(a)^((p+1)/4) must square to the norm
// N(a) = a0^2 + a1^2; then with delta = (a0 + lambda)/2 and s =
// delta^((p-3)/4), c = (s delta, a1 s/2) squares to a where delta is a
// square. Where it is not, s^2 delta = delta^((p-1)/2) = -1 and c
// squares to -a: the root is ic = (-a1 s/2, s delta), the one Sqrt's
// second attempt with -lambda finds up to sign, and no second chain is
// needed. Token bytes are public, so a lane may branch on these checks.
// A lane with a1 = 0, which Sqrt takes on a path of its own (the only
// one where delta can be 0), and a lane whose norm or root check fails
// re-run the scalar Sqrt; fallback has bit k set for each. A lane
// decided on the lanes has a verified root, and Sqrt finds one for
// every square, so ok is Sqrt's answer. The root may be the other of
// the two; decoding fixes its sign.
func sqrtLanes(ys []gfP2, as []*gfP2, ok []bool) (fallback uint8) {
	var a lfp2
	for k := range laneRows {
		a.set(k, as[min(k, len(as)-1)])
	}
	var norm, t, lambda, delta, s lfp
	lfpMul(&norm, &a[0], &a[0])
	lfpMul(&t, &a[1], &a[1])
	lfpAdd(&norm, &norm, &t)
	lambda.exp(&norm, &sqrtExpRoot)
	lfpMul(&t, &lambda, &lambda)
	lfpAdd(&delta, &a[0], &lambda)
	lfpMul(&delta, &delta, &laneInv2)
	s.exp(&delta, &sqrtExpInvR)
	var c, ic, sq, na lfp2
	lfpMul(&c[0], &s, &delta)
	lfpMul(&c[1], &a[1], &s)
	lfpMul(&c[1], &c[1], &laneInv2)
	lfpSub(&ic[0], &laneZero2[0], &c[1])
	ic[1] = c[0]
	lfp2Square(&sq, &c)
	lfp2Sub(&na, &laneZero2, &a)
	for k := range as {
		ok[k] = false
		if as[k].a1.IsZero() || !t.eq(k, &norm) {
			continue
		}
		switch {
		case sq[0].eq(k, &a[0]) && sq[1].eq(k, &a[1]):
			ys[k], ok[k] = c.get(k), true
		case sq[0].eq(k, &na[0]) && sq[1].eq(k, &na[1]):
			ys[k], ok[k] = ic.get(k), true
		}
	}
	for k := range as {
		if !ok[k] {
			ok[k] = ys[k].Sqrt(as[k])
			fallback |= 1 << k
		}
	}
	return fallback
}

// lineStep is one recorded line of eight slots: A, B and C of
// millerRecorder's double and add, and normalize's norm N(A) and
// prefix product of the norms; after normalize, b and c hold B/A and
// C/A.
type lineStep struct {
	a, b, c      lfp2
	norm, prefix lfp
}

// stepPool recycles the chains' step buffers, about 225 KB each, which
// every recorded token would otherwise allocate and zero: every field
// of a step is written before it is read.
var stepPool = sync.Pool{New: func() any {
	steps := make([]lineStep, 0, millerSteps())
	return &steps
}}

// laneChain is the Miller chain of up to eight live slots, slot k in
// lane k; unused lanes repeat the last slot, so that no lane's A is
// zero (one zero lane would spoil lfp.invert's batch for all eight).
type laneChain struct {
	slots  []int32
	qx, qy lfp2 // the affine points
	nqy    lfp2 // -qy
	t      ltwist
	steps  []lineStep
	buf    *[]lineStep // steps' pooled buffer
}

// double is millerRecorder.double on the lanes, with the doubling's X^2
// and Y^2 shared with the line.
func (c *laneChain) double() {
	t := &c.t
	s := c.next()
	var zz, x2, y2, e, yz lfp2
	lfp2Square(&zz, &t.z)
	lfp2Square(&x2, &t.x)
	lfp2Square(&y2, &t.y)
	lfp2Add(&e, &x2, &x2)
	lfp2Add(&e, &e, &x2) // 3X^2
	lfp2Mul(&yz, &t.y, &t.z)
	lfp2Add(&yz, &yz, &yz) // 2YZ, the doubled point's Z
	// A = 2YZ^3, B = -3X^2 Z^2, C = 3X^3 - 2Y^2
	lfp2Mul(&s.a, &yz, &zz)
	lfp2Mul(&s.b, &e, &zz)
	lfp2Sub(&s.b, &laneZero2, &s.b)
	lfp2Mul(&s.c, &e, &t.x)
	lfp2Sub(&s.c, &s.c, &y2)
	lfp2Sub(&s.c, &s.c, &y2)

	var c2, d, f lfp2
	lfp2Square(&c2, &y2)
	lfp2Add(&d, &t.x, &y2)
	lfp2Square(&d, &d)
	lfp2Sub(&d, &d, &x2)
	lfp2Sub(&d, &d, &c2)
	lfp2Add(&d, &d, &d)
	lfp2Square(&f, &e)
	lfp2Add(&t.x, &d, &d)
	lfp2Sub(&t.x, &f, &t.x)
	lfp2Sub(&d, &d, &t.x)
	lfp2Mul(&t.y, &e, &d)
	lfp2Add(&c2, &c2, &c2)
	lfp2Add(&c2, &c2, &c2)
	lfp2Add(&c2, &c2, &c2)
	lfp2Sub(&t.y, &t.y, &c2)
	t.z = yz
}

// add is millerRecorder.add on the lanes for the affine point (qx, qy),
// with the addition itself in mixed form (Z2 = 1), sharing H and N with
// the line.
func (c *laneChain) add(qx, qy *lfp2) {
	t := &c.t
	s := c.next()
	var zz, h, n, tmp lfp2
	lfp2Square(&zz, &t.z)
	lfp2Mul(&h, qx, &zz)
	lfp2Sub(&h, &h, &t.x)
	lfp2Mul(&n, qy, &zz)
	lfp2Mul(&n, &n, &t.z)
	lfp2Sub(&n, &n, &t.y)
	// A = ZH, B = -N, C = N xQ - A yQ
	lfp2Mul(&s.a, &t.z, &h)
	lfp2Sub(&s.b, &laneZero2, &n)
	lfp2Mul(&s.c, &n, qx)
	lfp2Mul(&tmp, &s.a, qy)
	lfp2Sub(&s.c, &s.c, &tmp)

	// r = 2N, I = (2H)^2, J = H I, V = X I; X3 = r^2 - J - 2V,
	// Y3 = r (V - X3) - 2 Y J, Z3 = 2 Z H.
	var r, i, j, v lfp2
	lfp2Add(&r, &n, &n)
	lfp2Add(&i, &h, &h)
	lfp2Square(&i, &i)
	lfp2Mul(&j, &h, &i)
	lfp2Mul(&v, &t.x, &i)
	lfp2Square(&t.x, &r)
	lfp2Sub(&t.x, &t.x, &j)
	lfp2Sub(&t.x, &t.x, &v)
	lfp2Sub(&t.x, &t.x, &v)
	lfp2Sub(&v, &v, &t.x)
	lfp2Mul(&tmp, &t.y, &j)
	lfp2Mul(&t.y, &r, &v)
	lfp2Add(&tmp, &tmp, &tmp)
	lfp2Sub(&t.y, &t.y, &tmp)
	lfp2Add(&t.z, &s.a, &s.a)
}

func (c *laneChain) next() *lineStep {
	c.steps = c.steps[:len(c.steps)+1]
	return &c.steps[len(c.steps)-1]
}

// normalize is millerRecorder.normalize on the lanes: every step's b
// and c are divided by its A, with the Fp norms of all the chain's A
// inverted in one batch, and that batch's one inversion shared by the
// eight lanes (lfp.invert).
func (c *laneChain) normalize() {
	for s := range c.steps {
		st := &c.steps[s]
		var t lfp
		lfpMul(&st.norm, &st.a[0], &st.a[0])
		lfpMul(&t, &st.a[1], &st.a[1])
		lfpAdd(&st.norm, &st.norm, &t)
		if s == 0 {
			st.prefix = st.norm
		} else {
			lfpMul(&st.prefix, &c.steps[s-1].prefix, &st.norm)
		}
	}
	inv := c.steps[len(c.steps)-1].prefix
	inv.invert()
	for s := len(c.steps) - 1; s >= 0; s-- {
		st := &c.steps[s]
		ninv := inv
		if s > 0 {
			lfpMul(&ninv, &inv, &c.steps[s-1].prefix)
			lfpMul(&inv, &inv, &st.norm)
		}
		// 1/A = conj(A)/N(A)
		var ainv lfp2
		lfpMul(&ainv[0], &st.a[0], &ninv)
		lfpMul(&ainv[1], &st.a[1], &ninv)
		lfpSub(&ainv[1], &laneZero2[1], &ainv[1])
		lfp2Mul(&st.b, &st.b, &ainv)
		lfp2Mul(&st.c, &st.c, &ainv)
	}
}

// col returns lane k of st's b and c: a laneOp's coefficients.
func (st *lineStep) col(k int) [4][5]uint64 {
	return [4][5]uint64{st.b[0].col(k), st.b[1].col(k), st.c[0].col(k), st.c[1].col(k)}
}

// recordLanes is record on the lane kernels: the live slots, with affine
// points qa, run in chains of up to eight, one slot per lane, and the
// program it writes is record's, op for op, with each line's b and c
// kept in the lanes' own form (pc.lane; TestLanePrecomputeMatchesRecorder
// decodes them): the normalized coefficients B/A and C/A do not depend
// on the Jacobian representative of the running point, so the lanes'
// formulas may differ from twistPoint's. The ops come in the scalar
// order, a step's lines slot by slot across the chains, and the two end
// lines of each slot together.
func (pc *PairingPrecomp) recordLanes(slots []int32, qa []twistPoint) {
	steps := millerSteps()
	chains := make([]laneChain, (len(slots)+laneRows-1)/laneRows)
	for ci := range chains {
		c := &chains[ci]
		c.slots = slots[ci*laneRows : min((ci+1)*laneRows, len(slots))]
		q := qa[ci*laneRows:]
		for k := 0; k < laneRows; k++ {
			p := &q[min(k, len(c.slots)-1)]
			c.qx.set(k, &p.x)
			c.qy.set(k, &p.y)
		}
		lfp2Sub(&c.nqy, &laneZero2, &c.qy)
		c.t = ltwist{x: c.qx, y: c.qy}
		c.t.z[0] = laneOne
		c.buf = stepPool.Get().(*[]lineStep)
		c.steps = (*c.buf)[:0]
	}
	defer func() {
		for ci := range chains {
			stepPool.Put(chains[ci].buf)
		}
	}()

	n := len(sixUPlus2NAF)
	for i := n - 2; i >= 0; i-- {
		for ci := range chains {
			chains[ci].double()
		}
		switch sixUPlus2NAF[i] {
		case 1:
			for ci := range chains {
				chains[ci].add(&chains[ci].qx, &chains[ci].qy)
			}
		case -1:
			for ci := range chains {
				chains[ci].add(&chains[ci].qx, &chains[ci].nqy)
			}
		}
	}
	for ci := range chains {
		// q1 = pi(q) and q2 = -pi^2(q), affine like q.
		c := &chains[ci]
		var q1x, q1y, q2x, q2y, t lfp2
		t.conjugate(&c.qx)
		lfp2Mul(&q1x, &t, &laneFrob1[2])
		t.conjugate(&c.qy)
		lfp2Mul(&q1y, &t, &laneFrob1[3])
		t.conjugate(&q1x)
		lfp2Mul(&q2x, &t, &laneFrob1[2])
		t.conjugate(&q1y)
		lfp2Mul(&q2y, &t, &laneFrob1[3])
		lfp2Sub(&q2y, &laneZero2, &q2y)
		c.add(&q1x, &q1y)
		c.add(&q2x, &q2y)
		c.normalize()
	}

	pc.lane = make([]laneOp, 0, n-1+steps*len(slots))
	s := 0
	emitStep := func() {
		for ci := range chains {
			c := &chains[ci]
			st := &c.steps[s]
			for k, j := range c.slots {
				pc.lane = append(pc.lane, laneOp{slot: j, co: st.col(k)})
			}
		}
		s++
	}
	for i := n - 2; i >= 0; i-- {
		pc.lane = append(pc.lane, laneOp{slot: -1})
		emitStep()
		if sixUPlus2NAF[i] != 0 {
			emitStep()
		}
	}
	// The two end lines go slot by slot, both lines of a slot together.
	for ci := range chains {
		c := &chains[ci]
		st1, st2 := &c.steps[s], &c.steps[s+1]
		for k, j := range c.slots {
			pc.lane = append(pc.lane, laneOp{slot: j, co: st1.col(k)}, laneOp{slot: j, co: st2.col(k)})
		}
	}
}
