package bn256

import "math/big"

// twistPoint is a point on the sextic D-twist E': y^2 = x^3 + 3/xi over
// Fp2 in Jacobian coordinates. The order-r subgroup of E'(Fp2) is G2.
type twistPoint struct {
	x, y, z gfP2
}

// twistB is the twist curve coefficient b' = 3/xi.
var twistB gfP2

// twistGen is a generator of the order-r subgroup of E'(Fp2), found at
// init by hashing along x-coordinates and clearing the twist cofactor.
// twistGenN is the n of its x = n + i.
var (
	twistGen  twistPoint
	twistGenN int64
)

// twistSearchBound caps the x = n + i candidates initTwist tries. About
// half of all x give a point, so the search ends within a few
// candidates; one that runs to the bound means the field arithmetic is
// wrong (every gfP2.Sqrt failing, say), and init panics rather than
// hang.
const twistSearchBound = 256

func initTwist() {
	var three gfP2
	three.a0 = *newGFp(3)
	twistB.Mul(&three, &xiInv)

	// Scan small x-coordinates for a point on the twist, then clear the
	// cofactor to land in the order-r subgroup.
	for n := int64(1); n <= twistSearchBound; n++ {
		var x, rhs, y gfP2
		x.a0 = *newGFp(n)
		x.a1 = *newGFp(1)
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &twistB)
		if !y.Sqrt(&rhs) {
			continue
		}
		var pt twistPoint
		pt.x.Set(&x)
		pt.y.Set(&y)
		pt.z.SetOne()
		if !pt.isOnTwist() {
			continue
		}
		var gen twistPoint
		gen.Mul(&pt, twistCofactor)
		if gen.IsInfinity() {
			continue
		}
		var check twistPoint
		check.Mul(&gen, Order)
		if !check.IsInfinity() {
			panic("bn256: cofactor-cleared twist point does not have order r")
		}
		gen.MakeAffine()
		if !gen.inG2() {
			panic("bn256: twist generator fails the G2 membership test")
		}
		twistGen, twistGenN = gen, n
		return
	}
	panic("bn256: no twist point with x = n + i for n up to twistSearchBound; the field arithmetic is wrong")
}

// Set sets t = a and returns t.
func (t *twistPoint) Set(a *twistPoint) *twistPoint {
	t.x.Set(&a.x)
	t.y.Set(&a.y)
	t.z.Set(&a.z)
	return t
}

// SetInfinity sets t to the point at infinity.
func (t *twistPoint) SetInfinity() *twistPoint {
	t.x.SetOne()
	t.y.SetOne()
	t.z.SetZero()
	return t
}

// IsInfinity reports whether t is the point at infinity.
func (t *twistPoint) IsInfinity() bool {
	return t.z.IsZero()
}

// isOnTwist reports whether the affine form of t satisfies
// y^2 = x^3 + 3/xi.
func (t *twistPoint) isOnTwist() bool {
	if t.IsInfinity() {
		return true
	}
	var a twistPoint
	a.Set(t)
	a.MakeAffine()
	var lhs, rhs gfP2
	lhs.Square(&a.y)
	rhs.Square(&a.x)
	rhs.Mul(&rhs, &a.x)
	rhs.Add(&rhs, &twistB)
	return lhs.Equal(&rhs)
}

// MakeAffine normalizes t to Z = 1 (or canonical infinity) and returns t.
func (t *twistPoint) MakeAffine() *twistPoint {
	if t.z.IsOne() {
		return t
	}
	if t.IsInfinity() {
		return t.SetInfinity()
	}
	var zInv, zInv2, zInv3 gfP2
	zInv.Invert(&t.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	t.x.Mul(&t.x, &zInv2)
	t.y.Mul(&t.y, &zInv3)
	t.z.SetOne()
	return t
}

// batchMakeAffineTwist does MakeAffine on every point of ps with one
// field inversion for the whole batch: 1/Z = conj(Z)/N(Z), and the
// norms N(Z) in Fp go through batchInvert. Points at infinity are left
// as they are.
func batchMakeAffineTwist(ps []*twistPoint) {
	norms := make([]gfP, len(ps))
	invs := make([]*gfP, 0, len(ps))
	for i, t := range ps {
		if !t.IsInfinity() {
			var a1 gfP
			norms[i].Square(&t.z.a0)
			a1.Square(&t.z.a1)
			norms[i].Add(&norms[i], &a1)
			invs = append(invs, &norms[i])
		}
	}
	batchInvert(invs)
	for i, t := range ps {
		if t.IsInfinity() {
			continue
		}
		var zInv, zInv2 gfP2
		zInv.Conjugate(&t.z)
		zInv.MulScalar(&zInv, &norms[i])
		zInv2.Square(&zInv)
		t.x.Mul(&t.x, &zInv2)
		t.y.Mul(&t.y, &zInv2)
		t.y.Mul(&t.y, &zInv)
		t.z.SetOne()
	}
}

// Double sets t = 2a and returns t.
func (t *twistPoint) Double(a *twistPoint) *twistPoint {
	if a.IsInfinity() {
		return t.SetInfinity()
	}
	var A, B, C, D, E, F, tt gfP2
	A.Square(&a.x)
	B.Square(&a.y)
	C.Square(&B)

	D.Add(&a.x, &B)
	D.Square(&D)
	D.Sub(&D, &A)
	D.Sub(&D, &C)
	D.Double(&D)

	E.Double(&A)
	E.Add(&E, &A)
	F.Square(&E)

	var x3, y3, z3 gfP2
	x3.Double(&D)
	x3.Sub(&F, &x3)

	tt.Sub(&D, &x3)
	y3.Mul(&E, &tt)
	tt.Double(&C)
	tt.Double(&tt)
	tt.Double(&tt)
	y3.Sub(&y3, &tt)

	z3.Mul(&a.y, &a.z)
	z3.Double(&z3)

	t.x.Set(&x3)
	t.y.Set(&y3)
	t.z.Set(&z3)
	return t
}

// Add sets t = a + b and returns t.
func (t *twistPoint) Add(a, b *twistPoint) *twistPoint {
	if a.IsInfinity() {
		return t.Set(b)
	}
	if b.IsInfinity() {
		return t.Set(a)
	}
	var z1z1, z2z2, u1, u2, s1, s2 gfP2
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)
	u1.Mul(&a.x, &z2z2)
	u2.Mul(&b.x, &z1z1)
	s1.Mul(&a.y, &b.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)

	var h, r gfP2
	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)
	if h.IsZero() {
		if r.IsZero() {
			return t.Double(a)
		}
		return t.SetInfinity()
	}
	r.Double(&r)

	var i, j, v gfP2
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	v.Mul(&u1, &i)

	var x3, y3, z3, tt gfP2
	x3.Square(&r)
	x3.Sub(&x3, &j)
	tt.Double(&v)
	x3.Sub(&x3, &tt)

	tt.Sub(&v, &x3)
	y3.Mul(&r, &tt)
	tt.Mul(&s1, &j)
	tt.Double(&tt)
	y3.Sub(&y3, &tt)

	z3.Add(&a.z, &b.z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	t.x.Set(&x3)
	t.y.Set(&y3)
	t.z.Set(&z3)
	return t
}

// Neg sets t = -a and returns t.
func (t *twistPoint) Neg(a *twistPoint) *twistPoint {
	t.x.Set(&a.x)
	t.y.Neg(&a.y)
	t.z.Set(&a.z)
	return t
}

// Frobenius sets t to the p-power Frobenius of a carried through the
// twist (untwist, raise to p, twist back): with omega^(p-1) =
// xi^((p-1)/6), (x, y) maps to (conj(x) omega^(2(p-1)), conj(y)
// omega^(3(p-1))). Conjugating Z keeps the map valid in Jacobian form.
func (t *twistPoint) Frobenius(a *twistPoint) *twistPoint {
	t.x.Conjugate(&a.x)
	t.x.Mul(&t.x, &frob1Consts[2])
	t.y.Conjugate(&a.y)
	t.y.Mul(&t.y, &frob1Consts[3])
	t.z.Conjugate(&a.z)
	return t
}

// inG2 reports whether t lies in the order-r subgroup, by the BN-curve
// G2 test of Dai, Lin, Zhao and Zhou (ePrint 2022/348):
//
//	[u+1]t + psi([u]t) + psi^2([u]t) == psi^3([2u]t)
//
// with psi the twisted Frobenius. On G2, psi acts as p = 6u^2 mod r,
// and (u+1) + u*6u^2 + u*(6u^2)^2 - 2u*(6u^2)^3 == 0 mod r, so every
// point of G2 passes; the paper shows no other twist point does
// (TestSubgroupCheckMatchesOrder pins it against [r]t == 0, also on
// points with a component of order 10069, the cofactor's one small
// prime factor). Its one scalar multiplication walks the 63-bit u,
// where psi(t) == [6u^2]t walked 127 bits; the rest is three
// additions, a doubling and five Frobenius maps.
func (t *twistPoint) inG2() bool {
	var ut, lhs, rhs twistPoint
	ut.mulWNAF(t, uWNAF, uWNAFWidth)
	lhs.Frobenius(&ut)
	lhs.Add(&lhs, &ut)  // [u]t + psi([u]t)
	lhs.Frobenius(&lhs) // psi([u]t) + psi^2([u]t)
	lhs.Add(&lhs, &ut)
	lhs.Add(&lhs, t)
	rhs.Double(&ut)
	rhs.Frobenius(&rhs)
	rhs.Frobenius(&rhs)
	rhs.Frobenius(&rhs)
	return lhs.Equal(&rhs)
}

// Mul sets t = k*a for k >= 0 and returns t. It walks the width-5
// wNAF of k over the odd multiples a, 3a, ..., 15a, adding the negated
// entry for a negative digit. It is variable-time, so k must be public:
// cofactor clearing at init and tests. Secret scalars multiply the
// generator through the constant-time comb of ScalarBaseMult (comb.go).
func (t *twistPoint) Mul(a *twistPoint, k *big.Int) *twistPoint {
	return t.mulWNAF(a, wnaf(k, scalarWNAFWidth), scalarWNAFWidth)
}

// mulWNAF sets t = k*a for the k whose width-w wNAF is digits (w at
// most scalarWNAFWidth) and returns t. The subgroup check passes u's
// digits, computed once at init.
func (t *twistPoint) mulWNAF(a *twistPoint, digits []int8, w uint) *twistPoint {
	var table [1 << (scalarWNAFWidth - 2)]twistPoint // table[i] = (2i+1)a
	var a2 twistPoint
	a2.Double(a)
	table[0].Set(a)
	for i := 1; i < 1<<(w-2); i++ {
		table[i].Add(&table[i-1], &a2)
	}
	var acc, neg twistPoint
	acc.SetInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc.Double(&acc)
		switch d := digits[i]; {
		case d > 0:
			acc.Add(&acc, &table[d/2])
		case d < 0:
			neg.Neg(&table[-d/2])
			acc.Add(&acc, &neg)
		}
	}
	return t.Set(&acc)
}

// Equal reports whether t and a represent the same point.
func (t *twistPoint) Equal(a *twistPoint) bool {
	if t.IsInfinity() || a.IsInfinity() {
		return t.IsInfinity() == a.IsInfinity()
	}
	var z1z1, z2z2, l, r gfP2
	z1z1.Square(&t.z)
	z2z2.Square(&a.z)
	l.Mul(&t.x, &z2z2)
	r.Mul(&a.x, &z1z1)
	if !l.Equal(&r) {
		return false
	}
	var z1c, z2c gfP2
	z1c.Mul(&z1z1, &t.z)
	z2c.Mul(&z2z2, &a.z)
	l.Mul(&t.y, &z2c)
	r.Mul(&a.y, &z1c)
	return l.Equal(&r)
}
