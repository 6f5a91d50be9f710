package bn256

import (
	"fmt"
	"math/big"
)

// gfP2 is an element a0 + a1*i of Fp2 = Fp(i) with i^2 = -1. This
// representation requires p = 3 mod 4, which is verified at init.
type gfP2 struct {
	a0, a1 gfP
}

var (
	// xi = 9 + i is the quadratic and cubic non-residue in Fp2 that
	// defines the tower Fp6 = Fp2[tau]/(tau^3 - xi); TestXiIsNonResidue
	// checks that it is neither a square nor a cube.
	xi gfP2
	// xiInv is xi^-1, used for the twist curve coefficient b' = 3/xi.
	xiInv gfP2
	// pPlus1Over4 is the Fp square-root exponent (p = 3 mod 4),
	// pMinus3Over4 the exponent of the inverse root, and inv2 is 1/2;
	// Sqrt runs on every G2 decode, so all three are fixed here.
	pPlus1Over4  *big.Int
	pMinus3Over4 *big.Int
	inv2         gfP
)

func initGFp2() {
	if new(big.Int).Mod(P, big.NewInt(4)).Int64() != 3 {
		panic("bn256: prime is not 3 mod 4; i^2 = -1 is not a tower base")
	}
	pPlus1Over4 = new(big.Int).Rsh(new(big.Int).Add(P, big.NewInt(1)), 2)
	pMinus3Over4 = new(big.Int).Sub(pPlus1Over4, big.NewInt(1))
	inv2.Invert(newGFp(2))
	xi = gfP2{a0: *newGFp(9), a1: *newGFp(1)}
	xiInv.Invert(&xi)
}

func newGFp2One() *gfP2 {
	e := &gfP2{}
	e.a0.SetOne()
	return e
}

func (e *gfP2) String() string {
	return fmt.Sprintf("(%v, %v)", &e.a0, &e.a1)
}

// Set sets e = a and returns e.
func (e *gfP2) Set(a *gfP2) *gfP2 {
	e.a0.Set(&a.a0)
	e.a1.Set(&a.a1)
	return e
}

// SetZero sets e = 0 and returns e.
func (e *gfP2) SetZero() *gfP2 {
	e.a0.SetZero()
	e.a1.SetZero()
	return e
}

// SetOne sets e = 1 and returns e.
func (e *gfP2) SetOne() *gfP2 {
	e.a0.SetOne()
	e.a1.SetZero()
	return e
}

// IsZero reports whether e == 0.
func (e *gfP2) IsZero() bool {
	return e.a0.IsZero() && e.a1.IsZero()
}

// IsOne reports whether e == 1.
func (e *gfP2) IsOne() bool {
	return e.a0.Equal(&rOne) && e.a1.IsZero()
}

// Equal reports whether e == a.
func (e *gfP2) Equal(a *gfP2) bool {
	return e.a0.Equal(&a.a0) && e.a1.Equal(&a.a1)
}

// Conjugate sets e = a0 - a1*i and returns e.
func (e *gfP2) Conjugate(a *gfP2) *gfP2 {
	e.a0.Set(&a.a0)
	e.a1.Neg(&a.a1)
	return e
}

// Add sets e = a + b and returns e.
func (e *gfP2) Add(a, b *gfP2) *gfP2 {
	e.a0.Add(&a.a0, &b.a0)
	e.a1.Add(&a.a1, &b.a1)
	return e
}

// Sub sets e = a - b and returns e.
func (e *gfP2) Sub(a, b *gfP2) *gfP2 {
	e.a0.Sub(&a.a0, &b.a0)
	e.a1.Sub(&a.a1, &b.a1)
	return e
}

// Neg sets e = -a and returns e.
func (e *gfP2) Neg(a *gfP2) *gfP2 {
	e.a0.Neg(&a.a0)
	e.a1.Neg(&a.a1)
	return e
}

// Double sets e = 2a and returns e.
func (e *gfP2) Double(a *gfP2) *gfP2 {
	e.a0.Double(&a.a0)
	e.a1.Double(&a.a1)
	return e
}

// sgn0 is the RFC 9380 sign of e: the parity of its first non-zero
// canonical coordinate, so e and -e differ in sign unless e is zero.
func (e *gfP2) sgn0() bool {
	var a0, a1 gfP
	a0.montDecode(&e.a0)
	a1.montDecode(&e.a1)
	return a0[0]&1 == 1 || (a0.IsZero() && a1[0]&1 == 1)
}

// Mul sets e = a*b for reduced a and b and returns e; e may alias
// either. On amd64 CPUs with BMI2 and ADX it runs the assembly kernel
// gfp2Mul, elsewhere mulGeneric.
func (e *gfP2) Mul(a, b *gfP2) *gfP2 {
	if useADX {
		gfp2Mul(e, a, b)
		return e
	}
	return e.mulGeneric(a, b)
}

// mulGeneric is Mul in Go, by Karatsuba multiplication. It calls the
// Go base-field product, so it stays all Go on every CPU.
func (e *gfP2) mulGeneric(a, b *gfP2) *gfP2 {
	// (a0 + a1 i)(b0 + b1 i) = (a0b0 - a1b1) + ((a0+a1)(b0+b1) - a0b0 - a1b1) i
	// The operand sums stay unreduced: each is below 2p, which gfP.Mul
	// accepts and reduces.
	var v0, v1, s, t gfP
	v0.mulGeneric(&a.a0, &b.a0)
	v1.mulGeneric(&a.a1, &b.a1)
	s.addNR(&a.a0, &a.a1)
	t.addNR(&b.a0, &b.a1)
	s.mulGeneric(&s, &t)
	s.Sub(&s, &v0)
	s.Sub(&s, &v1)
	e.a0.Sub(&v0, &v1)
	e.a1.Set(&s)
	return e
}

// MulScalar sets e = a * s for a base-field scalar s and returns e.
func (e *gfP2) MulScalar(a *gfP2, s *gfP) *gfP2 {
	e.a0.Mul(&a.a0, s)
	e.a1.Mul(&a.a1, s)
	return e
}

// Square sets e = a^2 for reduced a and returns e; e may alias a. On
// amd64 CPUs with BMI2 and ADX it runs the assembly kernel gfp2Square,
// elsewhere squareGeneric.
func (e *gfP2) Square(a *gfP2) *gfP2 {
	if useADX {
		gfp2Square(e, a)
		return e
	}
	return e.squareGeneric(a)
}

// squareGeneric is Square in Go, on the Go base-field product.
func (e *gfP2) squareGeneric(a *gfP2) *gfP2 {
	// (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i
	var s, d, m gfP
	s.Add(&a.a0, &a.a1)
	d.Sub(&a.a0, &a.a1)
	m.mulGeneric(&a.a0, &a.a1)
	e.a0.mulGeneric(&s, &d)
	e.a1.Double(&m)
	return e
}

// MulXi sets e = a * xi for reduced a and returns e; e may alias a.
// With xi = 9 + i the product is (9 a0 - a1) + (a0 + 9 a1) i, and
// 9x = 8x + x is three doublings and an addition, so MulXi costs no
// multiplication. On amd64 CPUs with BMI2 and ADX the tower kernels
// that were its hot callers scale by xi in assembly themselves.
func (e *gfP2) MulXi(a *gfP2) *gfP2 {
	var n0, n1 gfP
	n0.Double(&a.a0)
	n0.Double(&n0)
	n0.Double(&n0)
	n0.Add(&n0, &a.a0)
	n1.Double(&a.a1)
	n1.Double(&n1)
	n1.Double(&n1)
	n1.Add(&n1, &a.a1)
	n0.Sub(&n0, &a.a1)
	e.a1.Add(&a.a0, &n1)
	e.a0 = n0
	return e
}

// Invert sets e = a^-1 and returns e. Inverting zero yields zero.
func (e *gfP2) Invert(a *gfP2) *gfP2 {
	// 1/(a0 + a1 i) = (a0 - a1 i) / (a0^2 + a1^2)
	var n, t0, t1 gfP
	t0.Square(&a.a0)
	t1.Square(&a.a1)
	n.Add(&t0, &t1)
	n.Invert(&n)
	e.a0.Mul(&a.a0, &n)
	n.Neg(&n)
	e.a1.Mul(&a.a1, &n)
	return e
}

// Exp sets e = a^k for a non-negative exponent k and returns e.
func (e *gfP2) Exp(a *gfP2, k *big.Int) *gfP2 {
	acc := *newGFp2One()
	base := *a
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if k.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return e.Set(&acc)
}

// Sqrt sets e to a square root of a and reports whether a is a quadratic
// residue in Fp2. Uses the complex method, valid for p = 3 mod 4.
func (e *gfP2) Sqrt(a *gfP2) bool {
	if a.IsZero() {
		e.SetZero()
		return true
	}
	var check gfP
	if a.a1.IsZero() {
		// a is in Fp, and so is one of a0 and -a0 (-1 is a non-residue):
		// the root is sqrt(a0) or i sqrt(-a0). The loop below would need
		// x0 != 0 and finds only the first.
		var r gfP
		if r.Exp(&a.a0, pPlus1Over4); check.Square(&r).Equal(&a.a0) {
			e.a0, e.a1 = r, gfP{}
			return true
		}
		r.Neg(&a.a0)
		r.Exp(&r, pPlus1Over4)
		e.a0, e.a1 = gfP{}, r
		return true
	}
	// lambda = sqrt(norm(a)) in Fp.
	var norm, t gfP
	norm.Square(&a.a0)
	t.Square(&a.a1)
	norm.Add(&norm, &t)
	var lambda gfP
	lambda.Exp(&norm, pPlus1Over4)
	if check.Square(&lambda); !check.Equal(&norm) {
		return false
	}
	for attempt := 0; attempt < 2; attempt++ {
		// delta = (a0 + lambda)/2, then x0 = sqrt(delta), x1 = a1/(2 x0).
		// One exponentiation gives both roots: with s =
		// delta^((p-3)/4), x0 = s delta = delta^((p+1)/4), and s x0 =
		// delta^((p-1)/2) = 1 once x0^2 == delta != 0, so 1/x0 = s.
		var delta gfP
		delta.Add(&a.a0, &lambda)
		delta.Mul(&delta, &inv2)
		var s, x0 gfP
		s.Exp(&delta, pMinus3Over4)
		x0.Mul(&s, &delta)
		var sq gfP
		if sq.Square(&x0); sq.Equal(&delta) && !x0.IsZero() {
			var x1 gfP
			x1.Mul(&a.a1, &s)
			x1.Mul(&x1, &inv2)
			var cand gfP2
			cand.a0 = x0
			cand.a1 = x1
			var candSq gfP2
			if candSq.Square(&cand); candSq.Equal(a) {
				e.Set(&cand)
				return true
			}
		}
		lambda.Neg(&lambda)
	}
	return false
}
