package bn256

import (
	"fmt"
	"math/big"
)

// gfP12 is an element c0 + c1*omega of Fp12 = Fp6[omega]/(omega^2 - tau).
type gfP12 struct {
	c0, c1 gfP6
}

// frob2Consts[k] = (xi^((p^2-1)/6))^k for k = 0..5, the coefficient
// constants of the p^2-power Frobenius on the omega^k basis.
var frob2Consts [6]gfP2

// frob1Consts[k] = (xi^((p-1)/6))^k for k = 0..5, the coefficient
// constants of the p-power Frobenius: w^p = xi^((p-1)/6) * w, and the
// Fp2 coefficients themselves are conjugated (i^p = -i for p = 3 mod 4).
var frob1Consts [6]gfP2

func initTower() {
	p2 := new(big.Int).Mul(P, P)
	exp := new(big.Int).Sub(p2, big.NewInt(1))
	exp.Div(exp, big.NewInt(6))
	var gamma gfP2
	gamma.Exp(&xi, exp)
	frob2Consts[0].SetOne()
	for k := 1; k < 6; k++ {
		frob2Consts[k].Mul(&frob2Consts[k-1], &gamma)
	}

	pm1 := new(big.Int).Sub(P, big.NewInt(1))
	if new(big.Int).Mod(pm1, big.NewInt(6)).Sign() != 0 {
		panic("bn256: p-1 not divisible by 6; p-power Frobenius constants undefined")
	}
	exp1 := new(big.Int).Div(pm1, big.NewInt(6))
	var gamma1 gfP2
	gamma1.Exp(&xi, exp1)
	frob1Consts[0].SetOne()
	for k := 1; k < 6; k++ {
		frob1Consts[k].Mul(&frob1Consts[k-1], &gamma1)
	}
}

func (e *gfP12) String() string {
	return fmt.Sprintf("(%v + %v omega)", &e.c0, &e.c1)
}

// Set sets e = a and returns e.
func (e *gfP12) Set(a *gfP12) *gfP12 {
	e.c0.Set(&a.c0)
	e.c1.Set(&a.c1)
	return e
}

// SetZero sets e = 0 and returns e.
func (e *gfP12) SetZero() *gfP12 {
	e.c0.SetZero()
	e.c1.SetZero()
	return e
}

// SetOne sets e = 1 and returns e.
func (e *gfP12) SetOne() *gfP12 {
	e.c0.SetOne()
	e.c1.SetZero()
	return e
}

// IsZero reports whether e == 0.
func (e *gfP12) IsZero() bool {
	return e.c0.IsZero() && e.c1.IsZero()
}

// IsOne reports whether e == 1.
func (e *gfP12) IsOne() bool {
	var one gfP6
	one.SetOne()
	return e.c0.Equal(&one) && e.c1.IsZero()
}

// Equal reports whether e == a.
func (e *gfP12) Equal(a *gfP12) bool {
	return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1)
}

// Conjugate sets e = c0 - c1*omega, the p^6-power Frobenius, and returns e.
func (e *gfP12) Conjugate(a *gfP12) *gfP12 {
	e.c0.Set(&a.c0)
	e.c1.Neg(&a.c1)
	return e
}

// Add sets e = a + b and returns e.
func (e *gfP12) Add(a, b *gfP12) *gfP12 {
	e.c0.Add(&a.c0, &b.c0)
	e.c1.Add(&a.c1, &b.c1)
	return e
}

// Sub sets e = a - b and returns e.
func (e *gfP12) Sub(a, b *gfP12) *gfP12 {
	e.c0.Sub(&a.c0, &b.c0)
	e.c1.Sub(&a.c1, &b.c1)
	return e
}

// Mul sets e = a*b and returns e; e may alias either. On amd64 CPUs
// with BMI2 and ADX it runs the assembly kernel gfp12Mul, elsewhere
// mulGeneric.
func (e *gfP12) Mul(a, b *gfP12) *gfP12 {
	if useADX {
		gfp12Mul(e, a, b)
		return e
	}
	return e.mulGeneric(a, b)
}

// mulGeneric is Mul in Go.
func (e *gfP12) mulGeneric(a, b *gfP12) *gfP12 {
	// Karatsuba: (c0 + c1 w)(d0 + d1 w) =
	//   c0 d0 + c1 d1 tau + ((c0+c1)(d0+d1) - c0 d0 - c1 d1) w
	var v0, v1, s, t gfP6
	v0.Mul(&a.c0, &b.c0)
	v1.Mul(&a.c1, &b.c1)
	s.Add(&a.c0, &a.c1)
	t.Add(&b.c0, &b.c1)
	s.Mul(&s, &t)
	s.Sub(&s, &v0)
	s.Sub(&s, &v1)
	var v1t gfP6
	v1t.MulTau(&v1)
	e.c0.Add(&v0, &v1t)
	e.c1.Set(&s)
	return e
}

// Square sets e = a^2 and returns e; e may alias a. On amd64 CPUs with
// BMI2 and ADX it runs the assembly kernel gfp12Square, elsewhere
// squareGeneric.
func (e *gfP12) Square(a *gfP12) *gfP12 {
	if useADX {
		gfp12Square(e, a)
		return e
	}
	return e.squareGeneric(a)
}

// squareGeneric is Square in Go.
func (e *gfP12) squareGeneric(a *gfP12) *gfP12 {
	// Complex squaring: with v = c0 c1,
	//   (c0 + c1 w)^2 = (c0 + c1)(c0 + tau c1) - v - tau v + 2 v w,
	// costing two Fp6 multiplications instead of the three of the
	// schoolbook c0^2 + tau c1^2 + 2 c0 c1 w.
	var v, t, s gfP6
	v.Mul(&a.c0, &a.c1)
	t.MulTau(&a.c1)
	t.Add(&a.c0, &t)
	s.Add(&a.c0, &a.c1)
	t.Mul(&s, &t)
	t.Sub(&t, &v)
	var vt gfP6
	vt.MulTau(&v)
	t.Sub(&t, &vt)
	e.c0.Set(&t)
	e.c1.Add(&v, &v)
	return e
}

// cyclotomicSquare sets e = a^2 for a in the cyclotomic subgroup of
// Fp12 (elements of order dividing p^4 - p^2 + 1, which is where the
// easy part of the final exponentiation lands). Granger-Scott squaring
// works on the Fp4 sub-doublets of the w-power basis (w^2 = tau,
// w^6 = xi): w^0 = c0.b0, w^1 = c1.b0, w^2 = c0.b1, w^3 = c1.b1,
// w^4 = c0.b2, w^5 = c1.b2. Nine Fp2 squarings replace the twelve Fp2
// multiplications of a general squaring. Results are undefined outside
// the cyclotomic subgroup. e may alias a. On amd64 CPUs with BMI2 and
// ADX it runs the assembly kernel gfp12CyclotomicSquare, elsewhere
// cyclotomicSquareGeneric.
func (e *gfP12) cyclotomicSquare(a *gfP12) *gfP12 {
	if useADX {
		gfp12CyclotomicSquare(e, a)
		return e
	}
	return e.cyclotomicSquareGeneric(a)
}

// cyclotomicSquareGeneric is cyclotomicSquare in Go.
func (e *gfP12) cyclotomicSquareGeneric(a *gfP12) *gfP12 {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 gfP2

	t0.Square(&a.c1.b1) // x4^2
	t1.Square(&a.c0.b0) // x0^2
	t6.Add(&a.c1.b1, &a.c0.b0)
	t6.Square(&t6)
	t6.Sub(&t6, &t0)
	t6.Sub(&t6, &t1) // 2 x4 x0

	t2.Square(&a.c0.b2) // x2^2
	t3.Square(&a.c1.b0) // x3^2
	t7.Add(&a.c0.b2, &a.c1.b0)
	t7.Square(&t7)
	t7.Sub(&t7, &t2)
	t7.Sub(&t7, &t3) // 2 x2 x3

	t4.Square(&a.c1.b2) // x5^2
	t5.Square(&a.c0.b1) // x1^2
	t8.Add(&a.c1.b2, &a.c0.b1)
	t8.Square(&t8)
	t8.Sub(&t8, &t4)
	t8.Sub(&t8, &t5)
	t8.MulXi(&t8) // 2 x5 x1 xi

	t0.MulXi(&t0)
	t0.Add(&t0, &t1) // xi x4^2 + x0^2
	t2.MulXi(&t2)
	t2.Add(&t2, &t3) // xi x2^2 + x3^2
	t4.MulXi(&t4)
	t4.Add(&t4, &t5) // xi x5^2 + x1^2

	var z gfP2
	z.Sub(&t0, &a.c0.b0)
	z.Double(&z)
	e.c0.b0.Add(&z, &t0)
	z.Sub(&t2, &a.c0.b1)
	z.Double(&z)
	e.c0.b1.Add(&z, &t2)
	z.Sub(&t4, &a.c0.b2)
	z.Double(&z)
	e.c0.b2.Add(&z, &t4)

	z.Add(&t8, &a.c1.b0)
	z.Double(&z)
	e.c1.b0.Add(&z, &t8)
	z.Add(&t6, &a.c1.b1)
	z.Double(&z)
	e.c1.b1.Add(&z, &t6)
	z.Add(&t7, &a.c1.b2)
	z.Double(&z)
	e.c1.b2.Add(&z, &t7)
	return e
}

// Invert sets e = a^-1 and returns e. Inverting zero yields zero.
func (e *gfP12) Invert(a *gfP12) *gfP12 {
	// 1/(c0 + c1 w) = (c0 - c1 w)/(c0^2 - c1^2 tau)
	var d, t gfP6
	d.Square(&a.c0)
	t.Square(&a.c1)
	t.MulTau(&t)
	d.Sub(&d, &t)
	d.Invert(&d)
	e.c0.Mul(&a.c0, &d)
	d.Neg(&d)
	e.c1.Mul(&a.c1, &d)
	return e
}

// Frobenius1 sets e = a^p and returns e. The p-power Frobenius
// conjugates each Fp2 coefficient and multiplies the w^k basis
// coefficient by frob1Consts[k].
func (e *gfP12) Frobenius1(a *gfP12) *gfP12 {
	// Basis exponents: c0.b0 -> w^0, c0.b1 -> w^2, c0.b2 -> w^4,
	// c1.b0 -> w^1, c1.b1 -> w^3, c1.b2 -> w^5.
	var t gfP2
	t.Conjugate(&a.c0.b0)
	e.c0.b0.Mul(&t, &frob1Consts[0])
	t.Conjugate(&a.c0.b1)
	e.c0.b1.Mul(&t, &frob1Consts[2])
	t.Conjugate(&a.c0.b2)
	e.c0.b2.Mul(&t, &frob1Consts[4])
	t.Conjugate(&a.c1.b0)
	e.c1.b0.Mul(&t, &frob1Consts[1])
	t.Conjugate(&a.c1.b1)
	e.c1.b1.Mul(&t, &frob1Consts[3])
	t.Conjugate(&a.c1.b2)
	e.c1.b2.Mul(&t, &frob1Consts[5])
	return e
}

// Frobenius2 sets e = a^(p^2) and returns e. The p^2-power Frobenius acts
// trivially on Fp2 coefficients and multiplies the omega^k basis
// coefficient by frob2Consts[k].
func (e *gfP12) Frobenius2(a *gfP12) *gfP12 {
	// Basis exponents: c0.b0 -> w^0, c0.b1 -> w^2, c0.b2 -> w^4,
	// c1.b0 -> w^1, c1.b1 -> w^3, c1.b2 -> w^5.
	e.c0.b0.Mul(&a.c0.b0, &frob2Consts[0])
	e.c0.b1.Mul(&a.c0.b1, &frob2Consts[2])
	e.c0.b2.Mul(&a.c0.b2, &frob2Consts[4])
	e.c1.b0.Mul(&a.c1.b0, &frob2Consts[1])
	e.c1.b1.Mul(&a.c1.b1, &frob2Consts[3])
	e.c1.b2.Mul(&a.c1.b2, &frob2Consts[5])
	return e
}

// mulSparse01 sets e = a * (s0 + s1 tau) and returns e. Karatsuba on
// the two low terms costs 5 Fp2 multiplications against 6 for a
// general gfP6 multiplication.
func (e *gfP6) mulSparse01(a *gfP6, s0, s1 *gfP2) *gfP6 {
	// (b0 + b1 tau + b2 tau^2)(s0 + s1 tau) =
	//   (b0 s0 + xi b2 s1) + (b0 s1 + b1 s0) tau + (b1 s1 + b2 s0) tau^2
	var t0, t1, cross, sum, u0, u1 gfP2
	t0.Mul(&a.b0, s0)
	t1.Mul(&a.b1, s1)
	cross.Add(&a.b0, &a.b1)
	sum.Add(s0, s1)
	cross.Mul(&cross, &sum)
	cross.Sub(&cross, &t0)
	cross.Sub(&cross, &t1)
	u0.Mul(&a.b2, s1)
	u0.MulXi(&u0)
	u1.Mul(&a.b2, s0)
	e.b0.Add(&t0, &u0)
	e.b1.Set(&cross)
	e.b2.Add(&t1, &u1)
	return e
}

// mulLine sets e = a * (1 + l1 omega + l3 omega^3) and returns e: the
// shape of every normalized ate line (see pairing.go), an Fp12 element
// whose c0 is one and whose c1 is l1 + l3 tau. e may alias a. On amd64
// CPUs with BMI2 and ADX it runs the assembly kernel gfp12MulLine,
// elsewhere mulLineGeneric.
func (e *gfP12) mulLine(a *gfP12, l1, l3 *gfP2) *gfP12 {
	if useADX {
		gfp12MulLine(e, a, l1, l3)
		return e
	}
	return e.mulLineGeneric(a, l1, l3)
}

// mulLineGeneric is mulLine in Go. Two sparse gfP6 products, 10 Fp2
// multiplications, replace the 18 of a general Mul.
func (e *gfP12) mulLineGeneric(a *gfP12, l1, l3 *gfP2) *gfP12 {
	// (c0 + c1 w)(1 + L w) = (c0 + tau c1 L) + (c0 L + c1) w
	var t0, t1 gfP6
	t0.mulSparse01(&a.c0, l1, l3)
	t1.mulSparse01(&a.c1, l1, l3)
	t1.MulTau(&t1)
	e.c1.Add(&t0, &a.c1)
	e.c0.Add(&a.c0, &t1)
	return e
}
