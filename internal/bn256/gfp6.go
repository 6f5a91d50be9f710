package bn256

import "fmt"

// gfP6 is an element b0 + b1*tau + b2*tau^2 of Fp6 = Fp2[tau]/(tau^3 - xi).
type gfP6 struct {
	b0, b1, b2 gfP2
}

func (e *gfP6) String() string {
	return fmt.Sprintf("(%v + %v tau + %v tau^2)", &e.b0, &e.b1, &e.b2)
}

// Set sets e = a and returns e.
func (e *gfP6) Set(a *gfP6) *gfP6 {
	e.b0.Set(&a.b0)
	e.b1.Set(&a.b1)
	e.b2.Set(&a.b2)
	return e
}

// SetZero sets e = 0 and returns e.
func (e *gfP6) SetZero() *gfP6 {
	e.b0.SetZero()
	e.b1.SetZero()
	e.b2.SetZero()
	return e
}

// SetOne sets e = 1 and returns e.
func (e *gfP6) SetOne() *gfP6 {
	e.b0.SetOne()
	e.b1.SetZero()
	e.b2.SetZero()
	return e
}

// IsZero reports whether e == 0.
func (e *gfP6) IsZero() bool {
	return e.b0.IsZero() && e.b1.IsZero() && e.b2.IsZero()
}

// Equal reports whether e == a.
func (e *gfP6) Equal(a *gfP6) bool {
	return e.b0.Equal(&a.b0) && e.b1.Equal(&a.b1) && e.b2.Equal(&a.b2)
}

// Add sets e = a + b and returns e.
func (e *gfP6) Add(a, b *gfP6) *gfP6 {
	e.b0.Add(&a.b0, &b.b0)
	e.b1.Add(&a.b1, &b.b1)
	e.b2.Add(&a.b2, &b.b2)
	return e
}

// Sub sets e = a - b and returns e.
func (e *gfP6) Sub(a, b *gfP6) *gfP6 {
	e.b0.Sub(&a.b0, &b.b0)
	e.b1.Sub(&a.b1, &b.b1)
	e.b2.Sub(&a.b2, &b.b2)
	return e
}

// Neg sets e = -a and returns e.
func (e *gfP6) Neg(a *gfP6) *gfP6 {
	e.b0.Neg(&a.b0)
	e.b1.Neg(&a.b1)
	e.b2.Neg(&a.b2)
	return e
}

// Mul sets e = a*b and returns e; e may alias either. On amd64 CPUs
// with BMI2 and ADX it runs the assembly kernel gfp6Mul, elsewhere
// mulGeneric.
func (e *gfP6) Mul(a, b *gfP6) *gfP6 {
	if useADX {
		gfp6Mul(e, a, b)
		return e
	}
	return e.mulGeneric(a, b)
}

// mulGeneric is Mul in Go, by interleaved Karatsuba.
func (e *gfP6) mulGeneric(a, b *gfP6) *gfP6 {
	var t0, t1, t2, s0, s1, s2 gfP2
	t0.Mul(&a.b0, &b.b0)
	t1.Mul(&a.b1, &b.b1)
	t2.Mul(&a.b2, &b.b2)

	// c0 = t0 + xi*((a1+a2)(b1+b2) - t1 - t2)
	s0.Add(&a.b1, &a.b2)
	s1.Add(&b.b1, &b.b2)
	s0.Mul(&s0, &s1)
	s0.Sub(&s0, &t1)
	s0.Sub(&s0, &t2)
	s0.MulXi(&s0)
	s0.Add(&s0, &t0)

	// c1 = (a0+a1)(b0+b1) - t0 - t1 + xi*t2
	s1.Add(&a.b0, &a.b1)
	s2.Add(&b.b0, &b.b1)
	s1.Mul(&s1, &s2)
	s1.Sub(&s1, &t0)
	s1.Sub(&s1, &t1)
	var x2 gfP2
	x2.MulXi(&t2)
	s1.Add(&s1, &x2)

	// c2 = (a0+a2)(b0+b2) - t0 - t2 + t1
	s2.Add(&a.b0, &a.b2)
	var s3 gfP2
	s3.Add(&b.b0, &b.b2)
	s2.Mul(&s2, &s3)
	s2.Sub(&s2, &t0)
	s2.Sub(&s2, &t2)
	s2.Add(&s2, &t1)

	e.b0.Set(&s0)
	e.b1.Set(&s1)
	e.b2.Set(&s2)
	return e
}

// MulScalar sets e = a*s for an Fp2 scalar s and returns e.
func (e *gfP6) MulScalar(a *gfP6, s *gfP2) *gfP6 {
	e.b0.Mul(&a.b0, s)
	e.b1.Mul(&a.b1, s)
	e.b2.Mul(&a.b2, s)
	return e
}

// MulTau sets e = a*tau and returns e, using tau^3 = xi.
func (e *gfP6) MulTau(a *gfP6) *gfP6 {
	var t gfP2
	t.MulXi(&a.b2)
	b1 := a.b0
	b2 := a.b1
	e.b0.Set(&t)
	e.b1.Set(&b1)
	e.b2.Set(&b2)
	return e
}

// Square sets e = a^2 and returns e.
func (e *gfP6) Square(a *gfP6) *gfP6 {
	return e.Mul(a, a)
}

// Invert sets e = a^-1 and returns e. Inverting zero yields zero.
func (e *gfP6) Invert(a *gfP6) *gfP6 {
	// Using the standard cubic-extension inversion:
	//   A = b0^2 - xi b1 b2
	//   B = xi b2^2 - b0 b1
	//   C = b1^2 - b0 b2
	//   F = b0 A + xi b2 B + xi b1 C
	//   a^-1 = (A + B tau + C tau^2)/F
	var A, B, C, F, t gfP2

	A.Square(&a.b0)
	t.Mul(&a.b1, &a.b2)
	t.MulXi(&t)
	A.Sub(&A, &t)

	B.Square(&a.b2)
	B.MulXi(&B)
	t.Mul(&a.b0, &a.b1)
	B.Sub(&B, &t)

	C.Square(&a.b1)
	t.Mul(&a.b0, &a.b2)
	C.Sub(&C, &t)

	F.Mul(&a.b0, &A)
	t.Mul(&a.b2, &B)
	t.MulXi(&t)
	F.Add(&F, &t)
	t.Mul(&a.b1, &C)
	t.MulXi(&t)
	F.Add(&F, &t)

	F.Invert(&F)
	e.b0.Mul(&A, &F)
	e.b1.Mul(&B, &F)
	e.b2.Mul(&C, &F)
	return e
}
