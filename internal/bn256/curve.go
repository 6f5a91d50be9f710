package bn256

// curvePoint is a point on E: y^2 = x^3 + 3 over Fp in Jacobian
// coordinates (X, Y, Z) representing the affine point (X/Z^2, Y/Z^3).
// The point at infinity has Z = 0.
type curvePoint struct {
	x, y, z gfP
}

// curveB is the curve coefficient b = 3 in Montgomery form.
var curveB gfP

// curveGen is the generator (1, 2) of G1.
var curveGen curvePoint

func initCurve() {
	curveB = *newGFp(3)
	curveGen = curvePoint{
		x: *newGFp(1),
		y: *newGFp(2),
		z: *newGFp(1),
	}
	if !curveGen.isOnCurve() {
		panic("bn256: G1 generator is not on the curve")
	}
}

// Set sets c = a and returns c.
func (c *curvePoint) Set(a *curvePoint) *curvePoint {
	c.x.Set(&a.x)
	c.y.Set(&a.y)
	c.z.Set(&a.z)
	return c
}

// SetInfinity sets c to the point at infinity.
func (c *curvePoint) SetInfinity() *curvePoint {
	c.x.SetOne()
	c.y.SetOne()
	c.z.SetZero()
	return c
}

// IsInfinity reports whether c is the point at infinity.
func (c *curvePoint) IsInfinity() bool {
	return c.z.IsZero()
}

// isOnCurve reports whether the affine form of c satisfies y^2 = x^3 + 3.
func (c *curvePoint) isOnCurve() bool {
	if c.IsInfinity() {
		return true
	}
	var a curvePoint
	a.Set(c)
	a.MakeAffine()
	var lhs, rhs gfP
	lhs.Square(&a.y)
	rhs.Square(&a.x)
	rhs.Mul(&rhs, &a.x)
	rhs.Add(&rhs, &curveB)
	return lhs.Equal(&rhs)
}

// MakeAffine normalizes c to Z = 1 (or the canonical infinity encoding)
// and returns c.
func (c *curvePoint) MakeAffine() *curvePoint {
	if c.z.Equal(&rOne) {
		return c
	}
	if c.IsInfinity() {
		return c.SetInfinity()
	}
	var zInv, zInv2, zInv3 gfP
	zInv.Invert(&c.z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	c.x.Mul(&c.x, &zInv2)
	c.y.Mul(&c.y, &zInv3)
	c.z.SetOne()
	return c
}

// batchMakeAffine does MakeAffine on every point of ps with one field
// inversion for the whole batch (batchInvert). Points at infinity are
// left as they are.
func batchMakeAffine(ps []*curvePoint) {
	zs := make([]*gfP, 0, len(ps))
	for _, c := range ps {
		if !c.IsInfinity() {
			zs = append(zs, &c.z)
		}
	}
	batchInvert(zs)
	for _, c := range ps {
		if c.IsInfinity() {
			continue
		}
		var zInv2 gfP // c.z now holds 1/Z
		zInv2.Square(&c.z)
		c.x.Mul(&c.x, &zInv2)
		c.y.Mul(&c.y, &zInv2)
		c.y.Mul(&c.y, &c.z)
		c.z.SetOne()
	}
}

// Double sets c = 2a and returns c.
func (c *curvePoint) Double(a *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.SetInfinity()
	}
	// dbl-2009-l formulas for a = 0 curves.
	var A, B, C, D, E, F, t gfP
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

	var x3, y3, z3 gfP
	x3.Double(&D)
	x3.Sub(&F, &x3)

	t.Sub(&D, &x3)
	y3.Mul(&E, &t)
	t.Double(&C)
	t.Double(&t)
	t.Double(&t)
	y3.Sub(&y3, &t)

	z3.Mul(&a.y, &a.z)
	z3.Double(&z3)

	c.x.Set(&x3)
	c.y.Set(&y3)
	c.z.Set(&z3)
	return c
}

// Add sets c = a + b and returns c.
func (c *curvePoint) Add(a, b *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.Set(b)
	}
	if b.IsInfinity() {
		return c.Set(a)
	}
	// add-2007-bl Jacobian addition.
	var z1z1, z2z2, u1, u2, s1, s2 gfP
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)
	u1.Mul(&a.x, &z2z2)
	u2.Mul(&b.x, &z1z1)
	s1.Mul(&a.y, &b.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)

	var h, r gfP
	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)
	if h.IsZero() {
		if r.IsZero() {
			return c.Double(a)
		}
		return c.SetInfinity()
	}
	r.Double(&r)

	var i, j, v gfP
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	v.Mul(&u1, &i)

	var x3, y3, z3, t gfP
	x3.Square(&r)
	x3.Sub(&x3, &j)
	t.Double(&v)
	x3.Sub(&x3, &t)

	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)

	z3.Add(&a.z, &b.z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	c.x.Set(&x3)
	c.y.Set(&y3)
	c.z.Set(&z3)
	return c
}

// Neg sets c = -a and returns c.
func (c *curvePoint) Neg(a *curvePoint) *curvePoint {
	c.x.Set(&a.x)
	c.y.Neg(&a.y)
	c.z.Set(&a.z)
	return c
}

// Equal reports whether c and a represent the same point.
func (c *curvePoint) Equal(a *curvePoint) bool {
	if c.IsInfinity() || a.IsInfinity() {
		return c.IsInfinity() == a.IsInfinity()
	}
	// Cross-multiply to avoid affine conversion:
	// x1/z1^2 == x2/z2^2 and y1/z1^3 == y2/z2^3.
	var z1z1, z2z2, l, r gfP
	z1z1.Square(&c.z)
	z2z2.Square(&a.z)
	l.Mul(&c.x, &z2z2)
	r.Mul(&a.x, &z1z1)
	if !l.Equal(&r) {
		return false
	}
	var z1z1z1, z2z2z2 gfP
	z1z1z1.Mul(&z1z1, &c.z)
	z2z2z2.Mul(&z2z2, &a.z)
	l.Mul(&c.y, &z2z2z2)
	r.Mul(&a.y, &z1z1z1)
	return l.Equal(&r)
}
