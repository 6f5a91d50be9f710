package bn256

import (
	"crypto/rand"
	"io"
	"math/big"
	"testing"
)

// Independent validation of the Jacobian group law: a textbook affine
// implementation over big.Int, sharing no code with the production
// formulas, must agree with curvePoint on random inputs.

type affinePoint struct {
	x, y *big.Int
	inf  bool
}

func affineFromCurvePoint(c *curvePoint) affinePoint {
	if c.IsInfinity() {
		return affinePoint{inf: true}
	}
	var a curvePoint
	a.Set(c)
	a.MakeAffine()
	return affinePoint{x: a.x.BigInt(), y: a.y.BigInt()}
}

func affineAdd(p, q affinePoint) affinePoint {
	if p.inf {
		return q
	}
	if q.inf {
		return p
	}
	if p.x.Cmp(q.x) == 0 {
		sum := new(big.Int).Add(p.y, q.y)
		sum.Mod(sum, P)
		if sum.Sign() == 0 {
			return affinePoint{inf: true}
		}
		// Doubling: lambda = 3x^2 / 2y.
		num := new(big.Int).Mul(p.x, p.x)
		num.Mul(num, big.NewInt(3))
		den := new(big.Int).Lsh(p.y, 1)
		den.ModInverse(den, P)
		lambda := num.Mul(num, den)
		lambda.Mod(lambda, P)
		return affineChord(p, p, lambda)
	}
	// Addition: lambda = (y2 - y1)/(x2 - x1).
	num := new(big.Int).Sub(q.y, p.y)
	den := new(big.Int).Sub(q.x, p.x)
	den.Mod(den, P)
	den.ModInverse(den, P)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, P)
	return affineChord(p, q, lambda)
}

func affineChord(p, q affinePoint, lambda *big.Int) affinePoint {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, p.x)
	x3.Sub(x3, q.x)
	x3.Mod(x3, P)
	y3 := new(big.Int).Sub(p.x, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, p.y)
	y3.Mod(y3, P)
	return affinePoint{x: x3, y: y3}
}

func (p affinePoint) equal(q affinePoint) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

func TestJacobianAgainstAffineReference(t *testing.T) {
	for i := 0; i < 30; i++ {
		ka, _ := rand.Int(rand.Reader, Order)
		kb, _ := rand.Int(rand.Reader, Order)
		var pa, pb, sum curvePoint
		pa.Mul(&curveGen, ka)
		pb.Mul(&curveGen, kb)
		sum.Add(&pa, &pb)

		ra := affineFromCurvePoint(&pa)
		rb := affineFromCurvePoint(&pb)
		want := affineAdd(ra, rb)
		got := affineFromCurvePoint(&sum)
		if !got.equal(want) {
			t.Fatalf("Jacobian addition disagrees with affine reference (iteration %d)", i)
		}

		var dbl curvePoint
		dbl.Double(&pa)
		wantDbl := affineAdd(ra, ra)
		gotDbl := affineFromCurvePoint(&dbl)
		if !gotDbl.equal(wantDbl) {
			t.Fatalf("Jacobian doubling disagrees with affine reference (iteration %d)", i)
		}
	}
}

// affineMul is the reference scalar multiplication: binary
// double-and-add on the affine big.Int group law.
func affineMul(p affinePoint, k *big.Int) affinePoint {
	acc := affinePoint{inf: true}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = affineAdd(acc, acc)
		if k.Bit(i) == 1 {
			acc = affineAdd(acc, p)
		}
	}
	return acc
}

// TestScalarMultAgainstAffineReference checks the wNAF scalar
// multiplication against the reference, on random scalars and on ones
// whose binary form is a long run of ones (every window carries).
func TestScalarMultAgainstAffineReference(t *testing.T) {
	one := big.NewInt(1)
	var ks []*big.Int
	for _, n := range []uint{5, 64, 127, 200, 253} {
		ks = append(ks, new(big.Int).Sub(new(big.Int).Lsh(one, n), one))
	}
	ks = append(ks, new(big.Int).Sub(Order, one), big.NewInt(0), one, big.NewInt(15), big.NewInt(17))
	for i := 0; i < 5; i++ {
		ks = append(ks, randScalar(t))
	}
	gen := affineFromCurvePoint(&curveGen)
	base := affineMul(gen, randScalar(t))
	var baseJ curvePoint
	baseJ.x, baseJ.y = *gfPFromBig(base.x), *gfPFromBig(base.y)
	baseJ.z.SetOne()
	for _, k := range ks {
		var got curvePoint
		got.Mul(&curveGen, k)
		if !affineFromCurvePoint(&got).equal(affineMul(gen, k)) {
			t.Fatalf("[k]G disagrees with the affine reference for k = %v", k)
		}
		got.Mul(&baseJ, k)
		if !affineFromCurvePoint(&got).equal(affineMul(base, k)) {
			t.Fatalf("[k]P disagrees with the affine reference for k = %v", k)
		}
	}
}

// TestScalarMultAgainstRepeatedAddition validates Mul against the
// definition for small scalars.
func TestScalarMultAgainstRepeatedAddition(t *testing.T) {
	var acc curvePoint
	acc.SetInfinity()
	for k := int64(1); k <= 25; k++ {
		acc.Add(&acc, &curveGen)
		var viaMul curvePoint
		viaMul.Mul(&curveGen, big.NewInt(k))
		if !acc.Equal(&viaMul) {
			t.Fatalf("k*G != G+...+G at k=%d", k)
		}
	}
}

// TestTwistScalarMultAgainstRepeatedAddition does the same on G2.
func TestTwistScalarMultAgainstRepeatedAddition(t *testing.T) {
	var acc twistPoint
	acc.SetInfinity()
	for k := int64(1); k <= 10; k++ {
		acc.Add(&acc, &twistGen)
		var viaMul twistPoint
		viaMul.Mul(&twistGen, big.NewInt(k))
		if !acc.Equal(&viaMul) {
			t.Fatalf("k*G2 != repeated addition at k=%d", k)
		}
	}
}

// Test-local references for code the package does not need: GT and
// Fp12 exponentiation by square-and-multiply, and random group
// elements with their discrete logs.

// Exp sets e = a^k and returns e.
func (e *GT) Exp(a *GT, k *big.Int) *GT {
	e.p.Exp(&a.p, norm(k))
	return e
}

// Exp sets e = a^k for a non-negative exponent k and returns e.
func (e *gfP12) Exp(a *gfP12, k *big.Int) *gfP12 {
	var acc gfP12
	acc.SetOne()
	base := *a
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if k.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return e.Set(&acc)
}

// RandomG1 returns k and g1^k where k is uniform in [1, Order-1].
func RandomG1(r io.Reader) (*big.Int, *G1, error) {
	k, err := randomK(r)
	if err != nil {
		return nil, nil, err
	}
	return k, new(G1).ScalarBaseMult(k), nil
}

// RandomG2 returns k and g2^k where k is uniform in [1, Order-1].
func RandomG2(r io.Reader) (*big.Int, *G2, error) {
	k, err := randomK(r)
	if err != nil {
		return nil, nil, err
	}
	return k, new(G2).ScalarBaseMult(k), nil
}

func randomK(r io.Reader) (*big.Int, error) {
	for {
		k, err := rand.Int(r, Order)
		if err != nil {
			return nil, err
		}
		if k.Sign() > 0 {
			return k, nil
		}
	}
}
