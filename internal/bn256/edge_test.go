package bn256

import (
	"math/big"
	"testing"
)

// Edge cases for the Montgomery arithmetic: values near 0 and p, where
// carry/borrow handling errors hide.
func TestGFpEdgeValues(t *testing.T) {
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(P, one)

	edges := []*big.Int{
		big.NewInt(0),
		one,
		big.NewInt(2),
		pm1,
		new(big.Int).Sub(P, big.NewInt(2)),
		new(big.Int).Rsh(P, 1), // ~p/2
	}
	for _, a := range edges {
		for _, b := range edges {
			fa, fb := gfPFromBig(a), gfPFromBig(b)

			var sum gfP
			sum.Add(fa, fb)
			want := new(big.Int).Add(a, b)
			want.Mod(want, P)
			if sum.BigInt().Cmp(want) != 0 {
				t.Fatalf("add edge case %v + %v", a, b)
			}

			var prod gfP
			prod.Mul(fa, fb)
			want.Mul(a, b)
			want.Mod(want, P)
			if prod.BigInt().Cmp(want) != 0 {
				t.Fatalf("mul edge case %v * %v", a, b)
			}

			var diff gfP
			diff.Sub(fa, fb)
			want.Sub(a, b)
			want.Mod(want, P)
			if diff.BigInt().Cmp(want) != 0 {
				t.Fatalf("sub edge case %v - %v", a, b)
			}
		}
	}

	// (p-1)^2 mod p == 1.
	fpm1 := gfPFromBig(pm1)
	var sq gfP
	sq.Square(fpm1)
	if !sq.Equal(&rOne) {
		t.Fatal("(p-1)^2 != 1")
	}

	// -0 == 0.
	var zero, negZero gfP
	negZero.Neg(&zero)
	if !negZero.IsZero() {
		t.Fatal("-0 != 0")
	}
}

func TestGFpDoubleNearP(t *testing.T) {
	// Doubling values above p/2 exercises the conditional subtraction.
	half := new(big.Int).Rsh(P, 1)
	for i := int64(0); i < 4; i++ {
		v := new(big.Int).Add(half, big.NewInt(i))
		f := gfPFromBig(v)
		var d gfP
		d.Double(f)
		want := new(big.Int).Lsh(v, 1)
		want.Mod(want, P)
		if d.BigInt().Cmp(want) != 0 {
			t.Fatalf("double edge case at p/2 + %d", i)
		}
	}
}

func TestCurvePointEqualAcrossRepresentations(t *testing.T) {
	// The same point in different Jacobian representations must compare
	// equal. 2P computed via Double (Jacobian z != 1) vs via affine
	// normalization.
	var p curvePoint
	p.Set(&curveGen)
	var d1 curvePoint
	d1.Double(&p)
	var d2 curvePoint
	d2.Set(&d1)
	d2.MakeAffine()
	if !d1.Equal(&d2) {
		t.Fatal("equality across Jacobian representations fails")
	}
	if d1.IsInfinity() {
		t.Fatal("2G is not infinity")
	}
}

func TestScalarMultZeroAndOne(t *testing.T) {
	var e G1
	e.ScalarBaseMult(big.NewInt(0))
	if !e.IsInfinity() {
		t.Fatal("0 * g != infinity")
	}
	var g G1
	g.ScalarBaseMult(big.NewInt(1))
	var e2 G1
	e2.ScalarMult(&g, big.NewInt(1))
	if !e2.Equal(&g) {
		t.Fatal("1 * g != g")
	}
	// Adding infinity to infinity.
	var inf1, inf2, sum G1
	inf1.SetInfinity()
	inf2.SetInfinity()
	sum.Add(&inf1, &inf2)
	if !sum.IsInfinity() {
		t.Fatal("infinity + infinity != infinity")
	}
}

func TestTwistGeneratorProperties(t *testing.T) {
	if !twistGen.isOnTwist() {
		t.Fatal("twist generator is off the twist")
	}
	var check twistPoint
	check.Mul(&twistGen, Order)
	if !check.IsInfinity() {
		t.Fatal("twist generator does not have order r")
	}
	// Not of small order: multiplying by small integers stays off
	// infinity.
	for k := int64(1); k <= 16; k++ {
		var e twistPoint
		e.Mul(&twistGen, big.NewInt(k))
		if e.IsInfinity() {
			t.Fatalf("twist generator has small order %d", k)
		}
	}
}

// TestPairingAgreesUnderPointAddition: e(Q, P1 + P2) = e(Q, P1) e(Q, P2),
// the homomorphism in the G1 argument through actual point addition
// rather than scalar arithmetic.
func TestPairingAgreesUnderPointAddition(t *testing.T) {
	k1, k2 := big.NewInt(11), big.NewInt(23)
	p1 := new(G1).ScalarBaseMult(k1)
	p2 := new(G1).ScalarBaseMult(k2)
	q := new(G2).ScalarBaseMult(big.NewInt(5))

	sum := new(G1).Add(p1, p2)
	lhs := Pair(q, sum)
	rhs := new(GT).Mul(Pair(q, p1), Pair(q, p2))
	if !lhs.Equal(rhs) {
		t.Fatal("pairing does not distribute over G1 addition")
	}
}

func TestGTUnmarshalRejectsBadLength(t *testing.T) {
	var e GT
	if err := e.Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short GT encoding accepted")
	}
	bad := make([]byte, 384)
	for i := range bad {
		bad[i] = 0xff
	}
	if err := e.Unmarshal(bad); err == nil {
		t.Fatal("unreduced GT coefficients accepted")
	}
}
