package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func randScalar(t *testing.T) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, Order)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestG1GroupLaws(t *testing.T) {
	a, b := randScalar(t), randScalar(t)
	pa := new(G1).ScalarBaseMult(a)
	pb := new(G1).ScalarBaseMult(b)

	// g^a + g^b == g^(a+b)
	sum := new(G1).Add(pa, pb)
	ab := new(big.Int).Add(a, b)
	want := new(G1).ScalarBaseMult(ab)
	if !sum.Equal(want) {
		t.Fatal("G1 addition is not compatible with scalar multiplication")
	}

	// Commutativity.
	sum2 := new(G1).Add(pb, pa)
	if !sum.Equal(sum2) {
		t.Fatal("G1 addition is not commutative")
	}

	// P + (-P) == infinity.
	neg := new(G1).Neg(pa)
	id := new(G1).Add(pa, neg)
	if !id.IsInfinity() {
		t.Fatal("P + (-P) != infinity")
	}

	// P + infinity == P.
	inf := new(G1).SetInfinity()
	same := new(G1).Add(pa, inf)
	if !same.Equal(pa) {
		t.Fatal("P + infinity != P")
	}

	// Doubling consistency: P + P == 2P.
	dbl := new(G1).Add(pa, pa)
	twice := new(G1).ScalarMult(pa, big.NewInt(2))
	if !dbl.Equal(twice) {
		t.Fatal("P + P != 2P")
	}
}

func TestG2GroupLaws(t *testing.T) {
	a, b := randScalar(t), randScalar(t)
	pa := new(G2).ScalarBaseMult(a)
	pb := new(G2).ScalarBaseMult(b)

	sum := new(G2).Add(pa, pb)
	ab := new(big.Int).Add(a, b)
	want := new(G2).ScalarBaseMult(ab)
	if !sum.Equal(want) {
		t.Fatal("G2 addition is not compatible with scalar multiplication")
	}

	neg := new(G2).Neg(pa)
	id := new(G2).Add(pa, neg)
	if !id.IsInfinity() {
		t.Fatal("Q + (-Q) != infinity")
	}

	dbl := new(G2).Add(pa, pa)
	twice := new(G2).ScalarMult(pa, big.NewInt(2))
	if !dbl.Equal(twice) {
		t.Fatal("Q + Q != 2Q")
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		_, p, err := RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var q G1
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G1 marshal round trip failed")
		}
	}
	// Infinity round trip.
	inf := new(G1).SetInfinity()
	var q G1
	if err := q.Unmarshal(inf.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !q.IsInfinity() {
		t.Fatal("G1 infinity round trip failed")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	for i := 0; i < 5; i++ {
		_, p, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var q G2
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G2 marshal round trip failed")
		}
	}
	inf := new(G2).SetInfinity()
	var q G2
	if err := q.Unmarshal(inf.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !q.IsInfinity() {
		t.Fatal("G2 infinity round trip failed")
	}
}

func TestG1UnmarshalRejectsOffCurve(t *testing.T) {
	_, p, err := RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Marshal()
	data[63] ^= 1 // corrupt y
	var q G1
	if err := q.Unmarshal(data); err == nil {
		t.Fatal("accepted an off-curve G1 point")
	}
	if err := q.Unmarshal(data[:10]); err == nil {
		t.Fatal("accepted a truncated G1 encoding")
	}
}

func TestG2UnmarshalRejectsOffCurve(t *testing.T) {
	// An x with x^3 + b' not a square in Fp2 names no twist point.
	for n := int64(1); n < 100; n++ {
		var x, rhs, y gfP2
		x.a0 = *newGFp(n)
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &twistB)
		if y.Sqrt(&rhs) {
			continue
		}
		data := make([]byte, 64)
		x.a0.Marshal(data[:32])
		x.a1.Marshal(data[32:])
		var q G2
		if err := q.Unmarshal(data); err == nil {
			t.Fatal("accepted an x-coordinate off the twist")
		}
		if err := q.Unmarshal(data[:63]); err == nil {
			t.Fatal("accepted a truncated G2 encoding")
		}
		return
	}
	t.Fatal("no off-twist x-coordinate in scan range")
}

func TestG2UnmarshalRejectsWrongSubgroup(t *testing.T) {
	// Build a twist point outside the order-r subgroup: a point with
	// order dividing the cofactor. Multiply a random twist point by r;
	// if the result is not infinity it has cofactor order.
	for n := int64(1); n < 60; n++ {
		var x, rhs, y gfP2
		x.a0 = *newGFp(n)
		x.a1 = *newGFp(3)
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &twistB)
		if !y.Sqrt(&rhs) {
			continue
		}
		var pt twistPoint
		pt.x, pt.y = x, y
		pt.z.SetOne()
		var small twistPoint
		small.Mul(&pt, Order)
		if small.IsInfinity() {
			continue // the point happened to lie in G2
		}
		small.MakeAffine()
		var g2 G2
		g2.p.Set(&small)
		data := g2.Marshal()
		var q G2
		if err := q.Unmarshal(data); err == nil {
			t.Fatal("accepted a G2 point outside the order-r subgroup")
		}
		return
	}
	t.Skip("no cofactor-order point found in scan range")
}

// TestSubgroupCheckMatchesOrder pins the membership test G2.Unmarshal
// runs, [u+1]Q + psi([u]Q) + psi^2([u]Q) == psi^3([2u]Q), against the
// definition [r]Q == 0 and against the older relation psi(Q) ==
// [6u^2]Q. The points are random points of G2; random twist points
// whose cofactor was not cleared, and their r-multiples, which lie
// wholly in the cofactor part; points of order 10069, the cofactor's
// one small prime factor, where a short relation is likeliest to
// collapse; and G2 points plus such a component.
func TestSubgroupCheckMatchesOrder(t *testing.T) {
	// psi acts as lambda = 6u^2 on G2, where the relation's scalars cancel.
	lambda := func(e int64) *big.Int { return new(big.Int).Exp(sixUSquared, big.NewInt(e), Order) }
	sum := new(big.Int).Add(u, big.NewInt(1))
	sum.Add(sum, new(big.Int).Mul(u, lambda(1)))
	sum.Add(sum, new(big.Int).Mul(u, lambda(2)))
	sum.Sub(sum, new(big.Int).Mul(new(big.Int).Lsh(u, 1), lambda(3)))
	if sum.Mod(sum, Order).Sign() != 0 {
		t.Fatal("(u+1) + u*lambda + u*lambda^2 - 2u*lambda^3 != 0 mod r")
	}
	const small = 10069
	smallCof, rem := new(big.Int).DivMod(twistCofactor, big.NewInt(small), new(big.Int))
	if rem.Sign() != 0 {
		t.Fatalf("twist cofactor is not divisible by %d", small)
	}
	smallCof.Mul(smallCof, Order) // [r*h'/10069] maps the twist onto its order-10069 part

	randTwist := func() twistPoint {
		for {
			x := randGFp2(t)
			var rhs, y gfP2
			rhs.Square(x)
			rhs.Mul(&rhs, x)
			rhs.Add(&rhs, &twistB)
			if y.Sqrt(&rhs) {
				pt := twistPoint{x: *x, y: y}
				pt.z.SetOne()
				return pt
			}
		}
	}
	var pts, g2s []twistPoint
	for i := 0; i < 6; i++ {
		_, q, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		g2s = append(g2s, q.p)
	}
	pts = append(pts, g2s...)
	for i := 0; i < 6; i++ {
		pt := randTwist()
		var cof twistPoint
		cof.Mul(&pt, Order)
		pts = append(pts, pt, cof)
	}
	for i := 0; i < 6; {
		var s twistPoint
		pt := randTwist()
		if s.Mul(&pt, smallCof); s.IsInfinity() {
			continue
		}
		var mixed twistPoint
		mixed.Add(&g2s[i], &s)
		pts = append(pts, s, mixed)
		i++
	}
	var inf twistPoint
	inf.SetInfinity()
	pts = append(pts, inf)

	inG2 := 0
	for i := range pts {
		var rq, pi, m twistPoint
		rq.Mul(&pts[i], Order)
		pi.Frobenius(&pts[i])
		m.Mul(&pts[i], sixUSquared)
		got, want, old := pts[i].inG2(), rq.IsInfinity(), pi.Equal(&m)
		if got != want || old != want {
			t.Fatalf("point %d: membership test says %v, psi(Q) == [6u^2]Q says %v, [r]Q == 0 says %v", i, got, old, want)
		}
		if got {
			inG2++
		}
	}
	if inG2 != len(g2s)+1 {
		t.Fatalf("%d of %d points in G2, want the %d random G2 points and infinity", inG2, len(pts), len(g2s))
	}
}

func TestPairingWithInfinity(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	infG1 := new(G1).SetInfinity()
	infG2 := new(G2).SetInfinity()
	if !Pair(q, infG1).IsOne() {
		t.Fatal("e(Q, 0) != 1")
	}
	if !Pair(infG2, p).IsOne() {
		t.Fatal("e(0, P) != 1")
	}
}

func TestPairingLinearityInEachArgument(t *testing.T) {
	a, b := randScalar(t), randScalar(t)
	p := new(G1).ScalarBaseMult(a)
	q := new(G2).ScalarBaseMult(b)
	k := big.NewInt(7)

	// e(Q, kP) == e(kQ, P) == e(Q, P)^k
	kp := new(G1).ScalarMult(p, k)
	kq := new(G2).ScalarMult(q, k)
	base := Pair(q, p)
	want := new(GT).Exp(base, k)
	if !Pair(q, kp).Equal(want) {
		t.Fatal("e(Q, kP) != e(Q, P)^k")
	}
	if !Pair(kq, p).Equal(want) {
		t.Fatal("e(kQ, P) != e(Q, P)^k")
	}
}

func TestPairBatchEmpty(t *testing.T) {
	if !PairBatch(nil, nil).IsOne() {
		t.Fatal("empty batch should be the identity")
	}
}

func TestPairBatchWithInfinitySlots(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	inf1 := new(G1).SetInfinity()
	inf2 := new(G2).SetInfinity()
	got := PairBatch([]*G2{q, inf2, q}, []*G1{p, p, inf1})
	want := Pair(q, p)
	if !got.Equal(want) {
		t.Fatal("infinity slots should contribute the identity")
	}
}

func TestNormHandlesNegativeScalars(t *testing.T) {
	k := big.NewInt(-3)
	p := new(G1).ScalarBaseMult(k)
	want := new(G1).ScalarBaseMult(new(big.Int).Sub(Order, big.NewInt(3)))
	if !p.Equal(want) {
		t.Fatal("negative scalar not normalized")
	}
}

// ScalarMult sets e = a^k with the variable-time wNAF, the reference
// the group-law tests multiply by. k must be public; production code
// multiplies secret scalars only through ScalarBaseMult.
func (e *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	e.p.Mul(&a.p, norm(k))
	return e
}

// ScalarMult sets e = a^k with the variable-time wNAF, as G1.ScalarMult.
func (e *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	e.p.Mul(&a.p, norm(k))
	return e
}

// Mul sets c = k*a for k >= 0 and returns c. It walks the width-5
// wNAF of k over the odd multiples a, 3a, ..., 15a, adding the negated
// entry for a negative digit. It is variable-time, the reference the
// tests hold the constant-time comb of ScalarBaseMult (comb.go) to; no
// production code multiplies a G1 point by a scalar otherwise.
func (c *curvePoint) Mul(a *curvePoint, k *big.Int) *curvePoint {
	var table [1 << (scalarWNAFWidth - 2)]curvePoint // table[i] = (2i+1)a
	var a2 curvePoint
	a2.Double(a)
	table[0].Set(a)
	for i := 1; i < len(table); i++ {
		table[i].Add(&table[i-1], &a2)
	}
	var acc, neg curvePoint
	acc.SetInfinity()
	digits := wnaf(k, scalarWNAFWidth)
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
	return c.Set(&acc)
}

// TestTwistSearchBound checks that initTwist's bound leaves room: the
// generator it found has a small n, far below the bound at which init
// panics, so only broken field arithmetic can reach the bound.
func TestTwistSearchBound(t *testing.T) {
	if twistGenN < 1 || twistGenN*16 > twistSearchBound {
		t.Fatalf("twist generator found at n = %d; the search bound %d is not far above it",
			twistGenN, twistSearchBound)
	}
	t.Logf("twist generator at x = %d + i, search bound %d", twistGenN, twistSearchBound)
}
