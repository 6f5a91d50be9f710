package bn256

import (
	"math/big"
	"math/rand"
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

	// The branch-free select (reduceOnce, which Add and Mul write in
	// line) at exactly p-1, p, p+1 and 2p-1 on raw limbs.
	for _, c := range []struct{ in, want *big.Int }{
		{pm1, pm1},
		{P, big.NewInt(0)},
		{new(big.Int).Add(P, one), one},
		{new(big.Int).Sub(new(big.Int).Lsh(P, 1), one), pm1},
	} {
		e := rawGFp(c.in)
		e.reduceOnce()
		if got := rawBig(&e); got.Cmp(c.want) != 0 {
			t.Fatalf("reduceOnce(%v) = %v, want %v", c.in, got, c.want)
		}
	}

	// Add and Mul operands whose raw sum or Montgomery product lands on
	// those boundaries before the select, which pins the in-line copies.
	// Add acts on raw limbs, so raw operands summing to p-1, p, p+1 and
	// 2p-2 (the largest sum of reduced operands) reach them directly.
	half := new(big.Int).Rsh(P, 1)
	for _, pair := range [][2]*big.Int{
		{pm1, big.NewInt(0)},
		{pm1, one},
		{half, new(big.Int).Add(half, one)},
		{pm1, big.NewInt(2)},
		{pm1, pm1},
	} {
		ra, rb := gfPFromRawBig(pair[0]), gfPFromRawBig(pair[1])
		var sum gfP
		sum.Add(&ra, &rb)
		want := new(big.Int).Add(pair[0], pair[1])
		want.Mod(want, P)
		if got := rawBig(&sum); got.Cmp(want) != 0 {
			t.Fatalf("raw add %v + %v = %v, want %v", pair[0], pair[1], got, want)
		}
	}
	// Mul's pre-select value is t = (ab + Mp)/R with M < R chosen so
	// that R divides the numerator; t = ab/R mod p, and t < ab/R + p,
	// which is below 2p for any operands below 2p because 4p < R (see
	// Mul). Raw a = (p-1)R mod p times raw b = 1 gives t = p-1 exactly.
	// For t = p+1, pick b = (p+1)R/a mod p with ab > R: t is 1 mod p and
	// above ab/R > 1, so it is p+1. From reduced operands t = p would
	// need ab = 0 mod p, which gives t = 0; TestMulUnreducedOperands
	// reaches it with the raw operand p, and takes t toward 2p with
	// operands near 2p.
	rBig := new(big.Int).Lsh(one, 256)
	mulCases := [][2]*big.Int{{new(big.Int).Mod(new(big.Int).Mul(pm1, rBig), P), one}}
	for a := big.NewInt(3); len(mulCases) < 4; a.Add(a, new(big.Int).Lsh(one, 200)) {
		b := new(big.Int).Mul(new(big.Int).Add(P, one), rBig)
		b.Mul(b, new(big.Int).ModInverse(a, P))
		b.Mod(b, P)
		if new(big.Int).Mul(a, b).Cmp(rBig) > 0 {
			mulCases = append(mulCases, [2]*big.Int{new(big.Int).Set(a), b})
		}
	}
	rInv := new(big.Int).ModInverse(rBig, P)
	for _, pair := range mulCases {
		ra, rb := gfPFromRawBig(pair[0]), gfPFromRawBig(pair[1])
		var prod gfP
		prod.Mul(&ra, &rb)
		want := new(big.Int).Mul(pair[0], pair[1])
		want.Mul(want, rInv)
		want.Mod(want, P)
		if got := rawBig(&prod); got.Cmp(want) != 0 {
			t.Fatalf("raw mul %v * %v = %v, want %v", pair[0], pair[1], got, want)
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

	// Sub's masked add-back: 0 - x borrows for every x != 0, x - x never.
	for _, x := range edges {
		fx := gfPFromBig(x)
		var d gfP
		d.Sub(&zero, fx)
		want := new(big.Int).Neg(x)
		want.Mod(want, P)
		if d.BigInt().Cmp(want) != 0 {
			t.Fatalf("0 - %v = %v, want %v", x, d.BigInt(), want)
		}
		if d.Sub(fx, fx); !d.IsZero() {
			t.Fatalf("%v - %v != 0", x, x)
		}
		var n gfP
		if n.Neg(fx); n.BigInt().Cmp(want) != 0 {
			t.Fatalf("-%v = %v, want %v", x, n.BigInt(), want)
		}
	}
}

// TestMulUnreducedOperands checks Mul on raw operands below 2p, the
// range gfP2.Mul's unreduced Karatsuba sums (addNR) hand it, against the
// Montgomery product ab*R^-1 mod p computed with big.Int. The result
// must come out fully reduced.
func TestMulUnreducedOperands(t *testing.T) {
	one := big.NewInt(1)
	twoP := new(big.Int).Lsh(P, 1)
	twoPm1 := new(big.Int).Sub(twoP, one)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(one, 256), P)
	check := func(a, b *big.Int) {
		t.Helper()
		ra, rb := rawGFp(a), rawGFp(b)
		var prod gfP
		prod.Mul(&ra, &rb)
		want := new(big.Int).Mul(a, b)
		want.Mul(want, rInv)
		want.Mod(want, P)
		if got := rawBig(&prod); got.Cmp(want) != 0 {
			t.Fatalf("raw mul %v * %v = %v, want %v", a, b, got, want)
		}
	}

	x := new(big.Int).Rsh(P, 3)
	for _, pair := range [][2]*big.Int{
		{twoPm1, twoPm1},
		{twoPm1, one},
		{one, twoPm1},
		{P, x},      // t = p before the select
		{P, twoPm1}, // t = p as well
		{big.NewInt(0), twoPm1},
		{twoPm1, big.NewInt(0)},
	} {
		check(pair[0], pair[1])
	}

	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(new(big.Int).Rand(r, twoP), new(big.Int).Rand(r, twoP))
	}
}

// TestFieldKernelsMatchGeneric checks the assembly field kernels against
// the Go code they stand in for, which on a CPU with ADX nothing else
// runs: gfP.Mul on raw operands below 2p, edge values included;
// gfP2.Mul and gfP2.Square on reduced operands; and the
// lazily reduced tower kernels (line product, Fp6 and Fp12 product,
// Fp12 square, cyclotomic square) on reduced operands built from the
// edge values and at random. Each runs with the output apart and
// aliasing every input. Results must match limb for limb.
func TestFieldKernelsMatchGeneric(t *testing.T) {
	if !useADX {
		t.Skip("no assembly field kernels: not amd64 with BMI2 and ADX, or built with -tags purego")
	}
	one := big.NewInt(1)
	twoP := new(big.Int).Lsh(P, 1)
	edges := []*big.Int{
		big.NewInt(0), one, new(big.Int).Sub(P, one), P, new(big.Int).Sub(twoP, one),
	}
	r := rand.New(rand.NewSource(2))

	mul := func(a, b gfP) {
		t.Helper()
		var want, got gfP
		want.mulGeneric(&a, &b)
		gfpMul(&got, &a, &b)
		x, y := a, b
		gfpMul(&x, &x, &b)
		gfpMul(&y, &a, &y)
		if got != want || x != want || y != want {
			t.Fatalf("gfpMul(%v, %v) = %v, %v (c = a), %v (c = b); want %v",
				rawBig(&a), rawBig(&b), rawBig(&got), rawBig(&x), rawBig(&y), rawBig(&want))
		}
		want.mulGeneric(&a, &a)
		x = a
		if gfpMul(&x, &x, &x); x != want {
			t.Fatalf("gfpMul(%v, itself) = %v, want %v", rawBig(&a), rawBig(&x), rawBig(&want))
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			mul(rawGFp(a), rawGFp(b))
		}
	}
	for i := 0; i < 20000; i++ {
		mul(rawGFp(new(big.Int).Rand(r, twoP)), rawGFp(new(big.Int).Rand(r, twoP)))
	}

	fp2 := func(a, b gfP2) {
		t.Helper()
		var want, got gfP2
		want.mulGeneric(&a, &b)
		gfp2Mul(&got, &a, &b)
		x, y := a, b
		gfp2Mul(&x, &x, &b)
		gfp2Mul(&y, &a, &y)
		if got != want || x != want || y != want {
			t.Fatalf("gfp2Mul(%v, %v) = %v, %v (c = a), %v (c = b); want %v", &a, &b, &got, &x, &y, &want)
		}
		want.mulGeneric(&a, &a)
		x = a
		if gfp2Mul(&x, &x, &x); x != want {
			t.Fatalf("gfp2Mul(%v, itself) = %v, want %v", &a, &x, &want)
		}
		want.squareGeneric(&a)
		gfp2Square(&got, &a)
		x = a
		if gfp2Square(&x, &x); got != want || x != want {
			t.Fatalf("gfp2Square(%v) = %v, %v (c = a); want %v", &a, &got, &x, &want)
		}
	}
	reduced := edges[:3]
	for _, a0 := range reduced {
		for _, a1 := range reduced {
			for _, b0 := range reduced {
				for _, b1 := range reduced {
					fp2(gfP2{rawGFp(a0), rawGFp(a1)}, gfP2{rawGFp(b0), rawGFp(b1)})
				}
			}
		}
	}
	randFp := func() gfP { return rawGFp(new(big.Int).Rand(r, P)) }
	for i := 0; i < 5000; i++ {
		fp2(gfP2{randFp(), randFp()}, gfP2{randFp(), randFp()})
	}

	// The tower kernels, on operands whose every Fp coefficient is drawn
	// from {0, 1, p-1} (a sample of the grid: it has 3^28 points), then
	// on random reduced operands.
	edgeFp := func() gfP { return rawGFp(reduced[r.Intn(len(reduced))]) }
	for i := 0; i < 2000; i++ {
		checkTowerKernels(t, randTowerOperands(edgeFp))
	}
	for i := 0; i < 5000; i++ {
		checkTowerKernels(t, randTowerOperands(randFp))
	}
	// cyclotomicSquareGeneric is a polynomial, so the kernel must match
	// it on any operand, as above; these operands are where it is used,
	// in the cyclotomic subgroup.
	for i := 0; i < 500; i++ {
		ops := randTowerOperands(randFp)
		ops.a = *easyPart(t, &ops.a)
		checkTowerKernels(t, ops)
	}
}

// towerOperands holds one set of operands for the tower kernels.
type towerOperands struct {
	a, b   gfP12
	l1, l3 gfP2
}

// randTowerOperands fills a towerOperands with Fp coefficients from fp.
func randTowerOperands(fp func() gfP) towerOperands {
	var o towerOperands
	for _, e := range []*gfP12{&o.a, &o.b} {
		for _, c := range []*gfP2{&e.c0.b0, &e.c0.b1, &e.c0.b2, &e.c1.b0, &e.c1.b1, &e.c1.b2} {
			*c = gfP2{fp(), fp()}
		}
	}
	o.l1 = gfP2{fp(), fp()}
	o.l3 = gfP2{fp(), fp()}
	return o
}

// checkTowerKernels runs each assembly tower kernel on o against the Go
// code it stands in for, with the output apart from the inputs and
// aliasing each of them, and requires the same limbs.
func checkTowerKernels(t testing.TB, o towerOperands) {
	t.Helper()
	a, b := o.a, o.b
	var want, got gfP12

	want.mulLineGeneric(&a, &o.l1, &o.l3)
	gfp12MulLine(&got, &a, &o.l1, &o.l3)
	x := a
	if gfp12MulLine(&x, &x, &o.l1, &o.l3); got != want || x != want {
		t.Fatalf("gfp12MulLine(%v, %v, %v) = %v, %v (e = a); want %v", &a, &o.l1, &o.l3, &got, &x, &want)
	}

	var want6, got6 gfP6
	want6.mulGeneric(&a.c0, &b.c0)
	gfp6Mul(&got6, &a.c0, &b.c0)
	x6, y6 := a.c0, b.c0
	gfp6Mul(&x6, &x6, &b.c0)
	gfp6Mul(&y6, &a.c0, &y6)
	if got6 != want6 || x6 != want6 || y6 != want6 {
		t.Fatalf("gfp6Mul(%v, %v) = %v, %v (e = a), %v (e = b); want %v", &a.c0, &b.c0, &got6, &x6, &y6, &want6)
	}
	want6.mulGeneric(&a.c1, &a.c1)
	x6 = a.c1
	if gfp6Mul(&x6, &x6, &x6); x6 != want6 {
		t.Fatalf("gfp6Mul(%v, itself) = %v, want %v", &a.c1, &x6, &want6)
	}

	want.mulGeneric(&a, &b)
	gfp12Mul(&got, &a, &b)
	x, y := a, b
	gfp12Mul(&x, &x, &b)
	gfp12Mul(&y, &a, &y)
	if got != want || x != want || y != want {
		t.Fatalf("gfp12Mul(%v, %v) = %v, %v (e = a), %v (e = b); want %v", &a, &b, &got, &x, &y, &want)
	}

	want.squareGeneric(&a)
	gfp12Square(&got, &a)
	x = a
	if gfp12Square(&x, &x); got != want || x != want {
		t.Fatalf("gfp12Square(%v) = %v, %v (e = a); want %v", &a, &got, &x, &want)
	}

	want.cyclotomicSquareGeneric(&a)
	gfp12CyclotomicSquare(&got, &a)
	x = a
	if gfp12CyclotomicSquare(&x, &x); got != want || x != want {
		t.Fatalf("gfp12CyclotomicSquare(%v) = %v, %v (e = a); want %v", &a, &got, &x, &want)
	}
}

// rawGFp loads n < 2^256 into limbs as is: no reduction, no Montgomery
// conversion.
func rawGFp(n *big.Int) gfP { return limbs(n) }

// rawBig returns the raw limbs of e as an integer, without Montgomery
// decoding.
func rawBig(e *gfP) *big.Int {
	out := new(big.Int)
	for i := 3; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(e[i]))
	}
	return out
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
