package bn256

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func TestParamsDerivation(t *testing.T) {
	// p and r must be prime and satisfy the BN relation r = p + 1 - t.
	if !P.ProbablyPrime(32) {
		t.Fatal("p is not prime")
	}
	if !Order.ProbablyPrime(32) {
		t.Fatal("r is not prime")
	}
	want := new(big.Int).Add(P, big.NewInt(1))
	want.Sub(want, trace)
	if want.Cmp(Order) != 0 {
		t.Fatal("r != p + 1 - t")
	}
	if P.BitLen() < 250 {
		t.Fatalf("p has %d bits, want >= 250", P.BitLen())
	}
}

// checkWNAF asserts the wNAF contract for the digits of k at width w.
func checkWNAF(t *testing.T, k *big.Int, w uint, digits []int8) {
	t.Helper()
	sum := new(big.Int)
	for i := len(digits) - 1; i >= 0; i-- {
		sum.Lsh(sum, 1)
		sum.Add(sum, big.NewInt(int64(digits[i])))
		if d := digits[i]; d != 0 && (d%2 == 0 || d >= 1<<(w-1) || d <= -(1<<(w-1))) {
			t.Fatalf("wnaf(%v, %d): digit %d at %d is even or too large", k, w, d, i)
		}
	}
	if sum.Cmp(k) != 0 {
		t.Fatalf("wnaf(%v, %d) sums to %v", k, w, sum)
	}
	for i := range digits {
		nonzero := 0
		for j := i; j < i+int(w) && j < len(digits); j++ {
			if digits[j] != 0 {
				nonzero++
			}
		}
		if nonzero > 1 {
			t.Fatalf("wnaf(%v, %d): %d non-zero digits in the window at %d", k, w, nonzero, i)
		}
	}
	if len(digits) > 0 && digits[len(digits)-1] <= 0 {
		t.Fatalf("wnaf(%v, %d): leading digit %d is not positive", k, w, digits[len(digits)-1])
	}
}

func wnafWeight(digits []int8) int {
	n := 0
	for _, d := range digits {
		if d != 0 {
			n++
		}
	}
	return n
}

func TestWNAFRecoding(t *testing.T) {
	ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 254), big.NewInt(1))
	fixed := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(7), big.NewInt(255), ones, Order, u, sixUPlus2}
	for w := uint(2); w <= 6; w++ {
		for _, k := range fixed {
			checkWNAF(t, k, w, wnaf(k, w))
		}
		for i := 0; i < 50; i++ {
			k := randScalar(t)
			checkWNAF(t, k, w, wnaf(k, w))
		}
	}
	// The loop constants' weights, which set the pairing's line and
	// multiplication counts.
	if got := wnafWeight(sixUPlus2NAF); got != 22 {
		t.Fatalf("NAF weight of 6u+2 = %d, want 22", got)
	}
	if got := len(sixUPlus2NAF); got != 66 {
		t.Fatalf("NAF length of 6u+2 = %d, want 66", got)
	}
	if got := wnafWeight(uWNAF); got != 14 {
		t.Fatalf("width-4 wNAF weight of u = %d, want 14", got)
	}
}

func TestG1Order(t *testing.T) {
	var e G1
	e.ScalarBaseMult(Order)
	if !e.IsInfinity() {
		t.Fatal("r * g1 != infinity")
	}
	e.ScalarBaseMult(big.NewInt(1))
	if e.IsInfinity() {
		t.Fatal("g1 is infinity")
	}
}

func TestG2Order(t *testing.T) {
	var e G2
	e.ScalarBaseMult(Order)
	if !e.IsInfinity() {
		t.Fatal("r * g2 != infinity")
	}
	e.ScalarBaseMult(big.NewInt(1))
	if e.IsInfinity() {
		t.Fatal("g2 is infinity")
	}
}

func TestPairingBilinearity(t *testing.T) {
	a, pa, err := RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, qb, err := RandomG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	// e(g2^b, g1^a) must equal e(g2, g1)^(ab).
	lhs := Pair(qb, pa)
	base := Pair(new(G2).ScalarBaseMult(big.NewInt(1)), new(G1).ScalarBaseMult(big.NewInt(1)))
	ab := new(big.Int).Mul(a, b)
	ab.Mod(ab, Order)
	rhs := new(GT).Exp(base, ab)
	if !lhs.Equal(rhs) {
		t.Fatal("pairing is not bilinear")
	}
	if lhs.IsOne() {
		t.Fatal("pairing is degenerate")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	g1 := new(G1).ScalarBaseMult(big.NewInt(1))
	g2 := new(G2).ScalarBaseMult(big.NewInt(1))
	e := Pair(g2, g1)
	if e.IsOne() {
		t.Fatal("e(g2, g1) == 1")
	}
	// e(g2, g1)^r == 1 (GT has order r).
	var er GT
	er.Exp(e, Order)
	if !er.IsOne() {
		t.Fatal("e(g2, g1)^r != 1")
	}
}

func TestPairBatchMatchesProduct(t *testing.T) {
	var ps []*G1
	var qs []*G2
	expected := new(GT).SetOne()
	for i := 0; i < 4; i++ {
		a, p, err := RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, q, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		_ = a
		_ = b
		ps = append(ps, p)
		qs = append(qs, q)
		expected.Mul(expected, Pair(q, p))
	}
	got := PairBatch(qs, ps)
	if !got.Equal(expected) {
		t.Fatal("PairBatch disagrees with the product of individual pairings")
	}
}

func TestGTMarshalRoundTrip(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	e := Pair(q, p)
	data := e.Marshal()
	var e2 GT
	if err := e2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if !e.Equal(&e2) {
		t.Fatal("GT marshal round trip failed")
	}
	if !bytes.Equal(data, e2.Marshal()) {
		t.Fatal("GT re-marshal differs")
	}
}

// TestNormalizeKeepsEncodings checks that the batched affine
// normalisation moves every point to Z = 1 without changing its
// encoding, and leaves points at infinity alone.
func TestNormalizeKeepsEncodings(t *testing.T) {
	var g1s []*G1
	var g2s []*G2
	var want1, want2 [][]byte
	for i := range 6 {
		k := randScalar(t)
		if i == 2 {
			k.SetInt64(0)
		}
		g1s = append(g1s, new(G1).ScalarBaseMult(k))
		g2s = append(g2s, new(G2).ScalarBaseMult(k))
		want1 = append(want1, g1s[i].Marshal())
		want2 = append(want2, g2s[i].Marshal())
	}
	NormalizeG1(g1s)
	NormalizeG2(g2s)
	for i := range g1s {
		if !bytes.Equal(g1s[i].Marshal(), want1[i]) || !bytes.Equal(g2s[i].Marshal(), want2[i]) {
			t.Fatalf("point %d changed its encoding", i)
		}
		if inf := g1s[i].IsInfinity(); inf != (i == 2) || !inf && !g1s[i].p.z.Equal(&rOne) {
			t.Fatalf("G1 point %d is not normalised", i)
		}
		if inf := g2s[i].IsInfinity(); inf != (i == 2) || !inf && !g2s[i].p.z.IsOne() {
			t.Fatalf("G2 point %d is not normalised", i)
		}
	}
}

// NormalizeG1 puts every point of ps in affine form with one field
// inversion for the whole batch, as SJ.Enc did per row before
// BaseMultG1s: the benchmarks' affine rows and the scalar8 baseline.
func NormalizeG1(ps []*G1) {
	cs := make([]*curvePoint, len(ps))
	for i, e := range ps {
		cs[i] = &e.p
	}
	batchMakeAffine(cs)
}

// NormalizeG2 puts every point of ps in affine form with one field
// inversion for the whole batch, as TokenGen did before BaseMultG2s:
// the benchmarks' affine tokens and the scalar8 baseline.
func NormalizeG2(ps []*G2) {
	ts := make([]*twistPoint, len(ps))
	for i, e := range ps {
		ts[i] = &e.p
	}
	batchMakeAffineTwist(ts)
}
