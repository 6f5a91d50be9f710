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
