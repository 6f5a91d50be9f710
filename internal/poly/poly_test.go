package poly

import (
	"testing"
	"testing/quick"

	"repro/internal/zq"
)

func TestZeroPolynomial(t *testing.T) {
	p := Zero(5)
	if !p.IsZero() {
		t.Fatal("Zero(5) is not zero")
	}
	if p.Degree() != -1 {
		t.Fatalf("degree of zero polynomial = %d", p.Degree())
	}
	if got := p.Eval(zq.FromInt64(17)); !got.IsZero() {
		t.Fatal("zero polynomial evaluated non-zero")
	}
	if len(p.Coeffs(6)) != 6 {
		t.Fatal("Coeffs padding wrong")
	}
}

func TestFromRootsVanishesOnRoots(t *testing.T) {
	roots := []zq.Scalar{zq.FromInt64(3), zq.FromInt64(8), zq.Hash([]byte("x"))}
	p, err := FromRoots(roots, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if !p.Eval(r).IsZero() {
			t.Fatalf("polynomial does not vanish at root %v", r)
		}
	}
	if p.Degree() != 5 {
		t.Fatalf("degree = %d, want exactly 5", p.Degree())
	}
	// A non-root must (overwhelmingly) not vanish.
	if p.Eval(zq.FromInt64(123456)).IsZero() {
		t.Fatal("polynomial vanishes at a non-root")
	}
}

func TestFromRootsExactDegreeBound(t *testing.T) {
	roots := []zq.Scalar{zq.FromInt64(1), zq.FromInt64(2)}
	p, err := FromRoots(roots, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() != 2 {
		t.Fatalf("degree = %d, want 2", p.Degree())
	}
	if _, err := FromRoots(roots, 1, nil); err == nil {
		t.Fatal("too many roots should be rejected")
	}
}

func TestFromRootsIsRandomized(t *testing.T) {
	// Section 4.1: each predicate has at least q admissible encodings,
	// so two independently generated polynomials for the same roots
	// should differ.
	roots := []zq.Scalar{zq.FromInt64(7)}
	p1, err := FromRoots(roots, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := FromRoots(roots, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Coeffs(4).Equal(p2.Coeffs(4)) {
		t.Fatal("two fresh encodings are identical (randomization missing)")
	}
	if !p1.Eval(roots[0]).IsZero() || !p2.Eval(roots[0]).IsZero() {
		t.Fatal("randomized encodings lost the root")
	}
}

func TestEvalMatchesCoefficientForm(t *testing.T) {
	// p(x) = 2 + 3x + x^2 evaluated at small points.
	p := Polynomial{coeffs: zq.Vector{zq.FromInt64(2), zq.FromInt64(3), zq.FromInt64(1)}}
	cases := map[int64]int64{0: 2, 1: 6, 2: 12, 5: 42}
	for x, want := range cases {
		if got := p.Eval(zq.FromInt64(x)); !got.Equal(zq.FromInt64(want)) {
			t.Fatalf("p(%d) = %v, want %d", x, got, want)
		}
	}
	if p.Degree() != 2 {
		t.Fatalf("degree = %d", p.Degree())
	}
}

func TestEvalViaInnerProductOfPowers(t *testing.T) {
	// The scheme evaluates P at a via <coeffs, PowersOf(a)>; both paths
	// must agree for random polynomials and points.
	check := func(c0, c1, c2, c3, x int64) bool {
		coeffs := zq.Vector{zq.FromInt64(c0), zq.FromInt64(c1), zq.FromInt64(c2), zq.FromInt64(c3)}
		p := Polynomial{coeffs: coeffs}
		a := zq.FromInt64(x)
		direct := p.Eval(a)
		viaIP := zq.Zero()
		for i, x := range PowersOf(a, 3) {
			viaIP = viaIP.Add(coeffs[i].Mul(x))
		}
		return direct.Equal(viaIP)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPowersOf(t *testing.T) {
	powers := PowersOf(zq.FromInt64(3), 4)
	want := []int64{1, 3, 9, 27, 81}
	if len(powers) != 5 {
		t.Fatalf("len = %d", len(powers))
	}
	for i, w := range want {
		if !powers[i].Equal(zq.FromInt64(w)) {
			t.Fatalf("powers[%d] = %v, want %d", i, powers[i], w)
		}
	}
	zero := PowersOf(zq.Zero(), 2)
	if !zero[0].Equal(zq.One()) || !zero[1].IsZero() || !zero[2].IsZero() {
		t.Fatal("powers of zero should be (1, 0, 0)")
	}
}

func TestFromRootsEmpty(t *testing.T) {
	// No roots: still a degree-t polynomial (all random factors), so it
	// should not vanish anywhere we look.
	p, err := FromRoots(nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() != 3 {
		t.Fatalf("degree = %d, want 3", p.Degree())
	}
	vanish := 0
	for i := int64(0); i < 100; i++ {
		if p.Eval(zq.FromInt64(i)).IsZero() {
			vanish++
		}
	}
	if vanish > 3 {
		t.Fatalf("degree-3 polynomial vanished at %d of 100 points", vanish)
	}
}

func TestString(t *testing.T) {
	if s := Zero(2).String(); s != "0" {
		t.Fatalf("zero renders as %q", s)
	}
	p := Polynomial{coeffs: zq.Vector{zq.FromInt64(1), zq.Zero(), zq.FromInt64(2)}}
	if s := p.String(); s == "" || s == "0" {
		t.Fatalf("unexpected rendering %q", s)
	}
}

// Eval returns p(x) by Horner's rule, the reference the root tests
// evaluate against.
func (p Polynomial) Eval(x zq.Scalar) zq.Scalar {
	acc := zq.Zero()
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p.coeffs[i])
	}
	return acc
}
