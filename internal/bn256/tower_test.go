package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func randGFp2(t *testing.T) *gfP2 {
	t.Helper()
	a, _ := randGFp(t)
	b, _ := randGFp(t)
	return &gfP2{a0: *a, a1: *b}
}

func randGFp6(t *testing.T) *gfP6 {
	t.Helper()
	return &gfP6{b0: *randGFp2(t), b1: *randGFp2(t), b2: *randGFp2(t)}
}

func randGFp12(t *testing.T) *gfP12 {
	t.Helper()
	return &gfP12{c0: *randGFp6(t), c1: *randGFp6(t)}
}

func TestXiIsNonResidue(t *testing.T) {
	// xi is fixed at 9 + i; the tower is a field only if xi is neither a
	// square nor a cube in Fp2.
	one := newGFp2One()
	p2m1 := new(big.Int).Sub(new(big.Int).Mul(P, P), big.NewInt(1))
	var sq gfP2
	if sq.Exp(&xi, new(big.Int).Rsh(p2m1, 1)); sq.Equal(one) {
		t.Fatal("xi is a square in Fp2")
	}
	var cb gfP2
	if cb.Exp(&xi, new(big.Int).Div(p2m1, big.NewInt(3))); cb.Equal(one) {
		t.Fatal("xi is a cube in Fp2")
	}
	var nine gfP2
	nine.a0 = *newGFp(9)
	nine.a1.SetOne()
	if !xi.Equal(&nine) {
		t.Fatal("xi != 9 + i")
	}
}

func TestGFp2Arithmetic(t *testing.T) {
	for i := 0; i < 40; i++ {
		a, b, c := randGFp2(t), randGFp2(t), randGFp2(t)

		// (a+b)c == ac + bc
		var sum, lhs, ac, bc, rhs gfP2
		sum.Add(a, b)
		lhs.Mul(&sum, c)
		ac.Mul(a, c)
		bc.Mul(b, c)
		rhs.Add(&ac, &bc)
		if !lhs.Equal(&rhs) {
			t.Fatal("gfP2 distributivity fails")
		}

		// Square == Mul self
		var sq, mm gfP2
		sq.Square(a)
		mm.Mul(a, a)
		if !sq.Equal(&mm) {
			t.Fatal("gfP2 square != mul self")
		}

		// a * a^-1 == 1
		if !a.IsZero() {
			var inv, prod gfP2
			inv.Invert(a)
			prod.Mul(a, &inv)
			if !prod.IsOne() {
				t.Fatal("gfP2 inverse fails")
			}
		}

		// i^2 == -1: (0+1i)^2 = -1.
		var iElt gfP2
		iElt.a1.SetOne()
		var iSq gfP2
		iSq.Square(&iElt)
		var minusOne gfP2
		minusOne.a0.Neg(&rOne)
		if !iSq.Equal(&minusOne) {
			t.Fatal("i^2 != -1")
		}
	}
}

func TestGFp2Sqrt(t *testing.T) {
	for i := 0; i < 27; i++ {
		a := randGFp2(t)
		switch i {
		case 25:
			// A root i*r with r in Fp: its square -r^2 lies in Fp and is
			// a non-residue there, so the root's real part is zero.
			a.a0.SetZero()
		case 26:
			a.a1.SetZero()
		}
		var sq gfP2
		sq.Square(a)
		var root gfP2
		if !root.Sqrt(&sq) {
			t.Fatal("square reported as non-residue")
		}
		var check gfP2
		check.Square(&root)
		if !check.Equal(&sq) {
			t.Fatal("sqrt returned a non-root")
		}
	}
}

func TestGFp2Conjugate(t *testing.T) {
	a := randGFp2(t)
	// a * conj(a) must be real (the norm).
	var conj, prod gfP2
	conj.Conjugate(a)
	prod.Mul(a, &conj)
	if !prod.a1.IsZero() {
		t.Fatal("a * conj(a) is not in Fp")
	}
}

func TestGFp6Arithmetic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b, c := randGFp6(t), randGFp6(t), randGFp6(t)

		var sum, lhs, ac, bc, rhs gfP6
		sum.Add(a, b)
		lhs.Mul(&sum, c)
		ac.Mul(a, c)
		bc.Mul(b, c)
		rhs.Add(&ac, &bc)
		if !lhs.Equal(&rhs) {
			t.Fatal("gfP6 distributivity fails")
		}

		if !a.IsZero() {
			var inv, prod, one gfP6
			inv.Invert(a)
			prod.Mul(a, &inv)
			one.SetOne()
			if !prod.Equal(&one) {
				t.Fatal("gfP6 inverse fails")
			}
		}
	}
}

func TestGFp6MulTau(t *testing.T) {
	// Multiplying by tau must agree with multiplying by the element
	// (0, 1, 0).
	a := randGFp6(t)
	var tau gfP6
	tau.b1.SetOne()
	var viaMul, viaTau gfP6
	viaMul.Mul(a, &tau)
	viaTau.MulTau(a)
	if !viaMul.Equal(&viaTau) {
		t.Fatal("MulTau disagrees with generic multiplication")
	}
	// tau^3 == xi.
	var t3 gfP6
	t3.MulTau(&tau)
	t3.MulTau(&t3)
	var want gfP6
	want.b0.Set(&xi)
	if !t3.Equal(&want) {
		t.Fatal("tau^3 != xi")
	}
}

func TestGFp12Arithmetic(t *testing.T) {
	for i := 0; i < 10; i++ {
		a, b, c := randGFp12(t), randGFp12(t), randGFp12(t)

		var sum, lhs, ac, bc, rhs gfP12
		sum.Add(a, b)
		lhs.Mul(&sum, c)
		ac.Mul(a, c)
		bc.Mul(b, c)
		rhs.Add(&ac, &bc)
		if !lhs.Equal(&rhs) {
			t.Fatal("gfP12 distributivity fails")
		}

		var sq, mm gfP12
		sq.Square(a)
		mm.Mul(a, a)
		if !sq.Equal(&mm) {
			t.Fatal("gfP12 square != mul self")
		}

		if !a.IsZero() {
			var inv, prod gfP12
			inv.Invert(a)
			prod.Mul(a, &inv)
			if !prod.IsOne() {
				t.Fatal("gfP12 inverse fails")
			}
		}
	}
}

func TestFrobenius2IsP2Power(t *testing.T) {
	// Frobenius2 must agree with raising to the p^2 power.
	a := randGFp12(t)
	p2 := new(big.Int).Mul(P, P)
	var viaExp, viaFrob gfP12
	viaExp.Exp(a, p2)
	viaFrob.Frobenius2(a)
	if !viaExp.Equal(&viaFrob) {
		t.Fatal("Frobenius2 disagrees with x^(p^2)")
	}
}

func TestMulLineMatchesGeneric(t *testing.T) {
	for i := 0; i < 10; i++ {
		a := randGFp12(t)
		l1, l3 := randGFp2(t), randGFp2(t)

		// 1 + l1 omega + l3 omega^3: omega is c1.b0, omega^3 is c1.b1.
		var l gfP12
		l.SetOne()
		l.c1.b0.Set(l1)
		l.c1.b1.Set(l3)
		var viaGeneric gfP12
		viaGeneric.Mul(a, &l)

		var viaSparse gfP12
		viaSparse.mulLine(a, l1, l3)
		if !viaSparse.Equal(&viaGeneric) {
			t.Fatal("mulLine disagrees with generic multiplication")
		}
		viaSparse.Set(a)
		viaSparse.mulLine(&viaSparse, l1, l3)
		if !viaSparse.Equal(&viaGeneric) {
			t.Fatal("aliased mulLine disagrees with generic multiplication")
		}
	}
}

func TestMulXiMatchesGeneric(t *testing.T) {
	// The straight-line MulXi must agree with a full multiplication by
	// the xi constant.
	for i := 0; i < 20; i++ {
		a := randGFp2(t)
		var fast, generic gfP2
		fast.MulXi(a)
		generic.Mul(a, &xi)
		if !fast.Equal(&generic) {
			t.Fatal("MulXi disagrees with generic multiplication by xi")
		}
		// Aliased form.
		fast.Set(a)
		fast.MulXi(&fast)
		if !fast.Equal(&generic) {
			t.Fatal("aliased MulXi disagrees with generic multiplication by xi")
		}
	}
}

func TestGFp12SquareMatchesMul(t *testing.T) {
	// Complex squaring must agree with a general self-multiplication,
	// including when the receiver aliases the operand.
	for i := 0; i < 20; i++ {
		a := randGFp12(t)
		var viaMul, viaSquare gfP12
		viaMul.Mul(a, a)
		viaSquare.Square(a)
		if !viaSquare.Equal(&viaMul) {
			t.Fatal("Square disagrees with Mul(a, a)")
		}
		viaSquare.Set(a)
		viaSquare.Square(&viaSquare)
		if !viaSquare.Equal(&viaMul) {
			t.Fatal("aliased Square disagrees with Mul(a, a)")
		}
	}
}

// easyPart applies the easy part of the final exponentiation, mapping
// an arbitrary element into the cyclotomic subgroup.
func easyPart(t testing.TB, a *gfP12) *gfP12 {
	t.Helper()
	var t0, t1 gfP12
	t0.Conjugate(a)
	t1.Invert(a)
	t0.Mul(&t0, &t1)
	t1.Frobenius2(&t0)
	t0.Mul(&t0, &t1)
	return &t0
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	// Granger-Scott squaring is only valid in the cyclotomic subgroup;
	// inside it, it must agree exactly with the general squaring.
	for i := 0; i < 10; i++ {
		c := easyPart(t, randGFp12(t))
		var viaSquare, viaCyclo gfP12
		viaSquare.Square(c)
		viaCyclo.cyclotomicSquare(c)
		if !viaCyclo.Equal(&viaSquare) {
			t.Fatal("cyclotomicSquare disagrees with Square in the cyclotomic subgroup")
		}
		viaCyclo.Set(c)
		viaCyclo.cyclotomicSquare(&viaCyclo)
		if !viaCyclo.Equal(&viaSquare) {
			t.Fatal("aliased cyclotomicSquare disagrees with Square")
		}
	}
}

func TestFrobenius1IsPPower(t *testing.T) {
	a := randGFp12(t)
	var viaExp, viaFrob gfP12
	viaExp.Exp(a, P)
	viaFrob.Frobenius1(a)
	if !viaExp.Equal(&viaFrob) {
		t.Fatal("Frobenius1 disagrees with x^p")
	}
}

func TestExpByUMatchesExp(t *testing.T) {
	// expByU's signed digits use the conjugate as the inverse, which
	// holds only in the cyclotomic subgroup, so the inputs are taken
	// after the easy part.
	for i := 0; i < 3; i++ {
		c := easyPart(t, randGFp12(t))
		var viaExp, viaU gfP12
		viaExp.Exp(c, u)
		viaU.expByU(c)
		if !viaU.Equal(&viaExp) {
			t.Fatal("expByU disagrees with Exp(u)")
		}
		viaU.Set(c)
		viaU.expByU(&viaU)
		if !viaU.Equal(&viaExp) {
			t.Fatal("aliased expByU disagrees with Exp(u)")
		}
	}
}

func TestHardExponentiationMatchesPlainExp(t *testing.T) {
	// The Devegili Frobenius decomposition of the hard part must equal
	// the plain exponentiation by (p^4 - p^2 + 1)/r on cyclotomic
	// elements — this pins the whole optimized final exponentiation.
	for i := 0; i < 3; i++ {
		c := easyPart(t, randGFp12(t))
		var want gfP12
		want.Exp(c, finalExpHard)
		got := hardExponentiation(c)
		if !got.Equal(&want) {
			t.Fatal("hardExponentiation disagrees with Exp(finalExpHard)")
		}
	}
}

func TestGFp12ExpHomomorphism(t *testing.T) {
	a := randGFp12(t)
	x, err := rand.Int(rand.Reader, big.NewInt(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	y, err := rand.Int(rand.Reader, big.NewInt(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	var ax, ay, prod, axy gfP12
	ax.Exp(a, x)
	ay.Exp(a, y)
	prod.Mul(&ax, &ay)
	axy.Exp(a, new(big.Int).Add(x, y))
	if !prod.Equal(&axy) {
		t.Fatal("a^x * a^y != a^(x+y)")
	}
}
