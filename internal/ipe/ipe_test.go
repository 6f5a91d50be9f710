package ipe

import (
	"math/big"
	"testing"

	"repro/internal/bn256"
	"repro/internal/zq"
)

func vec(xs ...int64) zq.Vector {
	v := make(zq.Vector, len(xs))
	for i, x := range xs {
		v[i] = zq.FromInt64(x)
	}
	return v
}

// innerProduct is <v, w> mod q, the plaintext side of the correctness
// identity below.
func innerProduct(v, w zq.Vector) zq.Scalar {
	acc := zq.Zero()
	for i := range v {
		acc = acc.Add(v[i].Mul(w[i]))
	}
	return acc
}

// gtExp is a^k by square-and-multiply over the exported GT product, a
// reference that shares no code with the Miller loop.
func gtExp(a *bn256.GT, k *big.Int) *bn256.GT {
	acc := new(bn256.GT).SetOne()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Mul(acc, acc)
		if k.Bit(i) == 1 {
			acc.Mul(acc, a)
		}
	}
	return acc
}

// TestModifiedSchemeCorrectnessIdentity pins the identity the whole
// scheme rests on (DESIGN.md, "Crypto substrate"):
//
//	DecryptModified(KeyGenModified(v), EncryptModified(w)) = e(g2, g1)^(det(B) <v, w>)
//
// The left side runs n pairings through the batched Miller loop; the
// right side is one pairing of the generators raised to the exponent
// in GT, so a key or ciphertext built from the wrong matrix, or a
// pairing that is not bilinear, fails it.
func TestModifiedSchemeCorrectnessIdentity(t *testing.T) {
	g1 := new(bn256.G1).ScalarBaseMult(big.NewInt(1))
	g2 := new(bn256.G2).ScalarBaseMult(big.NewInt(1))
	base := bn256.PairBatch([]*bn256.G2{g2}, []*bn256.G1{g1})
	for _, n := range []int{1, 3, 6} {
		msk, err := Setup(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, w := make(zq.Vector, n), make(zq.Vector, n)
		for i := range v {
			v[i], w[i] = zq.MustRandom(), zq.MustRandom()
		}
		tk, err := msk.KeyGenModified(v)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := msk.EncryptModified(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecryptModified(tk, ct)
		if err != nil {
			t.Fatal(err)
		}
		want := gtExp(base, msk.B.Det().Mul(innerProduct(v, w)).Big())
		if !got.Equal(want) {
			t.Fatalf("n=%d: D != e(g2,g1)^(det(B)<v,w>)", n)
		}
	}
}

// TestModifiedSchemeEquality is the property Secure Join needs: two
// ciphertexts decrypted under keys with the same inner-product outcome
// yield equal D values, and differing inner products yield different
// ones.
func TestModifiedSchemeEquality(t *testing.T) {
	msk, err := Setup(3, nil)
	if err != nil {
		t.Fatal(err)
	}

	// <v, w1> == <v, w2> == 10
	v := vec(1, 2, 0)
	w1 := vec(10, 0, 7)
	w2 := vec(2, 4, 99)
	tk, err := msk.KeyGenModified(v)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := msk.EncryptModified(w1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := msk.EncryptModified(w2)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := DecryptModified(tk, c1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecryptModified(tk, c2)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Fatal("equal inner products should give equal D values")
	}

	// <v, w3> = 11 != 10
	w3 := vec(11, 0, 3)
	c3, err := msk.EncryptModified(w3)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := DecryptModified(tk, c3)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Equal(d3) {
		t.Fatal("different inner products should give different D values")
	}
}

// TestModifiedSchemeCrossMskUnlinkable: the same vectors under two
// independent master keys must produce different D values (det(B)
// differs), the reason different clients/uploads are unlinkable.
func TestModifiedSchemeCrossMskUnlinkable(t *testing.T) {
	v := vec(1, 2)
	w := vec(3, 4)
	d := func() []byte {
		msk, err := Setup(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := msk.KeyGenModified(v)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := msk.EncryptModified(w)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := DecryptModified(tk, ct)
		if err != nil {
			t.Fatal(err)
		}
		return gt.Marshal()
	}
	if string(d()) == string(d()) {
		t.Fatal("independent master keys produced identical D values")
	}
}

func TestDimensionValidation(t *testing.T) {
	if _, err := Setup(0, nil); err == nil {
		t.Fatal("dimension 0 should be rejected")
	}
	msk, err := Setup(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := msk.KeyGenModified(vec(1)); err == nil {
		t.Fatal("short modified key vector should be rejected")
	}
	if _, err := msk.EncryptModified(vec(1)); err == nil {
		t.Fatal("short modified plaintext vector should be rejected")
	}

	tk, err := msk.KeyGenModified(vec(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	short := &CiphertextM{Elems: nil}
	if _, err := DecryptModified(tk, short); err == nil {
		t.Fatal("mismatched dimensions should be rejected")
	}
}
