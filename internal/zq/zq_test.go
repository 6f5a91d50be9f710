package zq

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestBasicArithmetic(t *testing.T) {
	a := FromInt64(7)
	b := FromInt64(5)
	if got := a.Add(b); !got.Equal(FromInt64(12)) {
		t.Fatalf("7+5 = %v", got)
	}
	if got := a.Sub(b); !got.Equal(FromInt64(2)) {
		t.Fatalf("7-5 = %v", got)
	}
	if got := b.Sub(a); !got.Equal(FromInt64(-2)) {
		t.Fatalf("5-7 = %v", got)
	}
	if got := a.Mul(b); !got.Equal(FromInt64(35)) {
		t.Fatalf("7*5 = %v", got)
	}
	if got := a.Neg().Add(a); !got.IsZero() {
		t.Fatalf("-7+7 = %v", got)
	}
}

func TestFromInt64Negative(t *testing.T) {
	s := FromInt64(-1)
	want := new(big.Int).Sub(Q, big.NewInt(1))
	if s.Big().Cmp(want) != 0 {
		t.Fatalf("-1 should map to q-1, got %v", s)
	}
}

func TestInverse(t *testing.T) {
	for i := int64(1); i < 50; i++ {
		s := FromInt64(i)
		if got := s.Mul(s.Inv()); !got.Equal(One()) {
			t.Fatalf("%d * %d^-1 = %v", i, i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverting zero should panic")
		}
	}()
	Zero().Inv()
}

func TestExp(t *testing.T) {
	s := FromInt64(3)
	if got := s.Exp(0); !got.Equal(One()) {
		t.Fatalf("3^0 = %v", got)
	}
	if got := s.Exp(4); !got.Equal(FromInt64(81)) {
		t.Fatalf("3^4 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative exponent should panic")
		}
	}()
	s.Exp(-1)
}

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	distributes := func(a, b, c int64) bool {
		x, y, z := FromInt64(a), FromInt64(b), FromInt64(c)
		return x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
	}
	if err := quick.Check(distributes, cfg); err != nil {
		t.Error(err)
	}
	addCommutes := func(a, b int64) bool {
		x, y := FromInt64(a), FromInt64(b)
		return x.Add(y).Equal(y.Add(x))
	}
	if err := quick.Check(addCommutes, cfg); err != nil {
		t.Error(err)
	}
	subInverse := func(a, b int64) bool {
		x, y := FromInt64(a), FromInt64(b)
		return x.Sub(y).Add(y).Equal(x)
	}
	if err := quick.Check(subInverse, cfg); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	a := Hash([]byte("alice"))
	b := Hash([]byte("alice"))
	if !a.Equal(b) {
		t.Fatal("hash is not deterministic")
	}
	c := Hash([]byte("bob"))
	if a.Equal(c) {
		t.Fatal("hash collision between distinct inputs (astronomically unlikely)")
	}
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		h := Hash([]byte{byte(i), byte(i >> 8)})
		key := h.String()
		if seen[key] {
			t.Fatal("hash collision in small sample")
		}
		seen[key] = true
	}
}

func TestRandomNonZero(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, err := RandomNonZero(nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.IsZero() {
			t.Fatal("RandomNonZero returned zero")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	s := MustRandom()
	if got := FromBytes(s.Bytes()); !got.Equal(s) {
		t.Fatal("bytes round trip failed")
	}
	if len(s.Bytes()) != 32 {
		t.Fatalf("encoding should be 32 bytes, got %d", len(s.Bytes()))
	}
}

func TestVectorCloneIsDeep(t *testing.T) {
	v := Vector{FromInt64(1), FromInt64(2)}
	c := v.Clone()
	c[0] = FromInt64(99)
	if !v[0].Equal(FromInt64(1)) {
		t.Fatal("clone aliases the original")
	}
	if v.Equal(c) {
		t.Fatal("Equal should detect the difference")
	}
	if !v.Equal(v.Clone()) {
		t.Fatal("identical vectors should be equal")
	}
}
