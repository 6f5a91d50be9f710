package zq

import (
	"bytes"
	"crypto/rand"
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

// Exp returns s^k mod q for k >= 0 by square-and-multiply over the bits
// of k, which is public. Only tests raise scalars to integer powers.
func (s Scalar) Exp(k int) Scalar {
	if k < 0 {
		panic("zq: negative exponent")
	}
	r := One()
	for i := bits.Len(uint(k)) - 1; i >= 0; i-- {
		r = r.Mul(r)
		if k>>i&1 == 1 {
			r = r.Mul(s)
		}
	}
	return r
}

// limbsBig returns the little-endian limbs of n, which must fit in 256
// bits.
func limbsBig(n *big.Int) [4]uint64 {
	var b [32]byte
	n.FillBytes(b[:])
	return limbsOf(&b)
}

// TestConstants derives every limb constant from bn256.Order (through
// Q) and checks the copy written out in zq.go.
func TestConstants(t *testing.T) {
	one := big.NewInt(1)
	r := new(big.Int).Lsh(one, 256)
	if Q.BitLen() != 254 {
		t.Fatalf("q has %d bits; montMul's no-carry bounds assume q < 2^254", Q.BitLen())
	}
	for _, c := range []struct {
		name string
		got  [4]uint64
		want *big.Int
	}{
		{"qLimbs", qLimbs, Q},
		{"qMinus2", qMinus2, new(big.Int).Sub(Q, big.NewInt(2))},
		{"r2", r2, new(big.Int).Mod(new(big.Int).Mul(r, r), Q)},
		{"rOne", rOne, new(big.Int).Mod(r, Q)},
	} {
		if c.got != limbsBig(c.want) {
			t.Errorf("%s = %x, want %x", c.name, c.got, limbsBig(c.want))
		}
	}
	// qInvNeg * q = -1 mod 2^64.
	if uint64(qInvNeg)*qLimbs[0] != ^uint64(0) {
		t.Errorf("qInvNeg is not -q^-1 mod 2^64")
	}
}

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
	for _, x := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64} {
		want := new(big.Int).Mod(big.NewInt(x), Q)
		if got := FromInt64(x).Big(); got.Cmp(want) != 0 {
			t.Errorf("FromInt64(%d) = %v, want %v", x, got, want)
		}
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
	x := FromInt64(-5)
	want := new(big.Int).Exp(x.Big(), big.NewInt(1000003), Q)
	if got := x.Exp(1000003); got.Big().Cmp(want) != 0 {
		t.Fatalf("(-5)^1000003 = %v, want %v", got, want)
	}
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

// FuzzScalarArith checks the Montgomery field against math/big on any
// two byte strings a and b: FromBytes reduces each mod q (over any
// length, so the multi-chunk path runs too), and Add, Sub, Mul, Neg,
// Inv, Bytes and Equal must agree with the reference on the results.
// Random, fed a||b as its rng, must return what crypto/rand.Int(rng, Q)
// returns and leave the same bytes unread. The corpus under
// testdata/fuzz/FuzzScalarArith seeds 0, 1, q-1, q, 2^256-1 and random
// operands.
func FuzzScalarArith(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x, y := FromBytes(a), FromBytes(b)
		xb := new(big.Int).Mod(new(big.Int).SetBytes(a), Q)
		yb := new(big.Int).Mod(new(big.Int).SetBytes(b), Q)
		check := func(op string, got Scalar, want *big.Int) {
			t.Helper()
			var enc [32]byte
			want.FillBytes(enc[:])
			if !bytes.Equal(got.Bytes(), enc[:]) || got.Big().Cmp(want) != 0 {
				t.Fatalf("%s: got %v, want %v", op, got, want)
			}
			if round := FromBytes(enc[:]); !round.Equal(got) {
				t.Fatalf("%s: FromBytes(Bytes()) = %v", op, round)
			}
		}
		check("FromBytes(a)", x, xb)
		check("FromBytes(b)", y, yb)
		check("Add", x.Add(y), new(big.Int).Mod(new(big.Int).Add(xb, yb), Q))
		check("Sub", x.Sub(y), new(big.Int).Mod(new(big.Int).Sub(xb, yb), Q))
		check("Mul", x.Mul(y), new(big.Int).Mod(new(big.Int).Mul(xb, yb), Q))
		check("Neg", x.Neg(), new(big.Int).Mod(new(big.Int).Neg(xb), Q))
		if x.Equal(y) != (xb.Cmp(yb) == 0) || x.IsZero() != (xb.Sign() == 0) {
			t.Fatalf("Equal/IsZero disagree with math/big on %v, %v", xb, yb)
		}
		if !x.IsZero() {
			check("Inv", x.Inv(), new(big.Int).ModInverse(xb, Q))
		}

		stream := append(append([]byte{}, a...), b...)
		ours, refRNG := bytes.NewReader(stream), bytes.NewReader(stream)
		got, err := Random(ours)
		want, wantErr := rand.Int(refRNG, Q)
		if (err == nil) != (wantErr == nil) || ours.Len() != refRNG.Len() {
			t.Fatalf("Random: err %v, %d bytes left; crypto/rand.Int: err %v, %d left",
				err, ours.Len(), wantErr, refRNG.Len())
		}
		if err == nil {
			check("Random", got, want)
		}
	})
}

// TestArithmeticAllocs pins the field operations SJ.Enc's vector
// product runs per entry at zero heap allocations.
func TestArithmeticAllocs(t *testing.T) {
	x, y := MustRandom(), MustRandom()
	var sink Scalar
	for name, op := range map[string]func(){
		"Mul": func() { sink = x.Mul(y) },
		"Add": func() { sink = x.Add(y) },
		"Sub": func() { sink = x.Sub(y) },
		"Neg": func() { sink = x.Neg() },
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("Scalar.%s allocates %v times per call", name, n)
		}
	}
	_ = sink
}

func BenchmarkScalarMul(b *testing.B) {
	x, y := MustRandom(), MustRandom()
	for b.Loop() {
		x = x.Mul(y)
	}
}

func BenchmarkScalarInv(b *testing.B) {
	x := MustRandom()
	for b.Loop() {
		x = x.Inv()
	}
}
