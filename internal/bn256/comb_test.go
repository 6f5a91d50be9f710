package bn256

import (
	"bytes"
	"math/big"
	"testing"
)

// combScalars returns the differential scalars of the comb: 0 to 64
// (every Booth digit and sign), 2^(6i) - 1, 2^(6i) and 2^(6i) + 1 (window
// carries), the scalars around Order and at the top of the limbs (they
// go through norm), and random ones.
func combScalars(t *testing.T) []*big.Int {
	one := big.NewInt(1)
	var ks []*big.Int
	for k := int64(0); k <= 64; k++ {
		ks = append(ks, big.NewInt(k))
	}
	for i := uint(1); i < combWindows; i++ {
		pow := new(big.Int).Lsh(one, 6*i)
		ks = append(ks, new(big.Int).Sub(pow, one), pow, new(big.Int).Add(pow, one))
	}
	ks = append(ks,
		new(big.Int).Sub(Order, one), new(big.Int).Set(Order), new(big.Int).Add(Order, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 254), one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one))
	for range 20 {
		ks = append(ks, randScalar(t))
	}
	return ks
}

// TestCombMatchesWNAF pins the comb to the wNAF Mul by encoding, in
// both groups, and in G1 to the big.Int affine reference as well.
func TestCombMatchesWNAF(t *testing.T) {
	gen := affineFromCurvePoint(&curveGen)
	for _, k := range combScalars(t) {
		var g1 G1
		g1.p.Mul(&curveGen, k)
		comb1 := new(G1).ScalarBaseMult(k)
		if !bytes.Equal(comb1.Marshal(), g1.Marshal()) {
			t.Fatalf("G1 comb differs from the wNAF for k = %v", k)
		}
		if !affineFromCurvePoint(&comb1.p).equal(affineMul(gen, k)) {
			t.Fatalf("G1 comb differs from the affine reference for k = %v", k)
		}
		var g2 G2
		g2.p.Mul(&twistGen, k)
		if !bytes.Equal(new(G2).ScalarBaseMult(k).Marshal(), g2.Marshal()) {
			t.Fatalf("G2 comb differs from the wNAF for k = %v", k)
		}
	}
}

// TestBoothW6Recoding checks that the 43 signed digits of a scalar below
// Order sum back to it and never exceed 32 in magnitude.
func TestBoothW6Recoding(t *testing.T) {
	for _, k := range combScalars(t) {
		if k.Cmp(Order) >= 0 {
			continue
		}
		s := combScalar(k)
		sum := new(big.Int)
		for i := combWindows - 1; i >= 0; i-- {
			mag, sign := combDigit(&s, i)
			if mag > combEntries || sign > 1 {
				t.Fatalf("k = %v: window %d digit (%d, %d) out of range", k, i, mag, sign)
			}
			d := new(big.Int).SetUint64(mag)
			if sign == 1 {
				d.Neg(d)
			}
			sum.Lsh(sum, 6)
			sum.Add(sum, d)
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("digits of %v sum to %v", k, sum)
		}
	}
}

// TestScalarBaseMultAllocs checks that, once the tables exist, a base
// multiplication by a reduced scalar allocates nothing.
func TestScalarBaseMultAllocs(t *testing.T) {
	k := randScalar(t)
	var g1 G1
	var g2 G2
	g1.ScalarBaseMult(k)
	g2.ScalarBaseMult(k)
	if n := testing.AllocsPerRun(20, func() { g1.ScalarBaseMult(k) }); n != 0 {
		t.Errorf("G1.ScalarBaseMult allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { g2.ScalarBaseMult(k) }); n != 0 {
		t.Errorf("G2.ScalarBaseMult allocates %v times per call", n)
	}
}

// BenchmarkCombTableBuild is the one-time cost of the comb tables, which
// the first ScalarBaseMult in each group pays.
func BenchmarkCombTableBuild(b *testing.B) {
	b.Run("G1", func(b *testing.B) {
		t := new([combWindows]g1CombRow)
		for range b.N {
			buildG1Comb(t)
		}
	})
	b.Run("G2", func(b *testing.B) {
		t := new([combWindows]g2CombRow)
		for range b.N {
			buildG2Comb(t)
		}
	})
}
