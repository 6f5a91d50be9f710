package bn256

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"testing"
	"unsafe"
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

// TestCombKernelsMatchGeneric pins the comb's assembly kernels to the Go
// code they stand in for, limb for limb. The select runs on every row of
// both tables at every digit magnitude 0..32 and both signs. The G1
// mixed addition runs on the whole {0, 1, p-1} grid of its five input
// coordinates, on random reduced ones, and on curve points with P = Q,
// P = -Q, P = (0:1:0) and Q = (0, 0), the entry a zero digit selects.
// On a CPU without BMI2 and ADX the addition is the Go code and its part
// skips.
func TestCombKernelsMatchGeneric(t *testing.T) {
	for i := range combWindows {
		for mag := uint64(0); mag <= combEntries; mag++ {
			checkCombSelect(t, i, mag)
		}
	}
	if !useADX {
		t.Skip("no assembly addition kernel")
	}

	edges := []gfP{{}, rawGFp(big.NewInt(1)), rawGFp(new(big.Int).Sub(P, big.NewInt(1)))}
	for _, x1 := range edges {
		for _, y1 := range edges {
			for _, z1 := range edges {
				for _, x2 := range edges {
					for _, y2 := range edges {
						checkAddMixed(t, g1Proj{x1, y1, z1}, g1Affine{x2, y2})
					}
				}
			}
		}
	}
	r := mrand.New(mrand.NewSource(1))
	randFp := func() gfP { return rawGFp(new(big.Int).Rand(r, P)) }
	for range 5000 {
		checkAddMixed(t, g1Proj{randFp(), randFp(), randFp()}, g1Affine{randFp(), randFp()})
	}
	for range 200 {
		var c curvePoint
		c.Mul(&curveGen, new(big.Int).Rand(r, Order))
		c.MakeAffine()
		q := g1Affine{c.x, c.y}
		lambda := randFp()
		var p, np g1Proj
		p.x.Mul(&q.x, &lambda)
		p.y.Mul(&q.y, &lambda)
		p.z = lambda
		np = p
		np.y.Neg(&p.y)
		var inf g1Proj
		inf.y.SetOne()
		checkAddMixed(t, p, q)            // P = Q
		checkAddMixed(t, np, q)           // P = -Q
		checkAddMixed(t, inf, q)          // P = (0:1:0)
		checkAddMixed(t, p, g1Affine{})   // Q = (0, 0)
		checkAddMixed(t, inf, g1Affine{}) // both
		checkAddMixed(t, p, g1Comb[r.Intn(combWindows)][r.Intn(combEntries)])
	}
}

// checkCombSelect runs the select of row i at magnitude mag, with both
// signs, in both groups, against the Go select, into a result holding
// garbage beforehand.
func checkCombSelect(t testing.TB, i int, mag uint64) {
	t.Helper()
	g1CombOnce.Do(func() { buildG1Comb(&g1Comb) })
	g2CombOnce.Do(func() { buildG2Comb(&g2Comb) })
	junk := gfP{^uint64(0), 1, 2, 3}
	for sign := uint64(0); sign <= 1; sign++ {
		var want1 g1Affine
		g1Comb[i].selectGeneric(&want1, mag)
		if sign == 1 {
			want1.y.Neg(&want1.y)
		}
		got1 := g1Affine{junk, junk}
		if g1Comb[i].selectEntry(&got1, mag, sign); got1 != want1 {
			t.Fatalf("G1 row %d, digit (%d, %d): select = %v, want %v", i, mag, sign, got1, want1)
		}
		var want2 g2Affine
		g2Comb[i].selectGeneric(&want2, mag)
		if sign == 1 {
			want2.y.Neg(&want2.y)
		}
		got2 := g2Affine{gfP2{junk, junk}, gfP2{junk, junk}}
		if g2Comb[i].selectEntry(&got2, mag, sign); got2 != want2 {
			t.Fatalf("G2 row %d, digit (%d, %d): select = %v, want %v", i, mag, sign, got2, want2)
		}
	}
}

// checkAddMixed runs g1AddMixed on p and q against addMixedG1, with the
// output apart from the inputs and aliasing each of them, and requires
// the same limbs.
func checkAddMixed(t testing.TB, p g1Proj, q g1Affine) {
	t.Helper()
	var want, got g1Proj
	addMixedG1(&want, &p, &q)
	g1AddMixed(&got, &p, &q)
	x := p
	g1AddMixed(&x, &x, &q)
	// An affine point is the first two coordinates of a g1Proj, so the
	// output can overlap q as well.
	y := g1Proj{q.x, q.y, gfP{1, 2, 3, 4}}
	g1AddMixed(&y, &p, (*g1Affine)(unsafe.Pointer(&y)))
	if got != want || x != want || y != want {
		t.Fatalf("g1AddMixed(%v, %v) = %v, %v (r = p), %v (r = q); want %v", p, q, got, x, y, want)
	}
}
