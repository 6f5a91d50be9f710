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
// multiplication by a reduced scalar allocates nothing, and neither does
// BaseMultG1s on a batch of 11: a lane chunk, where the CPU has one,
// and a scalar tail.
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
	ks := make([][32]byte, laneRows+3)
	out := make([]*G1, len(ks))
	for i := range ks {
		randScalar(t).FillBytes(ks[i][:])
		out[i] = new(G1)
	}
	BaseMultG1s(out, ks)
	if n := testing.AllocsPerRun(20, func() { BaseMultG1s(out, ks) }); n != 0 {
		t.Errorf("BaseMultG1s allocates %v times per call", n)
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
// The batch calls run across BaseMultG1s's group edge (checkGroupEdges)
// on random scalars. On a CPU without BMI2 and ADX the addition is the
// Go code and its part skips.
func TestCombKernelsMatchGeneric(t *testing.T) {
	for i := range combWindows {
		for mag := uint64(0); mag <= combEntries; mag++ {
			checkCombSelect(t, i, mag)
		}
	}
	if useIFMA {
		checkCombLanesGrid(t)
		checkG2CombLanesGrid(t)
	}
	kr := mrand.New(mrand.NewSource(3))
	ks := make([]*big.Int, BaseMultGroup+laneRows+1)
	for i := range ks {
		ks[i] = new(big.Int).Rand(kr, Order)
	}
	checkGroupEdges(t, ks)
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

// groupEdgeSizes are batch lengths around BaseMultG1s's group edge: a
// group one short, a whole group, one over, and one over a group and a
// lane chunk.
var groupEdgeSizes = [...]int{BaseMultGroup - 1, BaseMultGroup, BaseMultGroup + 1, BaseMultGroup + laneRows + 1}

// checkGroupEdges runs BaseMultG1s and BaseMultG2s on the first n of ks
// for every n in groupEdgeSizes, with a zero scalar in the first and the
// last slot of every G1 group, and requires every output to encode as
// ScalarBaseMult's of the same scalar, one by one. ks must hold
// BaseMultGroup + laneRows + 1 scalars below 2^256.
func checkGroupEdges(t testing.TB, ks []*big.Int) {
	t.Helper()
	want1 := make([][]byte, len(ks))
	want2 := make([][]byte, len(ks))
	for i, k := range ks {
		want1[i] = new(G1).ScalarBaseMult(k).Marshal()
		want2[i] = new(G2).ScalarBaseMult(k).Marshal()
	}
	zero := new(big.Int)
	zero1, zero2 := new(G1).ScalarBaseMult(zero).Marshal(), new(G2).ScalarBaseMult(zero).Marshal()
	for _, n := range groupEdgeSizes {
		zeroAt := make([]bool, n)
		for lo := 0; lo < n; lo += BaseMultGroup {
			zeroAt[lo], zeroAt[min(lo+BaseMultGroup, n)-1] = true, true
		}
		bs := make([][32]byte, n)
		out1 := make([]*G1, n)
		out2 := make([]*G2, n)
		for i := range bs {
			if !zeroAt[i] {
				ks[i].FillBytes(bs[i][:])
			}
			out1[i], out2[i] = new(G1), new(G2)
		}
		BaseMultG1s(out1, bs)
		BaseMultG2s(out2, bs)
		for i := range bs {
			w1, w2, k := want1[i], want2[i], ks[i]
			if zeroAt[i] {
				w1, w2, k = zero1, zero2, zero
			}
			if !bytes.Equal(out1[i].Marshal(), w1) {
				t.Fatalf("batch of %d, scalar %d: BaseMultG1s differs from ScalarBaseMult for k = %v", n, i, k)
			}
			if !bytes.Equal(out2[i].Marshal(), w2) {
				t.Fatalf("batch of %d, scalar %d: BaseMultG2s differs from ScalarBaseMult for k = %v", n, i, k)
			}
		}
	}
}

// checkCombLanesGrid runs checkCombLanes on every row of the table,
// nine times, with the 72 lanes of a row taking every digit magnitude
// 0..32 with both signs. The lanes' coordinates run through the
// {0, 1, p-1} grid of all five, then random ones; every third call's
// lanes are curve points instead, with P = Q, P = -Q, P = (0:1:0) and Q
// a table entry. Representatives are high or low at random.
func checkCombLanesGrid(t *testing.T) {
	r := mrand.New(mrand.NewSource(4))
	randFp := func() gfP { return rawGFp(new(big.Int).Rand(r, P)) }
	edges := []gfP{{}, rawGFp(big.NewInt(1)), rawGFp(new(big.Int).Sub(P, big.NewInt(1)))}
	var ps [laneRows]g1Proj
	var qs [laneRows]g1Affine
	var high [laneRows]bool
	var mag, sign [laneRows]uint64
	n := 0
	for i := range combWindows {
		for c := range 9 {
			for k := range laneRows {
				d := (c*laneRows + k) % (2 * (combEntries + 1))
				mag[k], sign[k] = uint64(d/2), uint64(d%2)
				high[k] = r.Intn(2) == 1
				if c%3 == 2 {
					q := g1Comb[r.Intn(combWindows)][r.Intn(combEntries)]
					lambda := randFp()
					var p g1Proj
					p.x.Mul(&q.x, &lambda)
					p.y.Mul(&q.y, &lambda)
					p.z = lambda
					switch k % 4 {
					case 1:
						p.y.Neg(&p.y)
					case 2:
						p = g1Proj{y: *new(gfP).SetOne()}
					case 3:
						p = g1Proj{randFp(), randFp(), randFp()}
					}
					ps[k], qs[k] = p, q
					continue
				}
				var cs [5]gfP
				for j := range cs {
					if n < 243 {
						cs[j] = edges[n/[5]int{1, 3, 9, 27, 81}[j]%3]
					} else {
						cs[j] = randFp()
					}
				}
				n++
				ps[k], qs[k] = g1Proj{cs[0], cs[1], cs[2]}, g1Affine{cs[3], cs[4]}
			}
			checkCombLanes(t, i, &mag, &sign, &ps, &qs, &high)
		}
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

// TestBaseMultG1sMatchesScalar runs BaseMultG1s on batches of 0 to 17
// scalars (d = 5, 8 and 14 among them, and every tail a chunk of eight
// leaves) drawn from 0, 1, Order - 1, 2^256 - 1 and random scalars, and
// requires every output to encode as ScalarBaseMult's. On a CPU with
// AVX-512 IFMA the chunks of combLaneMin or more run on the lanes and
// the rest on the scalar comb; elsewhere all run on the scalar comb.
// BaseMultG2s is held to G2.ScalarBaseMult the same way.
func TestBaseMultG1sMatchesScalar(t *testing.T) {
	one := big.NewInt(1)
	special := []*big.Int{new(big.Int), one, new(big.Int).Sub(Order, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)}
	r := mrand.New(mrand.NewSource(2))
	for n := 0; n <= 17; n++ {
		ks := make([][32]byte, n)
		want := make([]*big.Int, n)
		for i := range ks {
			k := new(big.Int).Rand(r, Order)
			if r.Intn(3) == 0 {
				k = special[r.Intn(len(special))]
			}
			k.FillBytes(ks[i][:])
			want[i] = k
		}
		g1s := make([]*G1, n)
		g2s := make([]*G2, n)
		for i := range g1s {
			g1s[i], g2s[i] = new(G1), new(G2)
		}
		BaseMultG1s(g1s, ks)
		BaseMultG2s(g2s, ks)
		for i, k := range want {
			if !bytes.Equal(g1s[i].Marshal(), new(G1).ScalarBaseMult(k).Marshal()) {
				t.Fatalf("batch of %d, scalar %d: BaseMultG1s differs from ScalarBaseMult for k = %v", n, i, k)
			}
			if !bytes.Equal(g2s[i].Marshal(), new(G2).ScalarBaseMult(k).Marshal()) {
				t.Fatalf("batch of %d, scalar %d: BaseMultG2s differs from ScalarBaseMult for k = %v", n, i, k)
			}
			if !g1s[i].IsInfinity() && !g1s[i].p.z.Equal(&rOne) {
				t.Fatalf("batch of %d, scalar %d: BaseMultG1s left Z != 1", n, i)
			}
		}
	}
}

// setLaneRep sets lane k of e to the lane form of a, plus p when high:
// the lane kernels take any representative in [0, 2p).
func setLaneRep(e *lfp, k int, a *gfP, high bool) {
	e.set(k, a)
	if !high {
		return
	}
	var l [5]uint64
	for i := range l {
		l[i] = e[i][k] + laneP[i]
	}
	for i := 0; i < 4; i++ {
		l[i+1] += l[i] >> 52
		l[i] &= 1<<52 - 1
	}
	for i := range l {
		e[i][k] = l[i]
	}
}

// laneValueOK reports whether lane k of e holds the lane kernels'
// invariant: every limb below 2^52 and the value below 2p.
func laneValueOK(e *lfp, k int) bool {
	v := new(big.Int)
	for i := 4; i >= 0; i-- {
		if e[i][k] >= 1<<52 {
			return false
		}
		v.Lsh(v, 52).Or(v, new(big.Int).SetUint64(e[i][k]))
	}
	return v.Cmp(new(big.Int).Lsh(P, 1)) < 0
}

// checkCombLanes runs the lane comb kernels on eight lanes and checks
// each lane, converted back, against the scalar comb: the lane select on
// row i at the digits (mag[k], sign[k]) against selectEntry, into a
// result holding garbage, and g1AddMixedLanes on ps[k] and qs[k] (the
// representative in [p, 2p) where high[k]) against addMixedG1 where
// mag[k] is not zero and against ps[k] where it is, with the output
// apart from p and aliasing it. Every output lane must be normalised
// and below 2p.
func checkCombLanes(t testing.TB, i int, mag, sign *[laneRows]uint64, ps *[laneRows]g1Proj, qs *[laneRows]g1Affine, high *[laneRows]bool) {
	t.Helper()
	g1LaneOnce.Do(func() { buildG1LaneComb(&g1LaneComb) })
	var q g1LaneAffine
	for c := range q {
		for j := range q[c] {
			for k := range q[c][j] {
				q[c][j][k] = ^uint64(0)
			}
		}
	}
	g1LaneComb[i].selectLanes(&q, mag, sign)
	for k := range laneRows {
		var want g1Affine
		g1Comb[i].selectEntry(&want, mag[k], sign[k])
		got := g1Affine{q[0].get(k), q[1].get(k)}
		if got != want || !laneValueOK(&q[0], k) || !laneValueOK(&q[1], k) {
			t.Fatalf("G1 lane select row %d lane %d, digit (%d, %d): %v, want %v", i, k, mag[k], sign[k], got, want)
		}
	}

	var p g1LaneProj
	var qa g1LaneAffine
	for k := range laneRows {
		setLaneRep(&p[0], k, &ps[k].x, high[k])
		setLaneRep(&p[1], k, &ps[k].y, !high[k])
		setLaneRep(&p[2], k, &ps[k].z, high[k])
		setLaneRep(&qa[0], k, &qs[k].x, !high[k])
		setLaneRep(&qa[1], k, &qs[k].y, high[k])
	}
	var apart g1LaneProj
	g1AddMixedLanes(&apart, &p, &qa, mag)
	alias := p
	g1AddMixedLanes(&alias, &alias, &qa, mag)
	for k := range laneRows {
		want := ps[k]
		if mag[k] != 0 {
			addMixedG1(&want, &ps[k], &qs[k])
		}
		for _, r := range []*g1LaneProj{&apart, &alias} {
			got := g1Proj{r[0].get(k), r[1].get(k), r[2].get(k)}
			if got != want || !laneValueOK(&r[0], k) || !laneValueOK(&r[1], k) || !laneValueOK(&r[2], k) {
				t.Fatalf("g1AddMixedLanes lane %d (digit %d, high %v, aliased %v): %v + %v = %v, want %v",
					k, mag[k], high[k], r == &alias, ps[k], qs[k], got, want)
			}
		}
	}
}

// setLaneRepFp2 sets lane k of e to a, each coordinate in the
// representative setLaneRep picks: a0 high where high is set, a1 the
// other way.
func setLaneRepFp2(e *lfp2, k int, a *gfP2, high bool) {
	setLaneRep(&e[0], k, &a.a0, high)
	setLaneRep(&e[1], k, &a.a1, !high)
}

// checkG2CombLanesGrid is checkCombLanesGrid on the twist: every row,
// nine times, the 72 lanes of a row taking every digit magnitude 0..32
// with both signs. The lanes' ten coordinates come from the {0, 1,
// p-1} grid, then random ones; every third call's lanes are twist
// points with P = Q, P = -Q, P = (0:1:0) and random P, Q a table
// entry.
func checkG2CombLanesGrid(t *testing.T) {
	r := mrand.New(mrand.NewSource(5))
	randFp := func() gfP { return rawGFp(new(big.Int).Rand(r, P)) }
	randFp2 := func() gfP2 { return gfP2{randFp(), randFp()} }
	edges := []gfP{{}, rawGFp(big.NewInt(1)), rawGFp(new(big.Int).Sub(P, big.NewInt(1)))}
	var ps [laneRows]g2Proj
	var qs [laneRows]g2Affine
	var high [laneRows]bool
	var mag, sign [laneRows]uint64
	n := 0
	for i := range combWindows {
		for c := range 9 {
			for k := range laneRows {
				d := (c*laneRows + k) % (2 * (combEntries + 1))
				mag[k], sign[k] = uint64(d/2), uint64(d%2)
				high[k] = r.Intn(2) == 1
				if c%3 == 2 {
					q := g2Comb[r.Intn(combWindows)][r.Intn(combEntries)]
					lambda := randFp2()
					var p g2Proj
					p.x.Mul(&q.x, &lambda)
					p.y.Mul(&q.y, &lambda)
					p.z = lambda
					switch k % 4 {
					case 1:
						p.y.Neg(&p.y)
					case 2:
						p = g2Proj{y: *new(gfP2).SetOne()}
					case 3:
						p = g2Proj{randFp2(), randFp2(), randFp2()}
					}
					ps[k], qs[k] = p, q
					continue
				}
				var cs [10]gfP
				for j := range cs {
					if n < 3*3*3*3*3 {
						cs[j] = edges[(n/[5]int{1, 3, 9, 27, 81}[j%5]+j/5)%3]
					} else {
						cs[j] = randFp()
					}
				}
				n++
				ps[k] = g2Proj{gfP2{cs[0], cs[1]}, gfP2{cs[2], cs[3]}, gfP2{cs[4], cs[5]}}
				qs[k] = g2Affine{gfP2{cs[6], cs[7]}, gfP2{cs[8], cs[9]}}
			}
			checkG2CombLanes(t, i, &mag, &sign, &ps, &qs, &high)
		}
	}
}

// checkG2CombLanes is checkCombLanes on the twist: the select of row i
// against selectEntry, into a result holding garbage, and
// ltwist.addMixedKeep on ps[k] and qs[k] against addMixedG2 where mag[k]
// is not zero and against ps[k] where it is, each coordinate in either
// representative of [0, 2p) as high[k] picks. Every output lane must be
// normalised and below 2p.
func checkG2CombLanes(t testing.TB, i int, mag, sign *[laneRows]uint64, ps *[laneRows]g2Proj, qs *[laneRows]g2Affine, high *[laneRows]bool) {
	t.Helper()
	g2LaneOnce.Do(func() { buildG2LaneComb(&g2LaneComb) })
	var q g2LaneAffine
	for c := range q {
		for j := range q[c] {
			for l := range q[c][j] {
				for k := range q[c][j][l] {
					q[c][j][l][k] = ^uint64(0)
				}
			}
		}
	}
	g2LaneComb[i].selectLanes(&q, mag, sign)
	for k := range laneRows {
		var want g2Affine
		g2Comb[i].selectEntry(&want, mag[k], sign[k])
		got := g2Affine{q[0].get(k), q[1].get(k)}
		if got != want || !lane2ValueOK(&q[0], k) || !lane2ValueOK(&q[1], k) {
			t.Fatalf("G2 lane select row %d lane %d, digit (%d, %d): %v, want %v", i, k, mag[k], sign[k], got, want)
		}
	}

	var p ltwist
	var qa g2LaneAffine
	for k := range laneRows {
		setLaneRepFp2(&p.x, k, &ps[k].x, high[k])
		setLaneRepFp2(&p.y, k, &ps[k].y, !high[k])
		setLaneRepFp2(&p.z, k, &ps[k].z, high[k])
		setLaneRepFp2(&qa[0], k, &qs[k].x, !high[k])
		setLaneRepFp2(&qa[1], k, &qs[k].y, high[k])
	}
	p.addMixedKeep(&qa, mag)
	for k := range laneRows {
		want := ps[k]
		if mag[k] != 0 {
			addMixedG2(&want, &ps[k], &qs[k])
		}
		got := g2Proj{p.x.get(k), p.y.get(k), p.z.get(k)}
		if got != want || !lane2ValueOK(&p.x, k) || !lane2ValueOK(&p.y, k) || !lane2ValueOK(&p.z, k) {
			t.Fatalf("G2 lane addition lane %d (digit %d, high %v): %v + %v = %v, want %v", k, mag[k], high[k], ps[k], qs[k], got, want)
		}
	}
}

func lane2ValueOK(e *lfp2, k int) bool { return laneValueOK(&e[0], k) && laneValueOK(&e[1], k) }
