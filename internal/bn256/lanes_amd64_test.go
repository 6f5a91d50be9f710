//go:build !purego

package bn256

import (
	crand "crypto/rand"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestCPUFeatures checks the CPUID and XGETBV detection behind useADX
// and useIFMA against the kernel's view of the CPU, the flags line of
// /proc/cpuinfo: useADX must equal adx && bmi2, and useIFMA must equal
// avx512f && avx512ifma (the kernel lists AVX-512 flags only when it
// saves the ZMM state, which is what XGETBV checks). Where /proc/cpuinfo
// cannot be read it skips. It logs the paths this CPU takes for SJ.Dec,
// the token precompute, the token's G2 decode and SJ.Enc's G1 comb, on
// one line.
func TestCPUFeatures(t *testing.T) {
	scalar := "generic Go"
	if useADX {
		scalar = "ADX"
	}
	dec := scalar + " rows"
	pre := "scalar recorder (" + scalar + ")"
	g2 := "scalar subgroup checks (" + scalar + ")"
	enc := "scalar comb (" + scalar + ")"
	if useIFMA {
		dec = fmt.Sprintf("lanes (AVX-512 IFMA) for programs recorded there, %s rows for the others", scalar)
		pre = fmt.Sprintf("lane recorder for %d or more live slots, scalar recorder below", laneMinSlots)
		g2 = fmt.Sprintf("lane square roots and subgroup checks for groups of %d or more points, scalar below", laneMinPoints)
		enc = fmt.Sprintf("lane comb for chunks of %d or more scalars, %s below", combLaneMin, enc)
	}
	t.Logf("SJ.Dec path: %s; token precompute: %s; token decode: %s; SJ.Enc and TokenGen combs: %s (useADX=%v useIFMA=%v)",
		dec, pre, g2, enc, useADX, useIFMA)
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo to check the detection against: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(data), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line to check the detection against")
	}
	if want := flags["adx"] && flags["bmi2"]; useADX != want {
		t.Errorf("useADX = %v, /proc/cpuinfo says adx && bmi2 = %v", useADX, want)
	}
	if want := flags["avx512f"] && flags["avx512ifma"]; useIFMA != want {
		t.Errorf("useIFMA = %v, /proc/cpuinfo says avx512f && avx512ifma = %v", useIFMA, want)
	}
}

// skipWithoutLanes skips a lane test on a CPU without AVX-512 IFMA.
func skipWithoutLanes(t testing.TB) {
	t.Helper()
	if !useIFMA {
		t.Skip("lane kernels need AVX-512 IFMA, which this CPU lacks: lane tests skipped")
	}
}

// laneRep is how a lane test picks each coordinate's representative in
// [0, 2p): repMixed alternates between [0, p) and [p, 2p) from one
// coordinate to the next, starting from the lane's flag (and from its
// opposite for b and l3); repAllHigh puts every coordinate of every
// operand in [p, 2p), driving every Karatsuba operand sum and every wide
// sum toward its upper bound (a lane whose coordinates are all laneTop's
// is at 2p - 1 throughout); repApart puts a coordinate whose lane value
// is below p/2 in [0, p) and any other in [p, 2p), so that values near
// 0 and near p - 1 become the extremes 0 and 2p - 1, toward the signed
// sums' lower bounds as well.
type laneRep int

const (
	repMixed laneRep = iota
	repAllHigh
	repApart
)

func (r laneRep) String() string { return [...]string{"mixed", "all high", "apart"}[r] }

// setLaneRep2 and setLaneRep12 set lane k of e to a with the
// representatives of rep, high the lane's flag.
func setLaneRep2(e *lfp2, k int, a *gfP2, high bool, rep laneRep) {
	hi0, hi1 := high, !high
	switch rep {
	case repAllHigh:
		hi0, hi1 = true, true
	case repApart:
		half := new(big.Int).Rsh(P, 1)
		hi0, hi1 = laneValue(&a.a0).Cmp(half) >= 0, laneValue(&a.a1).Cmp(half) >= 0
	}
	setLaneRep(&e[0], k, &a.a0, hi0)
	setLaneRep(&e[1], k, &a.a1, hi1)
}

func setLaneRep12(e *lfp12, k int, a *gfP12, high bool, rep laneRep) {
	for j, b := range [6]*gfP2{&a.c0.b0, &a.c0.b1, &a.c0.b2, &a.c1.b0, &a.c1.b1, &a.c1.b2} {
		setLaneRep2(&e[j/3][j%3], k, b, high != (j%2 == 0), rep)
	}
}

// checkLaneKernels runs the lane kernels and the lane tower on ops[k] in
// lane k, with the representatives of rep (high[k] the lane's flag), and
// checks every lane, converted back, against the scalar kernels: the
// assembly ones where the CPU has them and the Go ones (the *Generic
// methods), limb for limb, and every output coordinate against the lane
// invariant. The kernels that may alias run apart and aliased.
func checkLaneKernels(t testing.TB, ops *[laneRows]towerOperands, high *[laneRows]bool, rep laneRep) {
	t.Helper()
	var a, b, cyc lfp12
	var l1, l3 lfp2
	cycs := make([]gfP12, laneRows)
	for k := range ops {
		o := &ops[k]
		setLaneRep12(&a, k, &o.a, high[k], rep)
		setLaneRep12(&b, k, &o.b, !high[k], rep)
		setLaneRep2(&l1, k, &o.l1, high[k], rep)
		setLaneRep2(&l3, k, &o.l3, !high[k], rep)
		cycs[k] = *easyPart(t, &o.a)
		setLaneRep12(&cyc, k, &cycs[k], high[k], rep)
	}
	fail := func(name string, k int, got, want any) {
		t.Helper()
		t.Fatalf("%s lane %d (high %v, %v): got %v, want %v", name, k, high[k], rep, got, want)
	}
	// stored checks that every coordinate of lane k of an output keeps
	// the lane invariant, normalised limbs and a value below 2p: the
	// conversion back reduces, so a value check alone would pass an
	// output that skipped its last reduction.
	stored := func(name string, k int, es ...*lfp) {
		t.Helper()
		for i, e := range es {
			if !laneValueOK(e, k) {
				t.Fatalf("%s lane %d (high %v, %v): coordinate %d is not normalised below 2p", name, k, high[k], rep, i)
			}
		}
	}

	var c lfp
	lfpMul(&c, &a[0][0][0], &b[0][0][0])
	for k := range ops {
		x, y := &ops[k].a.c0.b0.a0, &ops[k].b.c0.b0.a0
		var want, gen gfP
		want.Mul(x, y)
		gen.mulGeneric(x, y)
		if got := c.get(k); got != want || got != gen {
			fail("lfpMul", k, &got, &want)
		}
		stored("lfpMul", k, &c)
	}
	lfpAdd(&c, &a[0][0][0], &b[0][0][0])
	for k := range ops {
		var want gfP
		want.Add(&ops[k].a.c0.b0.a0, &ops[k].b.c0.b0.a0)
		if got := c.get(k); got != want {
			fail("lfpAdd", k, &got, &want)
		}
		stored("lfpAdd", k, &c)
	}
	lfpSub(&c, &a[0][0][0], &b[0][0][0])
	for k := range ops {
		var want gfP
		want.Sub(&ops[k].a.c0.b0.a0, &ops[k].b.c0.b0.a0)
		if got := c.get(k); got != want {
			fail("lfpSub", k, &got, &want)
		}
		stored("lfpSub", k, &c)
	}

	type fp2Case struct {
		name string
		lane func(c, x, y *lfp2)
		ref  func(x, y *gfP2) []gfP2
	}
	fp2Cases := []fp2Case{
		{"lfp2Add", lfp2Add, func(x, y *gfP2) []gfP2 { var e gfP2; return []gfP2{*e.Add(x, y)} }},
		{"lfp2Sub", lfp2Sub, func(x, y *gfP2) []gfP2 { var e gfP2; return []gfP2{*e.Sub(x, y)} }},
		{"lfp2Mul", lfp2Mul, func(x, y *gfP2) []gfP2 {
			var e, g gfP2
			return []gfP2{*e.Mul(x, y), *g.mulGeneric(x, y)}
		}},
		{"lfp2Square", func(c, x, _ *lfp2) { lfp2Square(c, x) }, func(x, _ *gfP2) []gfP2 {
			var e, g gfP2
			return []gfP2{*e.Square(x), *g.squareGeneric(x)}
		}},
		{"lfp2MulXi", func(c, x, _ *lfp2) { lfp2MulXi(c, x) }, func(x, _ *gfP2) []gfP2 { var e gfP2; return []gfP2{*e.MulXi(x)} }},
	}
	for _, fc := range fp2Cases {
		x, y := &a[1][2], &b[0][1]
		var apart lfp2
		fc.lane(&apart, x, y)
		aliasX, aliasY := *x, *y
		fc.lane(&aliasX, &aliasX, y)
		fc.lane(&aliasY, x, &aliasY)
		for k := range ops {
			for _, want := range fc.ref(&ops[k].a.c1.b2, &ops[k].b.c0.b1) {
				for _, got := range []gfP2{apart.get(k), aliasX.get(k)} {
					if got != want {
						fail(fc.name, k, &got, &want)
					}
				}
				stored(fc.name, k, &apart[0], &apart[1], &aliasX[0], &aliasX[1])
				if fc.name != "lfp2Square" && fc.name != "lfp2MulXi" {
					if got := aliasY.get(k); got != want {
						fail(fc.name+" (c = b)", k, &got, &want)
					}
				}
			}
		}
	}

	// The Fp6 product, apart and aliasing each operand.
	x6, y6 := &a[1], &b[0]
	var apart6 lfp6
	lfp6Mul(&apart6, x6, y6)
	aliasX6, aliasY6 := *x6, *y6
	lfp6Mul(&aliasX6, &aliasX6, y6)
	lfp6Mul(&aliasY6, x6, &aliasY6)
	for k := range ops {
		var want, gen gfP6
		want.Mul(&ops[k].a.c1, &ops[k].b.c0)
		gen.mulGeneric(&ops[k].a.c1, &ops[k].b.c0)
		for name, l := range map[string]*lfp6{"lfp6Mul": &apart6, "lfp6Mul (c = a)": &aliasX6, "lfp6Mul (c = b)": &aliasY6} {
			got := gfP6{l[0].get(k), l[1].get(k), l[2].get(k)}
			if !got.Equal(&want) || !got.Equal(&gen) {
				fail(name, k, &got, &want)
			}
			stored(name, k, &l[0][0], &l[0][1], &l[1][0], &l[1][1], &l[2][0], &l[2][1])
		}
	}

	// The line instantiation: lane 0's line coefficients, broadcast,
	// at every lane's x and y.
	co := [4][5]uint64{
		laneEncode(&ops[0].l1.a0), laneEncode(&ops[0].l1.a1),
		laneEncode(&ops[0].l3.a0), laneEncode(&ops[0].l3.a1),
	}
	var l [2]lfp2
	lfpLine(&l, &co, &a[0][0][0], &a[0][0][1])
	for k := range ops {
		var w1, w3 gfP2
		w1.MulScalar(&ops[0].l1, &ops[k].a.c0.b0.a0)
		w3.MulScalar(&ops[0].l3, &ops[k].a.c0.b0.a1)
		if got := l[0].get(k); got != w1 {
			fail("lfpLine l1", k, &got, &w1)
		}
		if got := l[1].get(k); got != w3 {
			fail("lfpLine l3", k, &got, &w3)
		}
		stored("lfpLine", k, &l[0][0], &l[0][1], &l[1][0], &l[1][1])
	}

	type fp12Case struct {
		name string
		in   *lfp12
		lane func(e, x *lfp12)
		ref  func(x, y *gfP12, k int) []gfP12
	}
	fp12Cases := []fp12Case{
		{"lfp12MulLine", &a, func(e, x *lfp12) { lfp12MulLine(e, x, &l1, &l3) }, func(x, _ *gfP12, k int) []gfP12 {
			var e, g gfP12
			return []gfP12{*e.mulLine(x, &ops[k].l1, &ops[k].l3), *g.mulLineGeneric(x, &ops[k].l1, &ops[k].l3)}
		}},
		{"lfp12Square", &a, lfp12Square, func(x, _ *gfP12, _ int) []gfP12 {
			var e, g gfP12
			return []gfP12{*e.Square(x), *g.squareGeneric(x)}
		}},
		{"lfp12Mul", &a, func(e, x *lfp12) { lfp12Mul(e, x, &b) }, func(x, y *gfP12, _ int) []gfP12 {
			var e, g gfP12
			return []gfP12{*e.Mul(x, y), *g.mulGeneric(x, y)}
		}},
		{"lfp12CyclotomicSquare", &cyc, lfp12CyclotomicSquare, func(_, _ *gfP12, k int) []gfP12 {
			var e, g gfP12
			return []gfP12{*e.cyclotomicSquare(&cycs[k]), *g.cyclotomicSquareGeneric(&cycs[k])}
		}},
		{"frobenius1", &a, func(e, x *lfp12) { e.frobenius1(x) }, func(x, _ *gfP12, _ int) []gfP12 {
			var e gfP12
			return []gfP12{*e.Frobenius1(x)}
		}},
		{"frobenius2", &a, func(e, x *lfp12) { e.frobenius2(x) }, func(x, _ *gfP12, _ int) []gfP12 {
			var e gfP12
			return []gfP12{*e.Frobenius2(x)}
		}},
	}
	for _, fc := range fp12Cases {
		var apart lfp12
		fc.lane(&apart, fc.in)
		alias := *fc.in
		fc.lane(&alias, &alias)
		for k := range ops {
			for _, want := range fc.ref(&ops[k].a, &ops[k].b, k) {
				if got := apart.get(k); !got.Equal(&want) {
					fail(fc.name, k, &got, &want)
				}
				if got := alias.get(k); !got.Equal(&want) {
					fail(fc.name+" (aliased)", k, &got, &want)
				}
			}
			for _, e := range []*lfp12{&apart, &alias} {
				for h := range e {
					for j := range e[h] {
						stored(fc.name, k, &e[h][j][0], &e[h][j][1])
					}
				}
			}
		}
	}
}

// laneGrid is the edge values every lane kernel is checked on, as raw
// Montgomery limbs: zero, one and p - 1.
func laneGrid() []gfP {
	return []gfP{{}, rOne, rawGFp(new(big.Int).Sub(P, big.NewInt(1)))}
}

// laneRaw is the raw Montgomery limbs whose lane form is v: a lane value
// is 16 times the raw one mod p. laneValue is the lane form of a.
func laneRaw(v *big.Int) gfP {
	inv16 := new(big.Int).ModInverse(big.NewInt(16), P)
	return rawGFp(new(big.Int).Mod(new(big.Int).Mul(v, inv16), P))
}

func laneValue(a *gfP) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(a[i]))
	}
	return v.Mod(v.Lsh(v, 4), P)
}

// laneTop is the raw limbs whose lane form is p - 1; its representative
// in [p, 2p) is 2p - 1, the largest a lane element takes.
func laneTop() gfP { return laneRaw(new(big.Int).Sub(P, big.NewInt(1))) }

// TestLaneKernelsMatchScalar checks every lane kernel and lane tower
// operation against the scalar kernels: on the grid of {0, 1, p - 1}
// for every coefficient (each lane one combination, both
// representatives of each value) and on random operands; then all high,
// on the grid of {0, 1, laneTop} (so one lane is at 2p - 1 throughout)
// and on random operands; and apart, every coordinate near 0 or near
// 2p - 1 (repApart), in patterns that drive the signed sums toward their
// lower bounds. A kernel that skipped a reduction or LRED, or an offset
// its sum needs, fails it.
func TestLaneKernelsMatchScalar(t *testing.T) {
	skipWithoutLanes(t)
	var ops [laneRows]towerOperands
	var high [laneRows]bool
	for _, rep := range []laneRep{repMixed, repAllHigh} {
		grid := laneGrid()
		if rep == repAllHigh {
			grid[2] = laneTop()
		}
		for round := 0; round < 4; round++ {
			for k := range ops {
				i := round*laneRows + k
				x, y, z := grid[i%3], grid[i/3%3], grid[i/9%3]
				ops[k] = randTowerOperands(func() gfP { x, y, z = y, z, x; return x })
				high[k] = (i/27)%2 == 1
			}
			checkLaneKernels(t, &ops, &high, rep)
		}
		r := rand.New(rand.NewSource(3))
		for round := 0; round < 8; round++ {
			for k := range ops {
				ops[k] = randTowerOperands(func() gfP { return rawGFp(new(big.Int).Rand(r, P)) })
				high[k] = r.Intn(2) == 1
			}
			checkLaneKernels(t, &ops, &high, rep)
		}
	}
	// Apart: each coordinate within p/16 of 0 or of 2p - 1, first in
	// every combination of three patterns for a and for b, l1 and l3
	// (real parts low and imaginary parts high, the reverse, all high),
	// two rounds each, then low or high at random; a sum's sign depends
	// on these patterns, and where its offset falls short, on the
	// reduction's quotient, which the random magnitudes vary.
	r := rand.New(rand.NewSource(5))
	near := func(high bool) gfP {
		v := new(big.Int).Rand(r, new(big.Int).Rsh(P, 4))
		if high {
			v.Sub(P, v.Add(v, big.NewInt(1)))
		}
		return laneRaw(v)
	}
	patterns := [3][2]bool{{false, true}, {true, false}, {true, true}}
	for round := 0; round < 18+16; round++ {
		for k := range ops {
			c, n := round/2, 0
			ops[k] = randTowerOperands(func() gfP {
				n++
				if round >= 18 {
					return near(r.Intn(2) == 1)
				}
				pat := patterns[c/3]
				if n > 24 {
					pat = patterns[c%3]
				}
				return near(pat[(n-1)%2])
			})
		}
		checkLaneKernels(t, &ops, &high, repApart)
	}
}

// FuzzLaneKernels reads arbitrary bytes as the operands of the lane
// kernels: the 28 coefficients of a towerOperands, as FuzzTowerKernels
// reads them (32-byte big-endian chunks, each taken mod p as raw limbs,
// missing bytes zero), with lane k taking them rotated by 5k places and
// its representative in [0, 2p) from bit k of the first byte, or every
// coordinate in [p, 2p) where allHigh. Every lane kernel must match the
// scalar kernels as in TestLaneKernelsMatchScalar. The input stays as
// small as FuzzTowerKernels', so the fuzzer's minimisation of a new
// input is quick. The corpus under testdata/fuzz/FuzzLaneKernels seeds
// all-zero, every coefficient p - 1, every coefficient one, random
// bytes, and every coefficient laneTop with allHigh
// (all-top-representative: 2p - 1 in every coordinate of every lane).
// On a CPU without AVX-512 IFMA it skips.
func FuzzLaneKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, allHigh bool) {
		skipWithoutLanes(t)
		var flags byte
		if len(data) > 0 {
			flags = data[0]
		}
		var cs [28]gfP
		for j := range cs {
			var chunk [32]byte
			n := copy(chunk[:], data)
			data = data[n:]
			cs[j] = rawGFp(new(big.Int).Mod(new(big.Int).SetBytes(chunk[:]), P))
		}
		var ops [laneRows]towerOperands
		var high [laneRows]bool
		for k := range ops {
			j := 5 * k
			ops[k] = randTowerOperands(func() gfP { j++; return cs[j%len(cs)] })
			high[k] = flags>>k&1 == 1
		}
		rep := repMixed
		if allHigh {
			rep = repAllHigh
		}
		checkLaneKernels(t, &ops, &high, rep)
	})
}

// laneTestBatch returns a token of d slots whose slots listed in inf
// are at infinity, recorded by the scalar recorder and on the lanes
// whatever its live slot count (precomputeBoth), and n rows of d G1 points where row r has an infinity at slot r mod d
// unless r = 2 mod 3, and row 5 is all infinity: in 17 rows every lane
// position meets an infinity element.
func laneTestBatch(t *testing.T, d, n int, inf ...int) (scalar, lanes *PairingPrecomp, rows [][]*G1) {
	t.Helper()
	qs := make([]*G2, d)
	for j := range qs {
		_, q, err := RandomG2(crand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		qs[j] = q
	}
	for _, j := range inf {
		qs[j] = new(G2).SetInfinity()
	}
	rows = make([][]*G1, n)
	for r := range rows {
		rows[r] = randomAffineG1s(d)
		if r%3 != 2 {
			rows[r][r%d] = new(G1).SetInfinity()
		}
		if r == 5 {
			for j := range rows[r] {
				rows[r][j] = new(G1).SetInfinity()
			}
		}
	}
	scalar, lanes = precomputeBoth(qs)
	return scalar, lanes, rows
}

// TestLaneEvalMatchesRows compares the three SJ.Dec paths on chunks of
// 1 to 17 rows, with tokens without and with slots at infinity: the
// lane evaluator (evalLanes on every chunk of up to eight rows, and
// EvalRows of the lane program), the ADX row path and the generic row
// path (evalRows of the scalar program, with useADX cleared for the
// latter). The GT values must be equal.
func TestLaneEvalMatchesRows(t *testing.T) {
	skipWithoutLanes(t)
	for _, inf := range [][]int{nil, {1}, {0, 2}, {0, 1, 2}} {
		spc, pc, all := laneTestBatch(t, 3, 17, inf...)
		for n := 1; n <= len(all); n++ {
			rows := all[:n]
			adx := make([]GT, n)
			gen := make([]GT, n)
			lanes := make([]GT, n)
			dispatched := make([]GT, n)
			for start := 0; start < n; start += laneRows {
				end := min(start+laneRows, n)
				pts := pc.points(rows[start:end])
				spc.evalRows(pts, adx[start:end])
				pc.evalLanes(pts, lanes[start:end])
				saved := useADX
				useADX = false
				spc.evalRows(pts, gen[start:end])
				useADX = saved
			}
			pc.EvalRows(rows, dispatched)
			for r := range rows {
				want := PairBatchPrecomputed(spc, rows[r])
				for name, got := range map[string]*GT{"ADX rows": &adx[r], "generic rows": &gen[r], "lanes": &lanes[r], "EvalRows": &dispatched[r]} {
					if !got.Equal(want) {
						t.Fatalf("infinite slots %v, %d rows: row %d by %s differs from PairBatchPrecomputed", inf, n, r, name)
					}
				}
			}
		}
	}
}

// precomputeBoth records qs with the scalar recorder and with the lane
// recorder, whatever the slot count.
func precomputeBoth(qs []*G2) (scalar, lanes *PairingPrecomp) {
	slots, qa := tokenSlots(qs)
	scalar = &PairingPrecomp{n: len(qs)}
	scalar.record(slots, qa)
	return scalar, recordedOnLanes(qs)
}

// recordedOnLanes records qs with the lane recorder, whatever the slot
// count: below laneMinSlots PrecomputePairBatch would take the scalar
// recorder, whose programs carry no lane coefficients.
func recordedOnLanes(qs []*G2) *PairingPrecomp {
	slots, qa := tokenSlots(qs)
	pc := &PairingPrecomp{n: len(qs)}
	pc.recordLanes(slots, qa)
	return pc
}

// TestLanePrecomputeMatchesRecorder checks the lane recorder against the
// scalar one on tokens of 1 to 17 slots, with an infinity slot in every
// position of a 17-slot token (every lane of all three chains) and of
// the smaller ones, a token of Jacobian points and an all-infinity
// token: the ops must be identical, slot for slot, and the lane
// coefficients must decode (laneDecode) to the scalar ops' coefficients
// limb for limb; an 8-row EvalRows chunk must give equal GT values from
// both programs (the scalar one on the row path, the lane one on the
// lanes).
func TestLanePrecomputeMatchesRecorder(t *testing.T) {
	skipWithoutLanes(t)
	type tc struct {
		d   int
		inf []int
	}
	var cases []tc
	for d := 1; d <= 17; d++ {
		cases = append(cases, tc{d, nil})
		if d > 1 {
			cases = append(cases, tc{d, []int{d / 2, d - 1}})
		}
	}
	for j := 0; j < 17; j++ {
		cases = append(cases, tc{17, []int{j}})
	}
	cases = append(cases, tc{3, []int{0, 1, 2}})
	g2s := make([]*G2, 17)
	for j := range g2s {
		_, q, err := RandomG2(crand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		g2s[j] = q
	}
	affine := make([]*G2, len(g2s))
	for j := range affine {
		affine[j] = new(G2).Set(g2s[j])
	}
	NormalizeG2(affine)
	for ci, c := range cases {
		src := affine
		if ci%2 == 1 {
			src = g2s // RandomG2's Jacobian points
		}
		qs := append([]*G2(nil), src[:c.d]...)
		for _, j := range c.inf {
			qs[j] = new(G2).SetInfinity()
		}
		name := fmt.Sprintf("d = %d, infinite slots %v", c.d, c.inf)
		scalar, lanes := precomputeBoth(qs)
		if len(lanes.lane) != len(scalar.ops) || lanes.ops != nil || scalar.lane != nil {
			t.Fatalf("%s: lanes record %d lane ops and %d row ops, scalar %d row ops and %d lane ops",
				name, len(lanes.lane), len(lanes.ops), len(scalar.ops), len(scalar.lane))
		}
		for i := range scalar.ops {
			s, l := &scalar.ops[i], &lanes.lane[i]
			if s.slot != l.slot {
				t.Fatalf("%s: op %d is for slot %d on the lanes, %d scalar", name, i, l.slot, s.slot)
			}
			if s.slot < 0 {
				if l.co != ([4][5]uint64{}) {
					t.Fatalf("%s: squaring op %d carries lane coefficients", name, i)
				}
				continue
			}
			for k, want := range []*gfP{&s.b.a0, &s.b.a1, &s.c.a0, &s.c.a1} {
				if got := laneDecode(&l.co[k]); got != *want {
					t.Fatalf("%s: op %d lane coefficient %d decodes to %v, want %v", name, i, k, &got, want)
				}
			}
		}
		rows := make([][]*G1, laneRows)
		for r := range rows {
			rows[r] = randomAffineG1s(c.d)
			if r%3 == 1 {
				rows[r][r%c.d] = new(G1).SetInfinity()
			}
		}
		want := make([]GT, laneRows)
		got := make([]GT, laneRows)
		scalar.EvalRows(rows, want)
		lanes.EvalRows(rows, got)
		for r := range got {
			if !got[r].Equal(&want[r]) {
				t.Fatalf("%s: row %d pairs differently under the lane program", name, r)
			}
		}
	}
}

// TestLaneSubgroupCheck runs the point families of
// TestSubgroupCheckMatchesOrder (G2 points, raw twist points, their
// cofactor parts, points of order 10069, G2 points plus such a
// component, infinity) through inG2Lanes in every lane position, in
// full groups of eight and in groups of 1 to 7, and checks every answer
// against the scalar inG2. A G2 point must be decided on the lanes;
// infinity has Z = 0 in every lane value, so it must fall back to the
// scalar check, whose answer (true) must come back.
func TestLaneSubgroupCheck(t *testing.T) {
	skipWithoutLanes(t)
	pts, g2s := subgroupTestPoints(t)
	want := make([]bool, len(pts))
	for i := range pts {
		want[i] = pts[i].inG2()
	}
	inf := len(pts) - 1
	if !pts[inf].IsInfinity() || !want[inf] {
		t.Fatal("the last test point must be infinity, which inG2 accepts")
	}
	var ok [laneRows]bool
	for start := range pts {
		for size := 1; size <= laneRows; size++ {
			group := make([]*twistPoint, size)
			idx := make([]int, size)
			for k := range group {
				idx[k] = (start + k*5) % len(pts)
				group[k] = &pts[idx[k]]
			}
			fallback := inG2Lanes(group, ok[:])
			for k, i := range idx {
				if ok[k] != want[i] {
					t.Fatalf("point %d in lane %d of %d: lanes say %v, inG2 says %v", i, k, size, ok[k], want[i])
				}
				fell := fallback>>k&1 == 1
				switch {
				case i == inf && !fell:
					t.Fatalf("infinity in lane %d of %d was decided on the lanes", k, size)
				case i < g2s && fell:
					t.Fatalf("G2 point %d in lane %d of %d fell back to the scalar check", i, k, size)
				}
			}
		}
	}
}

// TestSqrtLanes holds sqrtLanes to gfP2.Sqrt in groups of 1 to 8
// elements. The regular elements are squares with a1 != 0 whose root
// Sqrt finds at its first attempt and at its retry, alternating, in
// both orders; each special case then sits in every lane position: 0,
// a square and a non-square a0 with a1 = 0, and a non-square with
// a1 != 0. Every lane must answer as Sqrt does, with a root that
// squares to its element, and exactly the special lanes may fall back
// to the scalar Sqrt.
func TestSqrtLanes(t *testing.T) {
	skipWithoutLanes(t)
	var first, retry, nonSquare []gfP2
	for len(first) < laneRows || len(retry) < laneRows || len(nonSquare) == 0 {
		a := *randGFp2(t)
		var y gfP2
		switch {
		case !y.Sqrt(&a):
			nonSquare = append(nonSquare, a)
		case firstSqrtAttempt(&a):
			first = append(first, a)
		default:
			retry = append(retry, a)
		}
	}
	var qr, nqr gfP
	for n := int64(2); nqr.IsZero() || qr.IsZero(); n++ {
		var r, sq gfP
		v := *newGFp(n)
		if r.Exp(&v, pPlus1Over4); sq.Square(&r).Equal(&v) {
			qr = v
		} else {
			nqr = v
		}
	}
	specials := map[string]gfP2{"zero": {}, "a1 = 0, a0 a square": {a0: qr}, "a1 = 0, a0 not a square": {a0: nqr}, "not a square": nonSquare[0]}
	check := func(name string, as []gfP2, special int) {
		t.Helper()
		ps := make([]*gfP2, len(as))
		for k := range as {
			ps[k] = &as[k]
		}
		ys := make([]gfP2, len(as))
		ok := make([]bool, len(as))
		fallback := sqrtLanes(ys, ps, ok)
		for k := range as {
			var want gfP2
			wantOK := want.Sqrt(&as[k])
			var sq gfP2
			switch fell := fallback>>k&1 == 1; {
			case ok[k] != wantOK:
				t.Fatalf("%s, lane %d of %d: ok = %v, Sqrt says %v", name, k, len(as), ok[k], wantOK)
			case ok[k] && *sq.Square(&ys[k]) != as[k]:
				t.Fatalf("%s, lane %d of %d: root %v squares to %v, want %v", name, k, len(as), &ys[k], &sq, &as[k])
			case fell != (k == special):
				t.Fatalf("%s, lane %d of %d: fell back %v, special lane %d", name, k, len(as), fell, special)
			}
		}
	}
	for size := 1; size <= laneRows; size++ {
		for v := range 2 {
			as := make([]gfP2, size)
			for k := range as {
				if (k+v)%2 == 0 {
					as[k] = first[k]
				} else {
					as[k] = retry[k]
				}
			}
			check(fmt.Sprintf("order %d", v), as, -1)
			for name, sp := range specials {
				for k := range as {
					bad := append([]gfP2(nil), as...)
					bad[k] = sp
					check(fmt.Sprintf("order %d, %s", v, name), bad, k)
				}
			}
		}
	}
}
