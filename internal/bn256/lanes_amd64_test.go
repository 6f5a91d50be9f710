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
// cannot be read it skips. It logs the SJ.Dec path this CPU takes.
func TestCPUFeatures(t *testing.T) {
	path := fmt.Sprintf("lanes (AVX-512 IFMA) for chunks of %d or more rows, ADX rows below", laneMinRows)
	switch {
	case !useIFMA && useADX:
		path = "ADX rows"
	case !useIFMA:
		path = "generic Go rows"
	}
	t.Logf("SJ.Dec path: %s (useADX=%v useIFMA=%v)", path, useADX, useIFMA)
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

func setLaneRep2(e *lfp2, k int, a *gfP2, high bool) {
	setLaneRep(&e[0], k, &a.a0, high)
	setLaneRep(&e[1], k, &a.a1, !high)
}

func setLaneRep12(e *lfp12, k int, a *gfP12, high bool) {
	for j, b := range [6]*gfP2{&a.c0.b0, &a.c0.b1, &a.c0.b2, &a.c1.b0, &a.c1.b1, &a.c1.b2} {
		setLaneRep2(&e[j/3][j%3], k, b, high != (j%2 == 0))
	}
}

// checkLaneKernels runs the lane kernels and the lane tower on ops[k] in
// lane k, with the representative in [p, 2p) where high[k], and checks
// every lane, converted back, against the scalar kernels: the assembly
// ones where the CPU has them and the Go ones (the *Generic methods),
// limb for limb. The kernels that may alias run apart and aliased.
func checkLaneKernels(t testing.TB, ops *[laneRows]towerOperands, high *[laneRows]bool) {
	t.Helper()
	var a, b, cyc lfp12
	var l1, l3 lfp2
	cycs := make([]gfP12, laneRows)
	for k := range ops {
		o := &ops[k]
		setLaneRep12(&a, k, &o.a, high[k])
		setLaneRep12(&b, k, &o.b, !high[k])
		setLaneRep2(&l1, k, &o.l1, high[k])
		setLaneRep2(&l3, k, &o.l3, !high[k])
		cycs[k] = *easyPart(t, &o.a)
		setLaneRep12(&cyc, k, &cycs[k], high[k])
	}
	fail := func(name string, k int, got, want any) {
		t.Helper()
		t.Fatalf("%s lane %d (high %v): got %v, want %v", name, k, high[k], got, want)
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
	}
	lfpAdd(&c, &a[0][0][0], &b[0][0][0])
	for k := range ops {
		var want gfP
		want.Add(&ops[k].a.c0.b0.a0, &ops[k].b.c0.b0.a0)
		if got := c.get(k); got != want {
			fail("lfpAdd", k, &got, &want)
		}
	}
	lfpSub(&c, &a[0][0][0], &b[0][0][0])
	for k := range ops {
		var want gfP
		want.Sub(&ops[k].a.c0.b0.a0, &ops[k].b.c0.b0.a0)
		if got := c.get(k); got != want {
			fail("lfpSub", k, &got, &want)
		}
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
				if fc.name != "lfp2Square" && fc.name != "lfp2MulXi" {
					if got := aliasY.get(k); got != want {
						fail(fc.name+" (c = b)", k, &got, &want)
					}
				}
			}
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
		}
	}
}

// laneGrid is the edge values every lane kernel is checked on, as raw
// Montgomery limbs: zero, one and p - 1.
func laneGrid() []gfP {
	return []gfP{{}, rOne, rawGFp(new(big.Int).Sub(P, big.NewInt(1)))}
}

// TestLaneKernelsMatchScalar checks every lane kernel and lane tower
// operation against the scalar kernels: on the grid of {0, 1, p - 1}
// for every coefficient (each lane one combination, both
// representatives of each value), and on random operands.
func TestLaneKernelsMatchScalar(t *testing.T) {
	skipWithoutLanes(t)
	grid := laneGrid()
	var ops [laneRows]towerOperands
	var high [laneRows]bool
	for round := 0; round < 4; round++ {
		for k := range ops {
			i := round*laneRows + k
			x, y, z := grid[i%3], grid[i/3%3], grid[i/9%3]
			ops[k] = randTowerOperands(func() gfP { x, y, z = y, z, x; return x })
			high[k] = (i/27)%2 == 1
		}
		checkLaneKernels(t, &ops, &high)
	}
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		for k := range ops {
			ops[k] = randTowerOperands(func() gfP { return rawGFp(new(big.Int).Rand(r, P)) })
			high[k] = r.Intn(2) == 1
		}
		checkLaneKernels(t, &ops, &high)
	}
}

// FuzzLaneKernels reads arbitrary bytes as the operands of the lane
// kernels: the 28 coefficients of a towerOperands, as FuzzTowerKernels
// reads them (32-byte big-endian chunks, each taken mod p as raw limbs,
// missing bytes zero), with lane k taking them rotated by 5k places and
// its representative in [0, 2p) from bit k of the first byte. Every
// lane kernel must match the scalar kernels as in
// TestLaneKernelsMatchScalar. The input stays as small as
// FuzzTowerKernels', so the fuzzer's minimisation of a new input is
// quick. The corpus under testdata/fuzz/FuzzLaneKernels seeds all-zero,
// every coefficient p - 1, every coefficient one, and random bytes. On
// a CPU without AVX-512 IFMA it skips.
func FuzzLaneKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
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
		checkLaneKernels(t, &ops, &high)
	})
}

// laneTestBatch returns a token of d slots whose slots listed in inf
// are at infinity, and n rows of d G1 points where row r has an
// infinity at slot r mod d unless r = 2 mod 3, and row 5 is all
// infinity: in 17 rows every lane position meets an infinity element.
func laneTestBatch(t *testing.T, d, n int, inf ...int) (*PairingPrecomp, [][]*G1) {
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
	rows := make([][]*G1, n)
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
	return PrecomputePairBatch(qs), rows
}

// TestLaneEvalMatchesRows compares the three SJ.Dec paths on chunks of
// 1 to 17 rows, with tokens without and with slots at infinity: the
// lane evaluator (evalLanes on every chunk of up to eight rows, and
// EvalRows, which dispatches by chunk size), the ADX row path and the
// generic row path (evalRows with useADX cleared). The GT values must
// be equal.
func TestLaneEvalMatchesRows(t *testing.T) {
	skipWithoutLanes(t)
	for _, inf := range [][]int{nil, {1}, {0, 2}, {0, 1, 2}} {
		pc, all := laneTestBatch(t, 3, 17, inf...)
		for n := 1; n <= len(all); n++ {
			rows := all[:n]
			adx := make([]GT, n)
			gen := make([]GT, n)
			lanes := make([]GT, n)
			dispatched := make([]GT, n)
			for start := 0; start < n; start += laneRows {
				end := min(start+laneRows, n)
				pts := pc.points(rows[start:end])
				pc.evalRows(pts, adx[start:end])
				pc.evalLanes(pts, lanes[start:end])
				saved := useADX
				useADX = false
				pc.evalRows(pts, gen[start:end])
				useADX = saved
			}
			pc.EvalRows(rows, dispatched)
			for r := range rows {
				want := PairBatchPrecomputed(pc, rows[r])
				for name, got := range map[string]*GT{"ADX rows": &adx[r], "generic rows": &gen[r], "lanes": &lanes[r], "EvalRows": &dispatched[r]} {
					if !got.Equal(want) {
						t.Fatalf("infinite slots %v, %d rows: row %d by %s differs from PairBatchPrecomputed", inf, n, r, name)
					}
				}
			}
		}
	}
}
