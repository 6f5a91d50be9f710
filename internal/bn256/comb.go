package bn256

import (
	"encoding/binary"
	"math/big"
	"sync"
)

// Fixed-base comb for ScalarBaseMult, the one scalar multiplication
// whose scalar is secret (SJ.Enc raises g1 to entries of w·B*, TokenGen
// raises g2 to entries of v·B). It is the Booth comb of the Go standard
// library's P-256 (crypto/internal/fips140/nistec: p256GeneratorTables,
// boothW6, p256SelectAffine) carried to both groups: table i holds
// (j+1)·2^(6i)·G for j < 32, so a scalar below 2^254 is 43 signed 6-bit
// digits and 43 mixed additions, and no doublings. Every step is
// constant-time: the digit is read branch-free, the select reads all 32
// entries under a mask, the negation and the keep are masked, and the
// addition is the complete a = 0 mixed formula of Renes, Costello and
// Batina (EUROCRYPT 2016, Algorithm 8), so no input, k = 0 included,
// takes another path.
//
// On amd64 both halves of the loop body are assembly (gfp_amd64.s):
// g1SelectAffine and g2SelectAffine are the select, an SSE2 loop in the
// shape of the standard library's p256SelectAffine, and g1AddMixed is
// the G1 addition with lazy reduction, 11 plain products and 8
// reductions. The Go bodies, selectGeneric and addMixedG1, are the
// oracle and the purego path, and every result is the same, limb for
// limb.
//
// SJ.Enc's base multiplications, d per row and a block of rows per
// call, go through BaseMultG1s, and TokenGen's d per token through
// BaseMultG2s, which on CPUs with AVX-512 IFMA run up to eight scalars
// as the eight lanes of one comb (g1CombLanes, g2CombLanes); in G1 the
// lanes are filled across row boundaries. The lane tables, g1LaneComb and
// g2LaneComb, are g1Comb and g2Comb in the lane form of lanes.go: per
// entry the five 52-bit limbs of each Fp coordinate, x then y, below p.
// Per window, laneSelect broadcasts each of the 32 entries and blends it
// into the lanes whose digit magnitude matches (a VPCMPEQQ mask), then
// negates y under the sign mask, so every lane reads every entry. The
// RCB addition with the keep under the mask of non-zero digits is
// g1AddMixedLanes in G1, an assembly kernel, and ltwist.addMixedKeep on
// the twist, Go over the Fp2 lane kernels. Digits are recoded
// branch-free before the loop, and the points are made affine with one
// inversion per group of up to BaseMultGroup points in G1 and per chunk
// on the twist, in which a zero Z (a zero norm on the twist) is replaced
// by one under a mask (g1AffineBatch, g2AffineBatch), so neither the
// lanes nor the normalisation branch on a scalar, the point at infinity
// included. The scalar comb is the oracle, and every lane,
// converted back, equals it.
//
// The tables are package-level arrays filled in place on first use:
// 43·32 affine points are 86 KiB in G1 and 172 KiB in G2, and the lane
// tables 110 KiB and 220 KiB, in static storage (BSS) rather than on
// the heap.

const (
	// combWindows is the number of Booth windows: window i covers bits
	// 6i-1 .. 6i+5, so 43 of them reach past bit 253 of a scalar below
	// Order < 2^254 and the top digit is never negative.
	combWindows = 43
	combEntries = 32 // the largest Booth digit magnitude
)

type g1Affine struct{ x, y gfP }

type g2Affine struct{ x, y gfP2 }

type (
	g1CombRow [combEntries]g1Affine
	g2CombRow [combEntries]g2Affine
)

// g1Proj and g2Proj are the comb's accumulator, a point in homogeneous
// coordinates (X:Y:Z) standing for (X/Z, Y/Z).
type (
	g1Proj struct{ x, y, z gfP }
	g2Proj struct{ x, y, z gfP2 }
)

var (
	g1Comb     [combWindows]g1CombRow
	g2Comb     [combWindows]g2CombRow
	g1CombOnce sync.Once
	g2CombOnce sync.Once
)

// twistB3 is 3b on the twist, 3·(3/xi), the constant of the RCB
// formulas, and laneTwistB3 the same in every lane. On E, 3b is 9,
// which mul9 applies with additions.
var (
	twistB3     gfP2
	laneTwistB3 lfp2
)

func initComb() {
	twistB3.Add(&twistB, &twistB)
	twistB3.Add(&twistB3, &twistB)
	for k := range laneRows {
		laneTwistB3.set(k, &twistB3)
	}
}

// combScalar returns k, which must lie in [0, Order), as combLimbs
// does its big-endian bytes.
func combScalar(k *big.Int) [5]uint64 {
	var buf [32]byte
	k.FillBytes(buf[:])
	return combLimbs(&buf)
}

// combLimbs returns the big-endian k as little-endian limbs with a zero
// fifth limb, so every window reads two limbs. Any 256-bit k has 43
// Booth digits with a non-negative top one (window 42 reads bits 251 to
// 257), so the comb takes k unreduced and returns (k mod Order)·g.
func combLimbs(k *[32]byte) [5]uint64 {
	var s [5]uint64
	for i := range 4 {
		s[i] = binary.BigEndian.Uint64(k[24-8*i:])
	}
	return s
}

// combDigit returns the Booth digit of window i of s as a magnitude in
// [0, 32] and a sign, 1 for negative: window i is bits 6i-1 .. 6i+5,
// with a virtual zero bit below bit 0, and the digits satisfy
// sum (-1)^sign_i mag_i 2^(6i) = s. Only i, which is public, branches.
func combDigit(s *[5]uint64, i int) (mag, sign uint64) {
	var w uint64
	if i == 0 {
		w = s[0] << 1
	} else {
		p := 6*i - 1
		w = s[p/64]>>(p%64) | s[p/64+1]<<(64-p%64)
	}
	return boothW6(w & 0x7f)
}

// boothW6 recodes a 7-bit window w = b_-1 + 2 b_0 + ... + 64 b_5 into the
// digit b_-1 + b_0 + 2 b_1 + ... + 16 b_4 - 32 b_5: when b_5 is set the
// magnitude is that of the 7-bit complement, masked rather than branched.
func boothW6(w uint64) (mag, sign uint64) {
	sign = w >> 6
	neg := -sign
	d := (127-w)&neg | w&^neg
	return d>>1 + d&1, sign
}

// ctEqMask returns all ones if a == b and zero otherwise, for a, b < 2^63.
func ctEqMask(a, b uint64) uint64 {
	x := a ^ b
	return (x|-x)>>63 - 1
}

// cmov sets e = a if mask is all ones and leaves e if it is zero.
func (e *gfP) cmov(a *gfP, mask uint64) {
	e[0] ^= (e[0] ^ a[0]) & mask
	e[1] ^= (e[1] ^ a[1]) & mask
	e[2] ^= (e[2] ^ a[2]) & mask
	e[3] ^= (e[3] ^ a[3]) & mask
}

func (e *gfP2) cmov(a *gfP2, mask uint64) {
	e.a0.cmov(&a.a0, mask)
	e.a1.cmov(&a.a1, mask)
}

// selectEntry sets q = row[mag-1], and q = (0, 0) for mag = 0, reading
// every entry, then negates q if sign is 1.
func (row *g1CombRow) selectEntry(q *g1Affine, mag, sign uint64) {
	g1SelectAffine(q, row, mag)
	var ny gfP
	ny.Neg(&q.y)
	q.y.cmov(&ny, -sign)
}

func (row *g2CombRow) selectEntry(q *g2Affine, mag, sign uint64) {
	g2SelectAffine(q, row, mag)
	var ny gfP2
	ny.Neg(&q.y)
	q.y.cmov(&ny, -sign)
}

// selectGeneric sets q = row[mag-1], and q = (0, 0) for mag = 0,
// reading every entry under a mask: g1SelectAffine in Go.
func (row *g1CombRow) selectGeneric(q *g1Affine, mag uint64) {
	*q = g1Affine{}
	for j := range row {
		m := ctEqMask(uint64(j+1), mag)
		q.x.cmov(&row[j].x, m)
		q.y.cmov(&row[j].y, m)
	}
}

func (row *g2CombRow) selectGeneric(q *g2Affine, mag uint64) {
	*q = g2Affine{}
	for j := range row {
		m := ctEqMask(uint64(j+1), mag)
		q.x.cmov(&row[j].x, m)
		q.y.cmov(&row[j].y, m)
	}
}

// combBaseMult sets c = s·g1 for the limbs s of combLimbs, in Jacobian
// form: g1Comb's (X:Y:Z) handed back as (XZ, YZ^2, Z).
func (c *curvePoint) combBaseMult(s *[5]uint64) *curvePoint {
	acc := g1CombProj(s)
	var zz gfP
	zz.Square(&acc.z)
	c.x.Mul(&acc.x, &acc.z)
	c.y.Mul(&acc.y, &zz)
	c.z = acc.z
	return c
}

// g1CombProj returns s·g1 for the limbs s of combLimbs with the comb.
// The accumulator is homogeneous (X:Y:Z), starting at (0:1:0).
func g1CombProj(s *[5]uint64) g1Proj {
	g1CombOnce.Do(func() { buildG1Comb(&g1Comb) })
	var acc, sum g1Proj
	acc.y.SetOne()
	var q g1Affine
	for i := range combWindows {
		mag, sign := combDigit(s, i)
		g1Comb[i].selectEntry(&q, mag, sign)
		sum.addMixed(&acc, &q)
		keep := ^ctEqMask(mag, 0)
		acc.x.cmov(&sum.x, keep)
		acc.y.cmov(&sum.y, keep)
		acc.z.cmov(&sum.z, keep)
	}
	return acc
}

// combBaseMult sets c = s·g2, as the G1 comb.
func (c *twistPoint) combBaseMult(s *[5]uint64) *twistPoint {
	acc := g2CombProj(s)
	var zz gfP2
	zz.Square(&acc.z)
	c.x.Mul(&acc.x, &acc.z)
	c.y.Mul(&acc.y, &zz)
	c.z = acc.z
	return c
}

// g2CombProj is g1CombProj on the twist.
func g2CombProj(s *[5]uint64) g2Proj {
	g2CombOnce.Do(func() { buildG2Comb(&g2Comb) })
	var acc, sum g2Proj
	acc.y.SetOne()
	var q g2Affine
	for i := range combWindows {
		mag, sign := combDigit(s, i)
		g2Comb[i].selectEntry(&q, mag, sign)
		addMixedG2(&sum, &acc, &q)
		keep := ^ctEqMask(mag, 0)
		acc.x.cmov(&sum.x, keep)
		acc.y.cmov(&sum.y, keep)
		acc.z.cmov(&sum.z, keep)
	}
	return acc
}

// addMixed sets r = p + q. On amd64 CPUs with BMI2 and ADX it runs the
// assembly kernel g1AddMixed, which computes the same limbs; elsewhere,
// and under the purego build tag, addMixedG1.
func (r *g1Proj) addMixed(p *g1Proj, q *g1Affine) {
	if useADX {
		g1AddMixed(r, p, q)
		return
	}
	addMixedG1(r, p, q)
}

// mul9 sets e = 9a = 8a + a mod p, three doublings and an addition: the
// multiplication by 3b of the RCB formulas on E, where b = 3.
func (e *gfP) mul9(a *gfP) {
	var t gfP
	t.Double(a)
	t.Double(&t)
	t.Double(&t)
	e.Add(&t, a)
}

// addMixedG1 sets r = p + q by RCB Algorithm 8: 11M and two
// multiplications by 3b, complete for every homogeneous p and every
// affine q, p = q and p = -q included. r may alias p.
func addMixedG1(r, p *g1Proj, q *g1Affine) {
	var t0, t1, t2, t3, t4, x3, y3, z3 gfP
	t0.Mul(&p.x, &q.x)
	t1.Mul(&p.y, &q.y)
	t3.Add(&q.x, &q.y)
	t4.Add(&p.x, &p.y)
	t3.Mul(&t3, &t4)
	t4.Add(&t0, &t1)
	t3.Sub(&t3, &t4)
	t4.Mul(&q.y, &p.z)
	t4.Add(&t4, &p.y)
	y3.Mul(&q.x, &p.z)
	y3.Add(&y3, &p.x)
	x3.Double(&t0)
	t0.Add(&x3, &t0)
	t2.mul9(&p.z)
	z3.Add(&t1, &t2)
	t1.Sub(&t1, &t2)
	y3.mul9(&y3)
	x3.Mul(&t4, &y3)
	t2.Mul(&t3, &t1)
	x3.Sub(&t2, &x3)
	y3.Mul(&y3, &t0)
	t1.Mul(&t1, &z3)
	y3.Add(&t1, &y3)
	t0.Mul(&t0, &t3)
	z3.Mul(&z3, &t4)
	z3.Add(&z3, &t0)
	r.x, r.y, r.z = x3, y3, z3
}

// addMixedG2 is addMixedG1 over Fp2 on the twist, where 3b is a full
// Fp2 multiplication.
func addMixedG2(r, p *g2Proj, q *g2Affine) {
	var t0, t1, t2, t3, t4, x3, y3, z3 gfP2
	t0.Mul(&p.x, &q.x)
	t1.Mul(&p.y, &q.y)
	t3.Add(&q.x, &q.y)
	t4.Add(&p.x, &p.y)
	t3.Mul(&t3, &t4)
	t4.Add(&t0, &t1)
	t3.Sub(&t3, &t4)
	t4.Mul(&q.y, &p.z)
	t4.Add(&t4, &p.y)
	y3.Mul(&q.x, &p.z)
	y3.Add(&y3, &p.x)
	x3.Double(&t0)
	t0.Add(&x3, &t0)
	t2.Mul(&twistB3, &p.z)
	z3.Add(&t1, &t2)
	t1.Sub(&t1, &t2)
	y3.Mul(&twistB3, &y3)
	x3.Mul(&t4, &y3)
	t2.Mul(&t3, &t1)
	x3.Sub(&t2, &x3)
	y3.Mul(&y3, &t0)
	t1.Mul(&t1, &z3)
	y3.Add(&t1, &y3)
	t0.Mul(&t0, &t3)
	z3.Mul(&z3, &t4)
	z3.Add(&z3, &t0)
	r.x, r.y, r.z = x3, y3, z3
}

// buildG1Comb fills t[i][j] = (j+1)·2^(6i)·g1 in affine form. The
// multiples are summed in Jacobian coordinates (the base is public, so
// the variable-time Add is fine) and normalised with one batched
// inversion over all 43·32 points. None is infinity: (j+1)·2^(6i) has
// no factor r.
func buildG1Comb(t *[combWindows]g1CombRow) {
	var pts [combWindows * combEntries]curvePoint
	ptrs := make([]*curvePoint, len(pts))
	var base curvePoint
	base.Set(&curveGen)
	for i := range combWindows {
		for j := range combEntries {
			n := i*combEntries + j
			if j == 0 {
				pts[n].Set(&base)
			} else {
				pts[n].Add(&pts[n-1], &base)
			}
			ptrs[n] = &pts[n]
		}
		base.Double(&pts[i*combEntries+combEntries-1]) // 64·2^(6i)·g1
	}
	batchMakeAffine(ptrs)
	for n, p := range pts {
		t[n/combEntries][n%combEntries] = g1Affine{p.x, p.y}
	}
}

// buildG2Comb is buildG1Comb on the twist.
func buildG2Comb(t *[combWindows]g2CombRow) {
	var pts [combWindows * combEntries]twistPoint
	ptrs := make([]*twistPoint, len(pts))
	var base twistPoint
	base.Set(&twistGen)
	for i := range combWindows {
		for j := range combEntries {
			n := i*combEntries + j
			if j == 0 {
				pts[n].Set(&base)
			} else {
				pts[n].Add(&pts[n-1], &base)
			}
			ptrs[n] = &pts[n]
		}
		base.Double(&pts[i*combEntries+combEntries-1])
	}
	batchMakeAffineTwist(ptrs)
	for n, p := range pts {
		t[n/combEntries][n%combEntries] = g2Affine{p.x, p.y}
	}
}

// combLaneMin is the smallest chunk of scalars BaseMultG1s and
// BaseMultG2s run on the lane comb. A lane chunk costs the same for one
// scalar as for eight, under two scalar combs, so one scalar keeps the
// scalar comb and from two on the lanes win. It was measured with the
// lanes and one cases of BenchmarkG1ScalarBaseMult and
// BenchmarkG2ScalarBaseMult (DESIGN.md, "The comb on the lanes").
const combLaneMin = 2

// g1LaneAffine and g1LaneProj are eight G1 points in lane form, one per
// lane: (x, y) and (X:Y:Z), coordinate by coordinate. g2LaneAffine is
// eight affine twist points; their (X:Y:Z) is an ltwist (lanetoken.go).
type (
	g1LaneAffine [2]lfp
	g1LaneProj   [3]lfp
	g2LaneAffine [2]lfp2
)

// g1LaneRow and g2LaneRow are rows of g1Comb and g2Comb in lane form for
// laneSelect: entry j is the five limbs of each Fp coordinate, x then y
// (x.a0, x.a1, y.a0, y.a1 on the twist), each the lane form of the
// reduced gfP, so below p.
type (
	g1LaneRow [combEntries][10]uint64
	g2LaneRow [combEntries][20]uint64
)

var (
	g1LaneComb [combWindows]g1LaneRow
	g2LaneComb [combWindows]g2LaneRow
	g1LaneOnce sync.Once
	g2LaneOnce sync.Once
)

// selectLanes sets lane k of q to the entry of digit (mag[k], sign[k]),
// as selectEntry does for one digit: the magnitude's entry, (0, 0) for
// magnitude 0, y negated for sign 1.
func (row *g1LaneRow) selectLanes(q *g1LaneAffine, mag, sign *[laneRows]uint64) {
	laneSelect(&q[0], &row[0][0], 2, mag, sign)
}

func (row *g2LaneRow) selectLanes(q *g2LaneAffine, mag, sign *[laneRows]uint64) {
	laneSelect(&q[0][0], &row[0][0], 4, mag, sign)
}

// laneEntry writes the lane forms of cs to w, five limbs each.
func laneEntry(w []uint64, cs ...*gfP) {
	for c, v := range cs {
		l := laneEncode(v)
		copy(w[5*c:], l[:])
	}
}

// buildG1LaneComb fills t with the lane form of g1Comb, building that
// first: 43·32·10 words, 110 KiB, in static storage like g1Comb.
func buildG1LaneComb(t *[combWindows]g1LaneRow) {
	g1CombOnce.Do(func() { buildG1Comb(&g1Comb) })
	for i := range g1Comb {
		for j := range g1Comb[i] {
			e := &g1Comb[i][j]
			laneEntry(t[i][j][:], &e.x, &e.y)
		}
	}
}

// buildG2LaneComb is buildG1LaneComb on the twist: 43·32·20 words,
// 220 KiB.
func buildG2LaneComb(t *[combWindows]g2LaneRow) {
	g2CombOnce.Do(func() { buildG2Comb(&g2Comb) })
	for i := range g2Comb {
		for j := range g2Comb[i] {
			e := &g2Comb[i][j]
			laneEntry(t[i][j][:], &e.x.a0, &e.x.a1, &e.y.a0, &e.y.a1)
		}
	}
}

// laneDigits recodes up to eight scalars into the Booth digits of every
// window, scalar k in lane k. Lanes past the last scalar keep digit 0.
func laneDigits(mag, sign *[combWindows][laneRows]uint64, ks [][32]byte) {
	for k := range ks {
		s := combLimbs(&ks[k])
		for i := range combWindows {
			mag[i][k], sign[i][k] = combDigit(&s, i)
		}
	}
}

// g1CombLanes sets acc[k] = ks[k]·g1 as (X:Y:Z), fully reduced, for up
// to eight scalars: the comb of g1CombProj with scalar k in lane k. The
// digits of all windows are recoded first; each window is then one
// select and one g1AddMixedLanes, whose keep leaves the lanes with a
// zero digit, and the lanes past the last scalar, as they were.
func g1CombLanes(acc []g1Proj, ks [][32]byte) {
	g1LaneOnce.Do(func() { buildG1LaneComb(&g1LaneComb) })
	var mag, sign [combWindows][laneRows]uint64
	laneDigits(&mag, &sign, ks)
	var p g1LaneProj
	p[1] = laneOne
	var q g1LaneAffine
	for i := range combWindows {
		g1LaneComb[i].selectLanes(&q, &mag[i], &sign[i])
		g1AddMixedLanes(&p, &p, &q, &mag[i])
	}
	var xs, ys, zs [laneRows]gfP
	p[0].gfps(&xs)
	p[1].gfps(&ys)
	p[2].gfps(&zs)
	for k := range acc {
		acc[k] = g1Proj{xs[k], ys[k], zs[k]}
	}
}

// g2CombLanes is g1CombLanes on the twist: each window is one select
// and one ltwist.addMixedKeep, the RCB addition in Go over the Fp2 lane
// kernels with the keep a masked copy.
func g2CombLanes(acc []g2Proj, ks [][32]byte) {
	g2LaneOnce.Do(func() { buildG2LaneComb(&g2LaneComb) })
	var mag, sign [combWindows][laneRows]uint64
	laneDigits(&mag, &sign, ks)
	var p ltwist
	p.y[0] = laneOne
	var q g2LaneAffine
	for i := range combWindows {
		g2LaneComb[i].selectLanes(&q, &mag[i], &sign[i])
		p.addMixedKeep(&q, &mag[i])
	}
	var cs [6][laneRows]gfP
	for c, e := range [6]*lfp{&p.x[0], &p.x[1], &p.y[0], &p.y[1], &p.z[0], &p.z[1]} {
		e.gfps(&cs[c])
	}
	for k := range acc {
		acc[k] = g2Proj{gfP2{cs[0][k], cs[1][k]}, gfP2{cs[2][k], cs[3][k]}, gfP2{cs[4][k], cs[5][k]}}
	}
}

// zeroMask returns all ones if e is zero and zero otherwise; e must be
// fully reduced.
func (e *gfP) zeroMask() uint64 {
	x := e[0] | e[1] | e[2] | e[3]
	return (x|-x)>>63 - 1
}

// g1AffineBatch makes each of up to BaseMultGroup distinct points ps[k],
// which hold a fully reduced homogeneous (X:Y:Z), affine in place, with
// one batchInvert for all of them and no branch on a point at infinity:
// a zero Z is inverted as one, and the result is then set to infinity,
// (1, 1, 0), under a mask. Its scratch is on the stack, and so is
// batchInvert's at this size.
func g1AffineBatch(ps []*G1) {
	var zs [BaseMultGroup]*gfP
	var inf [BaseMultGroup]uint64
	for k, c := range ps {
		z := &c.p.z
		inf[k] = z.zeroMask()
		z.cmov(&rOne, inf[k])
		zs[k] = z
	}
	batchInvert(zs[:len(ps)])
	for k, c := range ps {
		p := &c.p
		p.x.Mul(&p.x, &p.z)
		p.y.Mul(&p.y, &p.z)
		p.z = rOne
		p.x.cmov(&rOne, inf[k])
		p.y.cmov(&rOne, inf[k])
		p.z.cmov(&gfP{}, inf[k])
	}
}

// g2AffineBatch is g1AffineBatch on the twist: 1/Z = conj(Z)/N(Z), with
// the norms of all the points in one batchInvert, a zero Z's norm
// inverted as one and the point then set to infinity, (1, 1, 0), under
// a mask.
func g2AffineBatch(out []*G2, ps []g2Proj) {
	var ns [laneRows]gfP
	var nps [laneRows]*gfP
	var inf [laneRows]uint64
	for k := range ps {
		z := &ps[k].z
		inf[k] = z.a0.zeroMask() & z.a1.zeroMask()
		var t gfP
		ns[k].Square(&z.a0)
		t.Square(&z.a1)
		ns[k].Add(&ns[k], &t)
		ns[k].cmov(&rOne, inf[k])
		nps[k] = &ns[k]
	}
	batchInvert(nps[:len(ps)])
	var one gfP2
	one.SetOne()
	for k, c := range out {
		var zinv gfP2
		zinv.Conjugate(&ps[k].z)
		zinv.MulScalar(&zinv, &ns[k])
		p := &c.p
		p.x.Mul(&ps[k].x, &zinv)
		p.y.Mul(&ps[k].y, &zinv)
		p.z = one
		p.x.cmov(&one, inf[k])
		p.y.cmov(&one, inf[k])
		p.z.cmov(&gfP2{}, inf[k])
	}
}
