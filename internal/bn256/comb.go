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
// The tables are package-level arrays filled in place on first use:
// 43·32 affine points are 86 KiB in G1 and 172 KiB in G2, in static
// storage (BSS) rather than on the heap.

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
// formulas. On E, 3b is 9, which mul9 applies with additions.
var twistB3 gfP2

func initComb() {
	twistB3.Add(&twistB, &twistB)
	twistB3.Add(&twistB3, &twistB)
}

// combScalar returns k, which must lie in [0, Order), as little-endian
// limbs with a zero fifth limb, so every window reads two limbs.
func combScalar(k *big.Int) [5]uint64 {
	var buf [32]byte
	k.FillBytes(buf[:])
	var s [5]uint64
	for i := range 4 {
		s[i] = binary.BigEndian.Uint64(buf[24-8*i:])
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

// combBaseMult sets c = k·g1 for k in [0, Order) with the comb. The
// accumulator is homogeneous (X:Y:Z), starting at (0:1:0); the result is
// handed back in Jacobian form as (XZ, YZ^2, Z).
func (c *curvePoint) combBaseMult(k *big.Int) *curvePoint {
	g1CombOnce.Do(func() { buildG1Comb(&g1Comb) })
	s := combScalar(k)
	var acc, sum g1Proj
	acc.y.SetOne()
	var q g1Affine
	for i := range combWindows {
		mag, sign := combDigit(&s, i)
		g1Comb[i].selectEntry(&q, mag, sign)
		sum.addMixed(&acc, &q)
		keep := ^ctEqMask(mag, 0)
		acc.x.cmov(&sum.x, keep)
		acc.y.cmov(&sum.y, keep)
		acc.z.cmov(&sum.z, keep)
	}
	var zz gfP
	zz.Square(&acc.z)
	c.x.Mul(&acc.x, &acc.z)
	c.y.Mul(&acc.y, &zz)
	c.z = acc.z
	return c
}

// combBaseMult sets c = k·g2 for k in [0, Order), as the G1 comb.
func (c *twistPoint) combBaseMult(k *big.Int) *twistPoint {
	g2CombOnce.Do(func() { buildG2Comb(&g2Comb) })
	s := combScalar(k)
	var acc, sum g2Proj
	acc.y.SetOne()
	var q g2Affine
	for i := range combWindows {
		mag, sign := combDigit(&s, i)
		g2Comb[i].selectEntry(&q, mag, sign)
		addMixedG2(&sum, &acc, &q)
		keep := ^ctEqMask(mag, 0)
		acc.x.cmov(&sum.x, keep)
		acc.y.cmov(&sum.y, keep)
		acc.z.cmov(&sum.z, keep)
	}
	var zz gfP2
	zz.Square(&acc.z)
	c.x.Mul(&acc.x, &acc.z)
	c.y.Mul(&acc.y, &zz)
	c.z = acc.z
	return c
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
