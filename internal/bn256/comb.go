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

var (
	g1Comb     [combWindows]g1CombRow
	g2Comb     [combWindows]g2CombRow
	g1CombOnce sync.Once
	g2CombOnce sync.Once
)

// curveB3 and twistB3 are 3b, the constant of the RCB formulas: 9 on
// E and 3·(3/xi) on the twist.
var (
	curveB3 gfP
	twistB3 gfP2
)

func initComb() {
	curveB3 = *newGFp(9)
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

// selectEntry sets q = row[mag-1] reading every entry, and q = (0, 0)
// for mag = 0, then negates q if sign is 1.
func (row *g1CombRow) selectEntry(q *g1Affine, mag, sign uint64) {
	*q = g1Affine{}
	for j := range row {
		m := ctEqMask(uint64(j+1), mag)
		q.x.cmov(&row[j].x, m)
		q.y.cmov(&row[j].y, m)
	}
	var ny gfP
	ny.Neg(&q.y)
	q.y.cmov(&ny, -sign)
}

func (row *g2CombRow) selectEntry(q *g2Affine, mag, sign uint64) {
	*q = g2Affine{}
	for j := range row {
		m := ctEqMask(uint64(j+1), mag)
		q.x.cmov(&row[j].x, m)
		q.y.cmov(&row[j].y, m)
	}
	var ny gfP2
	ny.Neg(&q.y)
	q.y.cmov(&ny, -sign)
}

// combBaseMult sets c = k·g1 for k in [0, Order) with the comb. The
// accumulator is homogeneous (X:Y:Z), starting at (0:1:0); the result is
// handed back in Jacobian form as (XZ, YZ^2, Z).
func (c *curvePoint) combBaseMult(k *big.Int) *curvePoint {
	g1CombOnce.Do(func() { buildG1Comb(&g1Comb) })
	s := combScalar(k)
	var x, y, z gfP
	y.SetOne()
	var q g1Affine
	for i := range combWindows {
		mag, sign := combDigit(&s, i)
		g1Comb[i].selectEntry(&q, mag, sign)
		x3, y3, z3 := addMixedG1(&x, &y, &z, &q)
		keep := ^ctEqMask(mag, 0)
		x.cmov(&x3, keep)
		y.cmov(&y3, keep)
		z.cmov(&z3, keep)
	}
	var zz gfP
	zz.Square(&z)
	c.x.Mul(&x, &z)
	c.y.Mul(&y, &zz)
	c.z = z
	return c
}

// combBaseMult sets c = k·g2 for k in [0, Order), as the G1 comb.
func (c *twistPoint) combBaseMult(k *big.Int) *twistPoint {
	g2CombOnce.Do(func() { buildG2Comb(&g2Comb) })
	s := combScalar(k)
	var x, y, z gfP2
	y.SetOne()
	var q g2Affine
	for i := range combWindows {
		mag, sign := combDigit(&s, i)
		g2Comb[i].selectEntry(&q, mag, sign)
		x3, y3, z3 := addMixedG2(&x, &y, &z, &q)
		keep := ^ctEqMask(mag, 0)
		x.cmov(&x3, keep)
		y.cmov(&y3, keep)
		z.cmov(&z3, keep)
	}
	var zz gfP2
	zz.Square(&z)
	c.x.Mul(&x, &z)
	c.y.Mul(&y, &zz)
	c.z = z
	return c
}

// addMixedG1 returns (X1:Y1:Z1) + (x2, y2) by RCB Algorithm 8: 11M and
// two multiplications by 3b, complete for every homogeneous P and every
// affine Q, P = Q and P = -Q included.
func addMixedG1(x1, y1, z1 *gfP, q *g1Affine) (x3, y3, z3 gfP) {
	var t0, t1, t2, t3, t4 gfP
	t0.Mul(x1, &q.x)
	t1.Mul(y1, &q.y)
	t3.Add(&q.x, &q.y)
	t4.Add(x1, y1)
	t3.Mul(&t3, &t4)
	t4.Add(&t0, &t1)
	t3.Sub(&t3, &t4)
	t4.Mul(&q.y, z1)
	t4.Add(&t4, y1)
	y3.Mul(&q.x, z1)
	y3.Add(&y3, x1)
	x3.Double(&t0)
	t0.Add(&x3, &t0)
	t2.Mul(&curveB3, z1)
	z3.Add(&t1, &t2)
	t1.Sub(&t1, &t2)
	y3.Mul(&curveB3, &y3)
	x3.Mul(&t4, &y3)
	t2.Mul(&t3, &t1)
	x3.Sub(&t2, &x3)
	y3.Mul(&y3, &t0)
	t1.Mul(&t1, &z3)
	y3.Add(&t1, &y3)
	t0.Mul(&t0, &t3)
	z3.Mul(&z3, &t4)
	z3.Add(&z3, &t0)
	return x3, y3, z3
}

// addMixedG2 is addMixedG1 over Fp2 on the twist.
func addMixedG2(x1, y1, z1 *gfP2, q *g2Affine) (x3, y3, z3 gfP2) {
	var t0, t1, t2, t3, t4 gfP2
	t0.Mul(x1, &q.x)
	t1.Mul(y1, &q.y)
	t3.Add(&q.x, &q.y)
	t4.Add(x1, y1)
	t3.Mul(&t3, &t4)
	t4.Add(&t0, &t1)
	t3.Sub(&t3, &t4)
	t4.Mul(&q.y, z1)
	t4.Add(&t4, y1)
	y3.Mul(&q.x, z1)
	y3.Add(&y3, x1)
	x3.Double(&t0)
	t0.Add(&x3, &t0)
	t2.Mul(&twistB3, z1)
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
	return x3, y3, z3
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
