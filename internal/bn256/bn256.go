package bn256

import (
	"errors"
	"math/big"
)

// G1 is an element of the order-r group of points on E(Fp). The zero
// value is not valid; use new(G1).Set... or the package functions.
type G1 struct {
	p curvePoint
}

// G2 is an element of the order-r subgroup of the twist E'(Fp2).
type G2 struct {
	p twistPoint
}

// GT is an element of the order-r subgroup of Fp12*.
type GT struct {
	p gfP12
}

// ScalarBaseMult sets e = g1^k where g1 is the generator (1, 2), with
// the constant-time fixed-base comb (comb.go). Reading k out of its
// big.Int (norm, FillBytes) is variable-time, so secret scalars go
// through BaseMultG1s, which takes bytes.
func (e *G1) ScalarBaseMult(k *big.Int) *G1 {
	s := combScalar(norm(k))
	e.p.combBaseMult(&s)
	return e
}

// BaseMultGroup is the most points BaseMultG1s makes affine with one
// field inversion: eight lane chunks. A caller with many short batches,
// SJ.Enc's rows, fills a call up to it.
const BaseMultGroup = 8 * laneRows

// BaseMultG1s sets out[i] = g1^ks[i] for the big-endian scalars ks,
// each any 32 bytes (the result depends on ks[i] mod Order), in affine
// form: ScalarBaseMult on a batch, with the scalars read as bytes rather
// than through a big.Int, and constant time throughout, the point at
// infinity included. The scalars run in chunks of eight, the last one
// shorter, whatever rows they came from: on CPUs with AVX-512 IFMA a
// chunk of combLaneMin to eight scalars is the eight lanes of one comb
// (g1CombLanes), and the rest run the scalar comb. Each chunk's (X:Y:Z)
// is parked in its outputs, and each group of up to BaseMultGroup of
// them is made affine in place with one inversion (g1AffineBatch). The
// outputs must be distinct points. It panics unless len(out) == len(ks).
func BaseMultG1s(out []*G1, ks [][32]byte) {
	if len(out) != len(ks) {
		panic("bn256: BaseMultG1s needs one output per scalar")
	}
	for len(ks) > 0 {
		n := min(len(ks), BaseMultGroup)
		for lo := 0; lo < n; lo += laneRows {
			hi := min(lo+laneRows, n)
			var acc [laneRows]g1Proj
			if useIFMA && hi-lo >= combLaneMin {
				g1CombLanes(acc[:hi-lo], ks[lo:hi])
			} else {
				for k := lo; k < hi; k++ {
					s := combLimbs(&ks[k])
					acc[k-lo] = g1CombProj(&s)
				}
			}
			for k := lo; k < hi; k++ {
				a := &acc[k-lo]
				out[k].p = curvePoint{a.x, a.y, a.z}
			}
		}
		g1AffineBatch(out[:n])
		out, ks = out[n:], ks[n:]
	}
}

// Add sets e = a + b (group operation written additively).
func (e *G1) Add(a, b *G1) *G1 {
	e.p.Add(&a.p, &b.p)
	return e
}

// Neg sets e = -a.
func (e *G1) Neg(a *G1) *G1 {
	e.p.Neg(&a.p)
	return e
}

// Set sets e = a.
func (e *G1) Set(a *G1) *G1 {
	e.p.Set(&a.p)
	return e
}

// SetInfinity sets e to the group identity.
func (e *G1) SetInfinity() *G1 {
	e.p.SetInfinity()
	return e
}

// IsInfinity reports whether e is the group identity.
func (e *G1) IsInfinity() bool {
	return e.p.IsInfinity()
}

// Equal reports whether e == a.
func (e *G1) Equal(a *G1) bool {
	return e.p.Equal(&a.p)
}

// Marshal encodes e as 64 bytes: the affine x and y coordinates, big
// endian. The identity encodes as all zeros.
func (e *G1) Marshal() []byte {
	out := make([]byte, 64)
	if e.p.IsInfinity() {
		return out
	}
	var a curvePoint
	a.Set(&e.p)
	a.MakeAffine()
	a.x.Marshal(out[:32])
	a.y.Marshal(out[32:])
	return out
}

// Unmarshal decodes a point produced by Marshal, verifying that it lies
// on the curve. E(Fp) has prime order r, so that is the whole G1
// membership check.
func (e *G1) Unmarshal(data []byte) error {
	if len(data) != 64 {
		return errors.New("bn256: invalid G1 encoding length")
	}
	if allZero(data) {
		e.p.SetInfinity()
		return nil
	}
	var a curvePoint
	if err := a.x.Unmarshal(data[:32]); err != nil {
		return err
	}
	if err := a.y.Unmarshal(data[32:]); err != nil {
		return err
	}
	a.z.SetOne()
	if !a.isOnCurve() {
		return errors.New("bn256: malformed G1 point")
	}
	e.p.Set(&a)
	return nil
}

// ScalarBaseMult sets e = g2^k where g2 is the fixed twist generator,
// with the constant-time fixed-base comb, as G1.ScalarBaseMult.
func (e *G2) ScalarBaseMult(k *big.Int) *G2 {
	s := combScalar(norm(k))
	e.p.combBaseMult(&s)
	return e
}

// BaseMultG2s sets out[i] = g2^ks[i] for the big-endian scalars ks, as
// BaseMultG1s does in G1: in affine form, constant time, and on CPUs
// with AVX-512 IFMA chunks of combLaneMin to eight scalars as the eight
// lanes of one comb (g2CombLanes), each chunk made affine with one
// inversion (g2AffineBatch). It panics unless len(out) == len(ks).
func BaseMultG2s(out []*G2, ks [][32]byte) {
	if len(out) != len(ks) {
		panic("bn256: BaseMultG2s needs one output per scalar")
	}
	for len(ks) > 0 {
		n := min(len(ks), laneRows)
		var acc [laneRows]g2Proj
		if useIFMA && n >= combLaneMin {
			g2CombLanes(acc[:n], ks[:n])
		} else {
			for k := range n {
				s := combLimbs(&ks[k])
				acc[k] = g2CombProj(&s)
			}
		}
		g2AffineBatch(out[:n], acc[:n])
		out, ks = out[n:], ks[n:]
	}
}

// Add sets e = a + b.
func (e *G2) Add(a, b *G2) *G2 {
	e.p.Add(&a.p, &b.p)
	return e
}

// Neg sets e = -a.
func (e *G2) Neg(a *G2) *G2 {
	e.p.Neg(&a.p)
	return e
}

// Set sets e = a.
func (e *G2) Set(a *G2) *G2 {
	e.p.Set(&a.p)
	return e
}

// SetInfinity sets e to the group identity.
func (e *G2) SetInfinity() *G2 {
	e.p.SetInfinity()
	return e
}

// IsInfinity reports whether e is the group identity.
func (e *G2) IsInfinity() bool {
	return e.p.IsInfinity()
}

// Equal reports whether e == a.
func (e *G2) Equal(a *G2) bool {
	return e.p.Equal(&a.p)
}

// NormalizeG2 puts every point of ps in affine form with one field
// inversion for the whole batch, so that their Marshal calls skip the
// inversion each would pay. The points' values do not change.
func NormalizeG2(ps []*G2) {
	ts := make([]*twistPoint, len(ps))
	for i, e := range ps {
		ts[i] = &e.p
	}
	batchMakeAffineTwist(ts)
}

// Flag bits of the compressed G2 encoding, in its first byte: p < 2^254
// leaves the top two bits of a big-endian coordinate free.
const (
	g2Infinity = 0x80
	g2YSign    = 0x40
)

// Marshal encodes e in 64 compressed bytes: x.a0 || x.a1, big endian,
// with the sign of y (sgn0) in bit 6 of the first byte. The identity
// encodes as 0x80 followed by zeros.
func (e *G2) Marshal() []byte {
	out := make([]byte, 64)
	if e.p.IsInfinity() {
		out[0] = g2Infinity
		return out
	}
	var a twistPoint
	a.Set(&e.p)
	a.MakeAffine()
	a.x.a0.Marshal(out[0:32])
	a.x.a1.Marshal(out[32:64])
	if a.y.sgn0() {
		out[0] |= g2YSign
	}
	return out
}

// Unmarshal decodes a point produced by Marshal: it recovers y from the
// twist equation and verifies membership in the order-r subgroup. Each
// point has exactly one accepted encoding. It is UnmarshalG2s of one
// element.
func (e *G2) Unmarshal(data []byte) error {
	_, err := UnmarshalG2s(data, []*G2{e})
	return err
}

// UnmarshalG2s decodes len(out) consecutive 64-byte encodings produced by
// Marshal, each as Unmarshal describes, and returns how many decoded
// from the start: len(out) and nil, or the index of the lowest failing
// element and its error. out's elements before that index are set, the
// others are left alone. Elements go in groups of eight: a group's
// square roots run together (sqrtLanes), and so do its subgroup checks
// (inG2Lanes), on the lanes where the CPU has them and there are
// laneMinPoints or more points not at infinity.
func UnmarshalG2s(data []byte, out []*G2) (int, error) {
	if len(data) != 64*len(out) {
		return 0, errors.New("bn256: invalid G2 encoding length")
	}
	var pts [laneRows]twistPoint
	var neg [laneRows]bool
	var rhs [laneRows]gfP2
	var roots [laneRows]gfP2
	var finite [laneRows]*twistPoint // the points not at infinity, in index order
	var at [laneRows]int             // their indexes in the group
	for start := 0; start < len(out); start += laneRows {
		group := out[start:min(start+laneRows, len(out))]
		bad, badErr := len(group), error(nil)
		nf := 0
		for i := range group {
			inf, err := pts[i].decodeX(data[64*(start+i):64*(start+i+1)], &rhs[nf], &neg[i])
			if err != nil {
				bad, badErr = i, err
				break
			}
			if !inf {
				finite[nf], at[nf] = &pts[i], i
				nf++
			}
		}
		if f := sqrts(roots[:nf], rhs[:nf]); f < nf {
			bad, badErr, nf = at[f], errors.New("bn256: G2 x-coordinate not on the twist"), f
		}
		for j, t := range finite[:nf] {
			t.setY(&roots[j], neg[at[j]])
		}
		if f := firstNotInG2(finite[:nf]); f < nf {
			bad, badErr = at[f], errors.New("bn256: G2 point not in the order-r subgroup")
		}
		for i := range bad {
			group[i].p = pts[i]
		}
		if badErr != nil {
			return start + bad, badErr
		}
	}
	return len(out), nil
}

// sqrts sets ys[j] to a square root of as[j] for up to eight elements and
// returns the index of the first without one, or len(as): on the lanes
// (sqrtLanes) where the CPU has them and there are laneMinPoints or
// more, else gfP2.Sqrt one by one.
func sqrts(ys, as []gfP2) int {
	if useIFMA && len(as) >= laneMinPoints {
		var ps [laneRows]*gfP2
		for j := range as {
			ps[j] = &as[j]
		}
		var ok [laneRows]bool
		sqrtLanes(ys, ps[:len(as)], ok[:])
		for j := range as {
			if !ok[j] {
				return j
			}
		}
		return len(as)
	}
	for j := range as {
		if !ys[j].Sqrt(&as[j]) {
			return j
		}
	}
	return len(as)
}

// firstNotInG2 returns the index of the first of up to eight points
// that fails inG2, or len(ts).
func firstNotInG2(ts []*twistPoint) int {
	if useIFMA && len(ts) >= laneMinPoints {
		var ok [laneRows]bool
		inG2Lanes(ts, ok[:])
		for k := range ts {
			if !ok[k] {
				return k
			}
		}
		return len(ts)
	}
	for k, t := range ts {
		if !t.inG2() {
			return k
		}
	}
	return len(ts)
}

// decodeX reads a 64-byte encoding of Marshal up to its square root,
// with every check of Unmarshal before it: the flag bits and x below p.
// For the infinity encoding it sets t to infinity and reports inf.
// Otherwise it sets t.x, rhs to x^3 + b, the square y must have on the
// twist, and neg to whether y takes the sign bit.
func (t *twistPoint) decodeX(data []byte, rhs *gfP2, neg *bool) (inf bool, err error) {
	flags := data[0] & (g2Infinity | g2YSign)
	if flags&g2Infinity != 0 {
		if data[0] != g2Infinity || !allZero(data[1:]) {
			return false, errors.New("bn256: malformed G2 infinity encoding")
		}
		t.SetInfinity()
		return true, nil
	}
	var x0 [32]byte
	copy(x0[:], data[:32])
	x0[0] &^= flags
	if err := t.x.a0.Unmarshal(x0[:]); err != nil {
		return false, err
	}
	if err := t.x.a1.Unmarshal(data[32:64]); err != nil {
		return false, err
	}
	rhs.Square(&t.x)
	rhs.Mul(rhs, &t.x)
	rhs.Add(rhs, &twistB)
	*neg = flags&g2YSign != 0
	return false, nil
}

// setY completes decodeX with a square root y of rhs: t.y is y or -y,
// whichever has the sign bit neg, and t.z is one.
func (t *twistPoint) setY(y *gfP2, neg bool) {
	t.y = *y
	if t.y.sgn0() != neg {
		t.y.Neg(&t.y)
	}
	t.z.SetOne()
}

// Pair computes the optimal ate pairing e(q, p).
func Pair(q *G2, p *G1) *GT {
	return PairBatch([]*G2{q}, []*G1{p})
}

// PairBatch computes the product of pairings prod_i e(qs[i], ps[i]) with
// one shared Miller loop and one final exponentiation. It is
// substantially faster than multiplying len(ps) individual pairings. It
// panics if the two batches differ in length.
func PairBatch(qs []*G2, ps []*G1) *GT {
	return PairBatchPrecomputed(PrecomputePairBatch(qs), ps)
}

// Mul sets e = a * b (the GT group operation) and returns e.
func (e *GT) Mul(a, b *GT) *GT {
	e.p.Mul(&a.p, &b.p)
	return e
}

// Set sets e = a and returns e.
func (e *GT) Set(a *GT) *GT {
	e.p.Set(&a.p)
	return e
}

// SetOne sets e to the GT identity and returns e.
func (e *GT) SetOne() *GT {
	e.p.SetOne()
	return e
}

// IsOne reports whether e is the GT identity.
func (e *GT) IsOne() bool {
	return e.p.IsOne()
}

// Equal reports whether e == a.
func (e *GT) Equal(a *GT) bool {
	return e.p.Equal(&a.p)
}

// Marshal encodes e as 384 bytes (twelve Fp coefficients, big endian).
// Equal GT elements produce identical encodings, making the output
// usable as a hash-join key.
func (e *GT) Marshal() []byte {
	out := make([]byte, 384)
	coeffs := []*gfP{
		&e.p.c0.b0.a0, &e.p.c0.b0.a1,
		&e.p.c0.b1.a0, &e.p.c0.b1.a1,
		&e.p.c0.b2.a0, &e.p.c0.b2.a1,
		&e.p.c1.b0.a0, &e.p.c1.b0.a1,
		&e.p.c1.b1.a0, &e.p.c1.b1.a1,
		&e.p.c1.b2.a0, &e.p.c1.b2.a1,
	}
	for i, c := range coeffs {
		c.Marshal(out[i*32 : (i+1)*32])
	}
	return out
}

// Unmarshal decodes an element produced by Marshal.
func (e *GT) Unmarshal(data []byte) error {
	if len(data) != 384 {
		return errors.New("bn256: invalid GT encoding length")
	}
	coeffs := []*gfP{
		&e.p.c0.b0.a0, &e.p.c0.b0.a1,
		&e.p.c0.b1.a0, &e.p.c0.b1.a1,
		&e.p.c0.b2.a0, &e.p.c0.b2.a1,
		&e.p.c1.b0.a0, &e.p.c1.b0.a1,
		&e.p.c1.b1.a0, &e.p.c1.b1.a1,
		&e.p.c1.b2.a0, &e.p.c1.b2.a1,
	}
	for i, c := range coeffs {
		if err := c.Unmarshal(data[i*32 : (i+1)*32]); err != nil {
			return err
		}
	}
	return nil
}

// norm reduces k into [0, Order) so that negative and oversized scalars
// behave as their canonical representatives.
func norm(k *big.Int) *big.Int {
	if k.Sign() >= 0 && k.Cmp(Order) < 0 {
		return k
	}
	return new(big.Int).Mod(k, Order)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
