// Package zq implements arithmetic in Z_q, the prime field of scalars of
// the bn256 pairing groups. It provides the scalar type used by the
// matrices, polynomials and vectors of the Secure Join scheme, along
// with the cryptographic hash-to-Z_q embedding H(.) that the paper uses
// to map join-attribute values into the field (Section 4.1: "We use a
// cryptographic hash function to provide such a mapping").
//
// A Scalar is four 64-bit Montgomery limbs, and Add, Sub, Mul, Neg,
// Equal, IsZero, Inv, FromBytes, Bytes and Hash run in time independent
// of the values they are given: they compute with masks where a branch
// would test a value, and Inv raises to a fixed exponent. The client's
// secrets (the master key B and B*, the query key k, the row randomness
// gamma1 and gamma2, the token's delta and the hashed selection values)
// pass through only these. The exceptions are named where they are:
// Inv panics on zero, Random rejects candidates at or above q, and Big
// hands a scalar to the base-mult comb as a big.Int.
package zq

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"repro/internal/bn256"
)

// Q is the prime order of the scalar field (the order of G1, G2 and GT).
var Q = new(big.Int).Set(bn256.Order)

// Little-endian limbs of the field constants; TestConstants derives
// each from bn256.Order.
var (
	// qLimbs is q = 21888242871839275222246405745257275088548364400416034343698204186575808495617.
	qLimbs = [4]uint64{0x43e1f593f0000001, 0x2833e84879b97091, 0xb85045b68181585d, 0x30644e72e131a029}
	// qMinus2 is q-2, the Fermat inversion exponent.
	qMinus2 = [4]uint64{0x43e1f593efffffff, 0x2833e84879b97091, 0xb85045b68181585d, 0x30644e72e131a029}
	// r2 is 2^512 mod q, which converts into Montgomery form.
	r2 = [4]uint64{0x1bb8e645ae216da7, 0x53fe3ab1e35c59e3, 0x8c49833d53bb8085, 0x0216d0b17f4e44a5}
	// rOne is 1 in Montgomery form, 2^256 mod q.
	rOne = [4]uint64{0xac96341c4ffffffb, 0x36fc76959f60cd29, 0x666ea36f7879462e, 0x0e0a77c19a07df2f}
)

// qInvNeg is -q^-1 mod 2^64, the Montgomery reduction constant.
const qInvNeg = 0xc2e1f593efffffff

// Scalar is an element of Z_q. Scalars are immutable: all operations
// return new values. The zero value of Scalar is the field element 0.
type Scalar struct {
	// l holds s*2^256 mod q as little-endian limbs, always below q.
	l [4]uint64
}

// Zero returns the scalar 0.
func Zero() Scalar { return Scalar{} }

// One returns the scalar 1.
func One() Scalar { return Scalar{rOne} }

// FromInt64 returns the scalar representing x mod q. It branches on the
// sign of x, which is public wherever it is called.
func FromInt64(x int64) Scalar {
	if x < 0 {
		return fromRaw([4]uint64{uint64(-x)}).Neg()
	}
	return fromRaw([4]uint64{uint64(x)})
}

// FromBytes interprets b as a big-endian integer and reduces it mod q.
// It runs in time that depends on len(b) only.
func FromBytes(b []byte) Scalar {
	var acc Scalar
	head := len(b) % 32
	if head == 0 {
		head = 32
	}
	for len(b) > 0 {
		var chunk [32]byte
		copy(chunk[32-head:], b[:head])
		b = b[head:]
		head = 32
		// acc = acc*2^256 + chunk: a Montgomery product by 2^512 mod q
		// multiplies a Montgomery-form value by 2^256.
		var shifted Scalar
		montMul(&shifted.l, &acc.l, &r2)
		acc = shifted.Add(fromRaw(limbsOf(&chunk)))
	}
	return acc
}

// Random returns a uniformly random scalar. If r is nil, crypto/rand is
// used. It reads r exactly as crypto/rand.Int(r, Q) does: 32 bytes per
// candidate, the top byte masked to the 6 bits q-1 occupies, and a
// candidate at or above q discarded. Only the discarded candidates
// affect the time it takes.
func Random(r io.Reader) (Scalar, error) {
	if r == nil {
		r = rand.Reader
	}
	var buf [32]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Scalar{}, fmt.Errorf("zq: sampling scalar: %w", err)
		}
		buf[0] &= 0x3f
		v := limbsOf(&buf)
		if _, borrow := subQ(&v); borrow == 1 {
			return fromRaw(v), nil
		}
	}
}

// RandomNonZero returns a uniformly random scalar in Z_q \ {0}, the
// distribution the paper requires for per-query join keys k.
func RandomNonZero(r io.Reader) (Scalar, error) {
	for {
		s, err := Random(r)
		if err != nil {
			return Scalar{}, err
		}
		if !s.IsZero() {
			return s, nil
		}
	}
}

// MustRandom returns a random scalar, panicking on entropy failure. It
// is intended for tests and examples.
func MustRandom() Scalar {
	s, err := Random(nil)
	if err != nil {
		panic(err)
	}
	return s
}

// Hash maps an arbitrary byte string into Z_q using SHA-256. This is the
// paper's H(.): an injective-in-practice embedding whose outputs are
// computationally indistinguishable from uniform, as required by the
// Schwartz-Zippel argument in Section 4.1.
func Hash(data []byte) Scalar {
	h := sha256.Sum256(data)
	return FromBytes(h[:])
}

// Big returns the canonical representative of s in [0, q) as a new
// big.Int, the form the bn256 base mults take. big.Int arithmetic is not
// constant-time; the comb reads the value into fixed limbs at once.
func (s Scalar) Big() *big.Int {
	var b [32]byte
	s.Put(&b)
	return new(big.Int).SetBytes(b[:])
}

// Bytes returns the 32-byte big-endian encoding of s.
func (s Scalar) Bytes() []byte {
	var b [32]byte
	s.Put(&b)
	return b[:]
}

// Put writes the canonical 32-byte big-endian encoding of s to b, the
// form the bn256 batch base mults take, without an allocation.
func (s Scalar) Put(b *[32]byte) {
	var d [4]uint64
	montMul(&d, &s.l, &[4]uint64{1})
	for i := range 4 {
		binary.BigEndian.PutUint64(b[24-8*i:], d[i])
	}
}

// IsZero reports whether s == 0.
func (s Scalar) IsZero() bool { return s.l[0]|s.l[1]|s.l[2]|s.l[3] == 0 }

// Equal reports whether s == t.
func (s Scalar) Equal(t Scalar) bool {
	return (s.l[0]^t.l[0])|(s.l[1]^t.l[1])|(s.l[2]^t.l[2])|(s.l[3]^t.l[3]) == 0
}

// Add returns s + t mod q. The sum of two reduced scalars is below
// 2q < 2^255, so one masked subtraction of q reduces it.
func (s Scalar) Add(t Scalar) Scalar {
	var v [4]uint64
	var c uint64
	v[0], c = bits.Add64(s.l[0], t.l[0], 0)
	v[1], c = bits.Add64(s.l[1], t.l[1], c)
	v[2], c = bits.Add64(s.l[2], t.l[2], c)
	v[3], _ = bits.Add64(s.l[3], t.l[3], c)
	return Scalar{reduceOnce(&v)}
}

// Sub returns s - t mod q. A borrow adds q back, masked rather than
// branched.
func (s Scalar) Sub(t Scalar) Scalar {
	var r Scalar
	var b, c uint64
	r.l[0], b = bits.Sub64(s.l[0], t.l[0], 0)
	r.l[1], b = bits.Sub64(s.l[1], t.l[1], b)
	r.l[2], b = bits.Sub64(s.l[2], t.l[2], b)
	r.l[3], b = bits.Sub64(s.l[3], t.l[3], b)
	mask := -b
	r.l[0], c = bits.Add64(r.l[0], qLimbs[0]&mask, 0)
	r.l[1], c = bits.Add64(r.l[1], qLimbs[1]&mask, c)
	r.l[2], c = bits.Add64(r.l[2], qLimbs[2]&mask, c)
	r.l[3], _ = bits.Add64(r.l[3], qLimbs[3]&mask, c)
	return r
}

// Mul returns s * t mod q.
func (s Scalar) Mul(t Scalar) Scalar {
	var r Scalar
	montMul(&r.l, &s.l, &t.l)
	return r
}

// Neg returns -s mod q.
func (s Scalar) Neg() Scalar { return Scalar{}.Sub(s) }

// Inv returns s^-1 mod q by Fermat's little theorem, s^(q-2), with
// fixed 4-bit windows over the public exponent: a table of s^0..s^15,
// then per window four squarings and a multiplication by the entry the
// window names, so the operations and the entries read are the same for
// every s. Inverting zero panics, matching the mathematical domain
// error; that test is the one branch on s.
func (s Scalar) Inv() Scalar {
	if s.IsZero() {
		panic("zq: inverse of zero")
	}
	var table [16][4]uint64
	table[0] = rOne
	table[1] = s.l
	for i := 2; i < len(table); i++ {
		montMul(&table[i], &table[i-1], &s.l)
	}
	acc := table[qMinus2[3]>>60]
	for i := 62; i >= 0; i-- {
		for range 4 {
			montMul(&acc, &acc, &acc)
		}
		if w := qMinus2[i/16] >> (4 * (i % 16)) & 15; w != 0 {
			montMul(&acc, &acc, &table[w])
		}
	}
	return Scalar{acc}
}

// String returns the decimal representation of s.
func (s Scalar) String() string { return s.Big().String() }

// limbsOf reads a 32-byte big-endian integer into little-endian limbs.
func limbsOf(b *[32]byte) [4]uint64 {
	var v [4]uint64
	for i := range 4 {
		v[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return v
}

// fromRaw converts any 256-bit integer v into Montgomery form, reducing
// it mod q: the Montgomery product of v and 2^512 mod q is v*2^256 mod q
// (see montMul for why v need not be below q).
func fromRaw(v [4]uint64) Scalar {
	var s Scalar
	montMul(&s.l, &v, &r2)
	return s
}

// subQ returns v - q and the borrow out, 1 exactly when v < q.
func subQ(v *[4]uint64) ([4]uint64, uint64) {
	var d [4]uint64
	var b uint64
	d[0], b = bits.Sub64(v[0], qLimbs[0], 0)
	d[1], b = bits.Sub64(v[1], qLimbs[1], b)
	d[2], b = bits.Sub64(v[2], qLimbs[2], b)
	d[3], b = bits.Sub64(v[3], qLimbs[3], b)
	return d, b
}

// reduceOnce returns v mod q for v < 2q: v - q unless that borrowed,
// selected with a mask.
func reduceOnce(v *[4]uint64) [4]uint64 {
	d, b := subQ(v)
	keep := -b // all ones when v < q
	return [4]uint64{
		d[0] ^ (d[0]^v[0])&keep,
		d[1] ^ (d[1]^v[1])&keep,
		d[2] ^ (d[2]^v[2])&keep,
		d[3] ^ (d[3]^v[3])&keep,
	}
}

// montMul sets z = x*y*2^-256 mod q, the Montgomery product, reduced
// below q; z may alias x or y. It is the no-carry CIOS of bn256's
// gfP.mulGeneric with the same four rows written out: q < 2^254 leaves
// the top limb's two high bits clear, so a row needs one word above the
// four limbs.
//
// Bounds, with R = 2^256, y < q and x any 256-bit value. Row i maps the
// running T to (T + x_i*y + m*q)/2^64 with x_i, m < 2^64; if T < y + q,
// the new T is below (y + q + (2^64-1)(y + q))/2^64 = y + q < 2q, so T
// fits in four limbs, and within a row T + x_i*y + m*q < 2^64(y + q)
// fits in five. The value reaching the final select is
// (xy + Mq)/R < y + q < 2q with M < R, so one masked subtraction reduces
// it. That x may be unreduced is what lets fromRaw reduce any 256-bit
// integer.
func montMul(z, x, y *[4]uint64) {
	var t0, t1, t2, t3, t4, h0, h1, h2, h3, l0, l1, l2, l3, m, c uint64
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	q0, q1, q2, q3 := qLimbs[0], qLimbs[1], qLimbs[2], qLimbs[3]

	// Row 0: T = x_0*y, then T = (T + m*q)/2^64, m chosen to clear the
	// low limb.
	h0, t0 = bits.Mul64(x[0], y0)
	h1, t1 = bits.Mul64(x[0], y1)
	h2, t2 = bits.Mul64(x[0], y2)
	h3, t3 = bits.Mul64(x[0], y3)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(h3, 0, c)
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, _ = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, _ = bits.Add64(t3, h3, c)

	// Row 1: T += x_1*y, then T = (T + m*q)/2^64.
	h0, l0 = bits.Mul64(x[1], y0)
	h1, l1 = bits.Mul64(x[1], y1)
	h2, l2 = bits.Mul64(x[1], y2)
	h3, l3 = bits.Mul64(x[1], y3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, h3, c)
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, _ = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, _ = bits.Add64(t3, h3, c)

	// Row 2.
	h0, l0 = bits.Mul64(x[2], y0)
	h1, l1 = bits.Mul64(x[2], y1)
	h2, l2 = bits.Mul64(x[2], y2)
	h3, l3 = bits.Mul64(x[2], y3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, h3, c)
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, _ = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, _ = bits.Add64(t3, h3, c)

	// Row 3.
	h0, l0 = bits.Mul64(x[3], y0)
	h1, l1 = bits.Mul64(x[3], y1)
	h2, l2 = bits.Mul64(x[3], y2)
	h3, l3 = bits.Mul64(x[3], y3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, h3, c)
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, _ = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, _ = bits.Add64(t3, h3, c)

	// t < 2q: keep t - q unless it borrowed.
	var r0, r1, r2, r3 uint64
	r0, c = bits.Sub64(t0, q0, 0)
	r1, c = bits.Sub64(t1, q1, c)
	r2, c = bits.Sub64(t2, q2, c)
	r3, c = bits.Sub64(t3, q3, c)
	keep := -c
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = r3 ^ (r3^t3)&keep
}

// Vector is a slice of scalars.
type Vector []Scalar

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and w are identical vectors.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if !v[i].Equal(w[i]) {
			return false
		}
	}
	return true
}
