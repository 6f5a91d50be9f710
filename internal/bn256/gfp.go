package bn256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// gfP is an element of the prime field Fp held in Montgomery form as four
// little-endian 64-bit limbs: the value represented is limbs * 2^-256 mod p.
type gfP [4]uint64

var (
	// pLimbs holds p as little-endian limbs, and p2Limbs 2p, which the
	// assembly tower kernels subtract when a result may lie in [2p, 4p).
	pLimbs  [4]uint64
	p2Limbs [4]uint64
	// np is -p^-1 mod 2^64, the Montgomery reduction constant.
	np uint64
	// r2 is 2^512 mod p, used to convert into Montgomery form.
	r2 gfP
	// rOne is 1 in Montgomery form (2^256 mod p).
	rOne gfP
	// pMinus2 is p-2, the Fermat inversion exponent, as little-endian
	// limbs.
	pMinus2 [4]uint64
)

func initGFp() {
	if P.BitLen() > 256 {
		panic("bn256: prime does not fit in four limbs")
	}
	pLimbs, p2Limbs = [4]uint64{}, [4]uint64{}
	for i, w := range P.Bits() {
		pLimbs[i] = uint64(w)
	}
	for i, w := range new(big.Int).Lsh(P, 1).Bits() {
		p2Limbs[i] = uint64(w)
	}

	// np = -p^-1 mod 2^64 via Newton iteration on the low limb.
	inv := pLimbs[0] // p is odd, so p^-1 mod 2 == 1 == pLimbs[0] mod 2
	for i := 0; i < 5; i++ {
		inv *= 2 - pLimbs[0]*inv
	}
	np = -inv

	big256 := new(big.Int).Lsh(big.NewInt(1), 256)
	r2Big := new(big.Int).Mul(big256, big256)
	r2Big.Mod(r2Big, P)
	r2 = gfPFromRawBig(r2Big)

	rBig := new(big.Int).Mod(big256, P)
	rOne = gfPFromRawBig(rBig)

	pMinus2 = [4]uint64{}
	for i, w := range new(big.Int).Sub(P, big.NewInt(2)).Bits() {
		pMinus2[i] = uint64(w)
	}
}

// gfPFromRawBig loads a reduced big.Int into limbs without Montgomery
// conversion.
func gfPFromRawBig(n *big.Int) gfP {
	if n.Sign() < 0 || n.Cmp(P) >= 0 {
		panic("bn256: value out of range")
	}
	var e gfP
	for i, w := range n.Bits() {
		e[i] = uint64(w)
	}
	return e
}

// newGFp converts a small signed integer into a Montgomery-form field
// element.
func newGFp(x int64) *gfP {
	n := big.NewInt(x)
	n.Mod(n, P)
	e := gfPFromRawBig(n)
	e.montEncode(&e)
	return &e
}

// gfPFromBig converts an arbitrary big.Int into a Montgomery-form field
// element, reducing it mod p.
func gfPFromBig(n *big.Int) *gfP {
	m := new(big.Int).Mod(n, P)
	e := gfPFromRawBig(m)
	e.montEncode(&e)
	return &e
}

// BigInt returns the canonical (non-Montgomery) value of e.
func (e *gfP) BigInt() *big.Int {
	var d gfP
	d.montDecode(e)
	out := new(big.Int)
	for i := 3; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(d[i]))
	}
	return out
}

func (e *gfP) String() string {
	return fmt.Sprintf("%x", e.BigInt())
}

// Set sets e = a and returns e.
func (e *gfP) Set(a *gfP) *gfP {
	*e = *a
	return e
}

// SetZero sets e = 0.
func (e *gfP) SetZero() *gfP {
	*e = gfP{}
	return e
}

// SetOne sets e = 1 (in Montgomery form).
func (e *gfP) SetOne() *gfP {
	*e = rOne
	return e
}

// IsZero reports whether e == 0.
func (e *gfP) IsZero() bool {
	return e[0]|e[1]|e[2]|e[3] == 0
}

// Equal reports whether e == a.
func (e *gfP) Equal(a *gfP) bool {
	return e[0] == a[0] && e[1] == a[1] && e[2] == a[2] && e[3] == a[3]
}

// gteP reports whether the raw limbs of e are >= p. It branches on the
// value, so it serves only range checks on untrusted input.
func (e *gfP) gteP() bool {
	for i := 3; i >= 0; i-- {
		if e[i] > pLimbs[i] {
			return true
		}
		if e[i] < pLimbs[i] {
			return false
		}
	}
	return true // equal
}

// reduceOnce sets e = e mod p for raw limbs e < 2p, without branching on
// the value: it computes e - p and keeps it unless the subtraction
// borrowed. Because p < 2^254, every sum of two reduced elements and
// every Montgomery product fits in four limbs below 2p. Add and Mul
// write this select in line rather than call it, because the call cost
// as much as the select; TestGFpEdgeValues pins it at its boundaries.
func (e *gfP) reduceOnce() {
	var t gfP
	var b uint64
	t[0], b = bits.Sub64(e[0], pLimbs[0], 0)
	t[1], b = bits.Sub64(e[1], pLimbs[1], b)
	t[2], b = bits.Sub64(e[2], pLimbs[2], b)
	t[3], b = bits.Sub64(e[3], pLimbs[3], b)
	keep := -b // all ones when e < p
	e[0] = t[0] ^ (t[0]^e[0])&keep
	e[1] = t[1] ^ (t[1]^e[1])&keep
	e[2] = t[2] ^ (t[2]^e[2])&keep
	e[3] = t[3] ^ (t[3]^e[3])&keep
}

// Add sets e = a + b mod p and returns e. The sum of two reduced
// elements is below 2p, so reduceOnce's select, written in line, reduces
// it.
func (e *gfP) Add(a, b *gfP) *gfP {
	var s0, s1, s2, s3, r0, r1, r2, r3, c uint64
	s0, c = bits.Add64(a[0], b[0], 0)
	s1, c = bits.Add64(a[1], b[1], c)
	s2, c = bits.Add64(a[2], b[2], c)
	s3, _ = bits.Add64(a[3], b[3], c)
	r0, c = bits.Sub64(s0, pLimbs[0], 0)
	r1, c = bits.Sub64(s1, pLimbs[1], c)
	r2, c = bits.Sub64(s2, pLimbs[2], c)
	r3, c = bits.Sub64(s3, pLimbs[3], c)
	keep := -c
	e[0] = r0 ^ (r0^s0)&keep
	e[1] = r1 ^ (r1^s1)&keep
	e[2] = r2 ^ (r2^s2)&keep
	e[3] = r3 ^ (r3^s3)&keep
	return e
}

// addNR sets e = a + b with no reduction and returns e. For reduced a
// and b the sum is below 2p < 2^255, so it fits in four limbs; it is a
// valid operand of Mul (see there) and of nothing else.
func (e *gfP) addNR(a, b *gfP) *gfP {
	var c uint64
	e[0], c = bits.Add64(a[0], b[0], 0)
	e[1], c = bits.Add64(a[1], b[1], c)
	e[2], c = bits.Add64(a[2], b[2], c)
	e[3], _ = bits.Add64(a[3], b[3], c)
	return e
}

// Sub sets e = a - b mod p and returns e. A borrow adds p back, masked
// rather than branched.
func (e *gfP) Sub(a, b *gfP) *gfP {
	var brw uint64
	e[0], brw = bits.Sub64(a[0], b[0], 0)
	e[1], brw = bits.Sub64(a[1], b[1], brw)
	e[2], brw = bits.Sub64(a[2], b[2], brw)
	e[3], brw = bits.Sub64(a[3], b[3], brw)
	mask := -brw
	var c uint64
	e[0], c = bits.Add64(e[0], pLimbs[0]&mask, 0)
	e[1], c = bits.Add64(e[1], pLimbs[1]&mask, c)
	e[2], c = bits.Add64(e[2], pLimbs[2]&mask, c)
	e[3], _ = bits.Add64(e[3], pLimbs[3]&mask, c)
	return e
}

// Neg sets e = -a mod p and returns e.
func (e *gfP) Neg(a *gfP) *gfP {
	return e.Sub(&gfP{}, a)
}

// Double sets e = 2a mod p and returns e.
func (e *gfP) Double(a *gfP) *gfP {
	return e.Add(a, a)
}

// Mul sets e = a * b * 2^-256 mod p (the Montgomery product) and returns
// e. Operands may be unreduced below 2p (see mulGeneric) and e may alias
// either. On amd64 CPUs with BMI2 and ADX it runs the assembly kernel
// gfpMul, which computes the same limbs; elsewhere, and under the purego
// build tag, mulGeneric.
func (e *gfP) Mul(a, b *gfP) *gfP {
	if useADX {
		gfpMul(e, a, b)
		return e
	}
	return e.mulGeneric(a, b)
}

// mulGeneric is Mul in Go. It is CIOS (Koç–Acar–Kaliski) with all four
// rows written out, in the shape of gnark-crypto's generic no-carry
// template: each row takes its four products first, then runs its carry
// chains, then adds the m*p row that clears the low limb. Because
// p < 2^254 leaves the top limb's two high bits clear, a row needs one
// word above the four limbs and never the second carry word of textbook
// CIOS (the "no-carry" variant of Botrel and El Housni, TCHES 2023), and
// reduceOnce's select, written in line, ends it.
//
// Bounds, with R = 2^256 and a, b < 2p (Mul accepts unreduced operands
// below 2p, such as addNR's sums). Row i maps the running value T to
// (T + a_i*b + m*p)/2^64 with a_i, m < 2^64. If T < b + p, the new T is
// below (b + p + (2^64-1)(b + p))/2^64 = b + p, so every T stays below
// b + p < 3p < 2^256 and fits in four limbs t0..t3. Within a row,
// T + a_i*b < b + p + 2^64*b < 2^320 fits in the five limbs t0..t4, and
// so does T + a_i*b + m*p < 2^64(b + p). The value reaching the select
// is t = (ab + Mp)/R with M < R, so t < ab/R + p < 4p^2/R + p < 2p,
// because 4p < 2^256: one conditional subtraction reduces it.
func (e *gfP) mulGeneric(a, b *gfP) *gfP {
	var t0, t1, t2, t3, t4, h0, h1, h2, h3, l0, l1, l2, l3, m, c uint64
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	p0, p1, p2, p3 := pLimbs[0], pLimbs[1], pLimbs[2], pLimbs[3]

	// Row 0: T = a_0*b, then T = (T + m*p)/2^64.
	h0, t0 = bits.Mul64(a[0], b0)
	h1, t1 = bits.Mul64(a[0], b1)
	h2, t2 = bits.Mul64(a[0], b2)
	h3, t3 = bits.Mul64(a[0], b3)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(h3, 0, c)
	m = t0 * np
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, _ = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, _ = bits.Add64(t3, h3, c)

	// Row 1: T += a_1*b, then T = (T + m*p)/2^64.
	h0, l0 = bits.Mul64(a[1], b0)
	h1, l1 = bits.Mul64(a[1], b1)
	h2, l2 = bits.Mul64(a[1], b2)
	h3, l3 = bits.Mul64(a[1], b3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, h3, c)
	m = t0 * np
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
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
	h0, l0 = bits.Mul64(a[2], b0)
	h1, l1 = bits.Mul64(a[2], b1)
	h2, l2 = bits.Mul64(a[2], b2)
	h3, l3 = bits.Mul64(a[2], b3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, h3, c)
	m = t0 * np
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
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
	h0, l0 = bits.Mul64(a[3], b0)
	h1, l1 = bits.Mul64(a[3], b1)
	h2, l2 = bits.Mul64(a[3], b2)
	h3, l3 = bits.Mul64(a[3], b3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, h3, c)
	m = t0 * np
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3, _ = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t0, h0, 0)
	t1, c = bits.Add64(t1, h1, c)
	t2, c = bits.Add64(t2, h2, c)
	t3, _ = bits.Add64(t3, h3, c)

	// t < 2p: keep t - p unless it borrowed.
	var r0, r1, r2, r3 uint64
	r0, c = bits.Sub64(t0, p0, 0)
	r1, c = bits.Sub64(t1, p1, c)
	r2, c = bits.Sub64(t2, p2, c)
	r3, c = bits.Sub64(t3, p3, c)
	keep := -c
	e[0] = r0 ^ (r0^t0)&keep
	e[1] = r1 ^ (r1^t1)&keep
	e[2] = r2 ^ (r2^t2)&keep
	e[3] = r3 ^ (r3^t3)&keep
	return e
}

// Square sets e = a^2 mod p and returns e.
func (e *gfP) Square(a *gfP) *gfP {
	return e.Mul(a, a)
}

// montEncode converts a from canonical into Montgomery form.
func (e *gfP) montEncode(a *gfP) *gfP {
	return e.Mul(a, &r2)
}

// montDecode converts a from Montgomery into canonical form.
func (e *gfP) montDecode(a *gfP) *gfP {
	return e.Mul(a, &gfP{1})
}

// Exp sets e = a^k mod p for a non-negative exponent k and returns e.
func (e *gfP) Exp(a *gfP, k *big.Int) *gfP {
	acc := rOne
	base := *a
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if k.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	*e = acc
	return e
}

// Invert sets e = a^-1 mod p via Fermat's little theorem and returns e.
// Inverting zero yields zero. It raises a to p-2 with fixed 4-bit
// windows over the limbs of p-2: a table of a^0..a^15, then per window
// four squarings and a multiplication by the table entry the window
// names. The exponent is a public constant, so the sequence of
// operations and the entries read are the same for every a.
func (e *gfP) Invert(a *gfP) *gfP {
	var table [16]gfP
	table[0] = rOne
	table[1] = *a
	for i := 2; i < len(table); i++ {
		table[i].Mul(&table[i-1], a)
	}
	acc := table[pMinus2[3]>>60]
	for i := 62; i >= 0; i-- {
		acc.Square(&acc)
		acc.Square(&acc)
		acc.Square(&acc)
		acc.Square(&acc)
		if w := pMinus2[i/16] >> (4 * (i % 16)) & 15; w != 0 {
			acc.Mul(&acc, &table[w])
		}
	}
	*e = acc
	return e
}

// Marshal writes the 32-byte big-endian canonical encoding of e to out,
// four big-endian words, the most significant first.
func (e *gfP) Marshal(out []byte) {
	var d gfP
	d.montDecode(e)
	for i := range 4 {
		binary.BigEndian.PutUint64(out[8*i:], d[3-i])
	}
}

// Unmarshal sets e from a 32-byte big-endian canonical encoding. It
// returns an error if the value is not fully reduced.
func (e *gfP) Unmarshal(in []byte) error {
	var d gfP
	for i := range 4 {
		d[3-i] = binary.BigEndian.Uint64(in[8*i:])
	}
	if d.gteP() {
		return errFieldElementRange
	}
	e.montEncode(&d)
	return nil
}

var errFieldElementRange = fmt.Errorf("bn256: field element not reduced")
