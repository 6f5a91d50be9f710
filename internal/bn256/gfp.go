package bn256

import (
	"fmt"
	"math/big"
	"math/bits"
)

// gfP is an element of the prime field Fp held in Montgomery form as four
// little-endian 64-bit limbs: the value represented is limbs * 2^-256 mod p.
type gfP [4]uint64

var (
	// pLimbs holds p as little-endian limbs.
	pLimbs [4]uint64
	// np is -p^-1 mod 2^64, the Montgomery reduction constant.
	np uint64
	// r2 is 2^512 mod p, used to convert into Montgomery form.
	r2 gfP
	// rOne is 1 in Montgomery form (2^256 mod p).
	rOne gfP
	// pMinus2 is p-2, the Fermat inversion exponent.
	pMinus2 *big.Int
)

func initGFp() {
	if P.BitLen() > 256 {
		panic("bn256: prime does not fit in four limbs")
	}
	for i := 0; i < 4; i++ {
		pLimbs[i] = 0
	}
	for i, w := range P.Bits() {
		pLimbs[i] = uint64(w)
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

	pMinus2 = new(big.Int).Sub(P, big.NewInt(2))
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
// every Montgomery product fits in four limbs below 2p.
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

// Add sets e = a + b mod p and returns e.
func (e *gfP) Add(a, b *gfP) *gfP {
	var c uint64
	e[0], c = bits.Add64(a[0], b[0], 0)
	e[1], c = bits.Add64(a[1], b[1], c)
	e[2], c = bits.Add64(a[2], b[2], c)
	e[3], _ = bits.Add64(a[3], b[3], c)
	e.reduceOnce()
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

// madd returns the 128-bit a*b + c + d as (hi, lo); it cannot overflow.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return hi, lo
}

// Mul sets e = a * b * 2^-256 mod p (the Montgomery product) and returns
// e. It interleaves each multiply row with its reduction row (CIOS,
// Koç–Acar–Kaliski), each row unrolled; unrolling the four rows too
// measured slower (register spills). Because p < 2^254 leaves the top
// limb's two high bits clear, the running value stays below 2p in four
// limbs, the extra carry words of textbook CIOS are never needed, and
// one branch-free reduceOnce at the end reduces the result (the
// "no-carry" variant of Botrel and El Housni, TCHES 2023).
func (e *gfP) Mul(a, b *gfP) *gfP {
	var t0, t1, t2, t3 uint64
	for i := 0; i < 4; i++ {
		v := a[i]
		// t += v*b; m chosen so that t + m*p is divisible by 2^64;
		// t = (t + m*p) >> 64.
		c1, c0 := madd(v, b[0], t0, 0)
		m := c0 * np
		c2, _ := madd(m, pLimbs[0], c0, 0)
		c1, c0 = madd(v, b[1], c1, t1)
		c2, t0 = madd(m, pLimbs[1], c2, c0)
		c1, c0 = madd(v, b[2], c1, t2)
		c2, t1 = madd(m, pLimbs[2], c2, c0)
		c1, c0 = madd(v, b[3], c1, t3)
		hi, lo := madd(m, pLimbs[3], c0, c2)
		t2 = lo
		t3 = hi + c1
	}
	*e = gfP{t0, t1, t2, t3}
	e.reduceOnce()
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
// Inverting zero yields zero.
func (e *gfP) Invert(a *gfP) *gfP {
	return e.Exp(a, pMinus2)
}

// Marshal appends the 32-byte big-endian canonical encoding of e to out.
func (e *gfP) Marshal(out []byte) {
	var d gfP
	d.montDecode(e)
	for i := 0; i < 4; i++ {
		w := d[3-i]
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (56 - 8*j))
		}
	}
}

// Unmarshal sets e from a 32-byte big-endian canonical encoding. It
// returns an error if the value is not fully reduced.
func (e *gfP) Unmarshal(in []byte) error {
	var d gfP
	for i := 0; i < 4; i++ {
		var w uint64
		for j := 0; j < 8; j++ {
			w = w<<8 | uint64(in[i*8+j])
		}
		d[3-i] = w
	}
	if d.gteP() {
		return errFieldElementRange
	}
	e.montEncode(&d)
	return nil
}

var errFieldElementRange = fmt.Errorf("bn256: field element not reduced")
