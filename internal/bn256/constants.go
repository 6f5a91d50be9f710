// Package bn256 implements a 256-bit Barreto–Naehrig pairing-friendly
// elliptic curve with groups G1, G2 and GT of prime order Order, and the
// bilinear optimal ate pairing e: G2 x G1 -> GT.
//
// The curve is defined by the BN parameter u below; the field prime p,
// the group order r, the trace of Frobenius t and the G2 twist cofactor
// are all derived from u at package initialization via the standard BN
// polynomial parametrization:
//
//	p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
//	r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
//	t = 6u^2 + 1
//
// G1 is the group of points of E: y^2 = x^3 + 3 over Fp with generator
// (1, 2). G2 is the order-r subgroup of the sextic D-twist
// E': y^2 = x^3 + 3/xi over Fp2, and GT is the order-r subgroup of
// Fp12*. The pairing e: G2 x G1 -> GT is the optimal ate pairing
// (Vercauteren): a Miller loop over the signed digits of 6u+2 that
// walks multiples of the G2 argument, two Frobenius end-lines, and a final
// exponentiation to the power (p^12-1)/r. Its G2 argument is the fixed
// one: PrecomputePairBatch records a G2 batch's lines once and
// PairBatchPrecomputed evaluates them at any number of G1 batches.
//
// The implementation is self-contained (standard library only): Fp uses
// 4x64-bit Montgomery limbs and the extension tower Fp2/Fp6/Fp12 is
// built as Fp2 = Fp(i) with i^2 = -1, Fp6 = Fp2[tau]/(tau^3 - xi) and
// Fp12 = Fp6[omega]/(omega^2 - tau). On amd64 CPUs with BMI2 and ADX the
// Fp and Fp2 multiplications run in assembly (gfp_amd64.s); the Go code
// they match runs everywhere else and under the purego build tag.
package bn256

import (
	"math/big"
)

// u is the BN curve parameter. This is the same parameter used by the
// original golang.org/x/crypto/bn256 curve, giving a 256-bit prime field.
var u = bigFromBase10("4965661367192848881")

var (
	// P is the prime order of the base field Fp.
	P *big.Int
	// Order is the prime order r of G1, G2 and GT.
	Order *big.Int
	// trace is the trace of Frobenius t = 6u^2 + 1.
	trace *big.Int
	// twistCofactor is #E'(Fp2)/r = 2p - r = p - 1 + t.
	twistCofactor *big.Int
	// finalExpHard is (p^4 - p^2 + 1)/r, the hard part of the final
	// exponentiation.
	finalExpHard *big.Int
	// sixUPlus2 is the optimal ate Miller loop length 6u + 2, and
	// sixUPlus2NAF its non-adjacent form, the digits the loop walks.
	sixUPlus2    *big.Int
	sixUPlus2NAF []int8
	// uWNAF is the width-4 wNAF of u, the digits of expByU and of the
	// G2 membership test's [u]Q.
	uWNAF []int8
	// sixUSquared is t - 1 = 6u^2, the eigenvalue of the twisted
	// Frobenius on G2 (p mod r).
	sixUSquared *big.Int
)

func bigFromBase10(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn256: invalid base-10 constant: " + s)
	}
	return n
}

// initParams derives p, r, t and the derived exponents from u.
func initParams() {
	one := big.NewInt(1)
	u2 := new(big.Int).Mul(u, u)
	u3 := new(big.Int).Mul(u2, u)
	u4 := new(big.Int).Mul(u3, u)

	// p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
	P = new(big.Int).Mul(u4, big.NewInt(36))
	P.Add(P, new(big.Int).Mul(u3, big.NewInt(36)))
	P.Add(P, new(big.Int).Mul(u2, big.NewInt(24)))
	P.Add(P, new(big.Int).Mul(u, big.NewInt(6)))
	P.Add(P, one)

	// r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
	Order = new(big.Int).Mul(u4, big.NewInt(36))
	Order.Add(Order, new(big.Int).Mul(u3, big.NewInt(36)))
	Order.Add(Order, new(big.Int).Mul(u2, big.NewInt(18)))
	Order.Add(Order, new(big.Int).Mul(u, big.NewInt(6)))
	Order.Add(Order, one)

	// t = 6u^2 + 1
	sixUSquared = new(big.Int).Mul(u2, big.NewInt(6))
	trace = new(big.Int).Add(sixUSquared, one)
	sixUPlus2 = new(big.Int).Mul(u, big.NewInt(6))
	sixUPlus2.Add(sixUPlus2, big.NewInt(2))
	sixUPlus2NAF = wnaf(sixUPlus2, 2)
	uWNAF = wnaf(u, uWNAFWidth)

	// twist cofactor c2 = p - 1 + t
	twistCofactor = new(big.Int).Add(P, trace)
	twistCofactor.Sub(twistCofactor, one)

	// hard part of the final exponentiation: (p^4 - p^2 + 1)/r
	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, one)
	rem := new(big.Int)
	h.DivMod(h, Order, rem)
	if rem.Sign() != 0 {
		panic("bn256: (p^4 - p^2 + 1) not divisible by r")
	}
	finalExpHard = h
}

// uWNAFWidth is the wNAF width of uWNAF: 14 non-zero digits over a
// table of four odd multiples, the fewest operations of any width.
const uWNAFWidth = 4

// scalarWNAFWidth is the wNAF width of the variable-time G1 and G2
// scalar multiplication, which sees public scalars only.
const scalarWNAFWidth = 5

// wnaf returns the width-w non-adjacent form of k >= 0, least
// significant digit first: sum d_i 2^i = k, every non-zero digit is odd
// with |d_i| < 2^(w-1), and any w consecutive digits hold at most one
// non-zero. Width 2 is the plain NAF. The leading digit is positive.
func wnaf(k *big.Int, w uint) []int8 {
	n := new(big.Int).Set(k)
	var d big.Int
	digits := make([]int8, 0, k.BitLen()+1)
	for n.Sign() > 0 {
		var di int64
		if n.Bit(0) == 1 {
			di = int64(n.Bits()[0] & (1<<w - 1))
			if di >= 1<<(w-1) {
				di -= 1 << w
			}
			n.Sub(n, d.SetInt64(di))
		}
		digits = append(digits, int8(di))
		n.Rsh(n, 1)
	}
	return digits
}

func init() {
	initParams()
	initGFp()
	initGFp2()
	initTower()
	initLanes()
	initCurve()
	initTwist()
	initComb()
}
