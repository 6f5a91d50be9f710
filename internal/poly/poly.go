// Package poly implements polynomial functions over Z_q in the sense of
// Section 3.2 of the paper. The Secure Join scheme encodes each IN-clause
// selection predicate as a polynomial whose roots are the selected
// attribute values (Section 4.1): the inner product of the polynomial's
// coefficient vector with the vector of attribute-value powers evaluates
// the polynomial, and vanishes exactly when the row's attribute value is
// one of the selected values (up to Schwartz-Zippel error t/q).
package poly

import (
	"fmt"
	"io"

	"repro/internal/zq"
)

// Polynomial is a polynomial over Z_q stored as a coefficient vector
// coeffs[i] being the coefficient of x^i. The zero polynomial is the
// empty or all-zero coefficient slice; the paper uses it to encode
// attributes without a selection predicate.
type Polynomial struct {
	coeffs zq.Vector
}

// Zero returns the identically-zero polynomial padded to degree bound t,
// i.e. t+1 zero coefficients.
func Zero(t int) Polynomial {
	return Polynomial{coeffs: zq.NewVector(t + 1)}
}

// FromRoots returns a polynomial of degree exactly t whose root set
// includes each element of roots. The paper requires degree-t
// polynomials encoding at most t roots; when len(roots) < t, the
// polynomial is multiplied by a uniformly random monic linear factor
// repeatedly (adding random roots), and finally scaled by a uniformly
// random non-zero leading multiplier so that, as Section 4.1 notes, the
// encoding is one of at least q admissible polynomials.
func FromRoots(roots []zq.Scalar, t int, rng io.Reader) (Polynomial, error) {
	if len(roots) > t {
		return Polynomial{}, fmt.Errorf("poly: %d roots exceed degree bound %d", len(roots), t)
	}
	// Start from the monic product of (x - root).
	coeffs := zq.NewVector(t + 1)
	coeffs[0] = zq.One()
	deg := 0
	mulLinear := func(root zq.Scalar) {
		// coeffs *= (x - root)
		neg := root.Neg()
		for i := deg + 1; i >= 1; i-- {
			coeffs[i] = coeffs[i-1].Add(coeffs[i].Mul(neg))
		}
		coeffs[0] = coeffs[0].Mul(neg)
		deg++
	}
	for _, r := range roots {
		mulLinear(r)
	}
	for deg < t {
		r, err := zq.Random(rng)
		if err != nil {
			return Polynomial{}, err
		}
		mulLinear(r)
	}
	// Random non-zero global scale.
	scale, err := zq.RandomNonZero(rng)
	if err != nil {
		return Polynomial{}, err
	}
	for i := range coeffs {
		coeffs[i] = coeffs[i].Mul(scale)
	}
	return Polynomial{coeffs: coeffs}, nil
}

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p Polynomial) Degree() int {
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		if !p.coeffs[i].IsZero() {
			return i
		}
	}
	return -1
}

// IsZero reports whether p is identically zero.
func (p Polynomial) IsZero() bool { return p.Degree() < 0 }

// Coeffs returns a copy of the coefficient vector of p, padded or
// truncated to exactly n entries.
func (p Polynomial) Coeffs(n int) zq.Vector {
	out := zq.NewVector(n)
	copy(out, p.coeffs)
	return out
}

// String renders p for debugging.
func (p Polynomial) String() string {
	if p.IsZero() {
		return "0"
	}
	s := ""
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		if p.coeffs[i].IsZero() {
			continue
		}
		if s != "" {
			s += " + "
		}
		if i == 0 {
			s += p.coeffs[i].String()
		} else {
			s += fmt.Sprintf("%v x^%d", p.coeffs[i], i)
		}
	}
	return s
}

// PowersOf returns (x^0, x^1, ..., x^t), the per-attribute block the
// Secure Join scheme stores encrypted so that a token's coefficient
// block can evaluate any degree-t selection polynomial via an inner
// product.
func PowersOf(x zq.Scalar, t int) zq.Vector {
	out := zq.NewVector(t + 1)
	acc := zq.One()
	for i := 0; i <= t; i++ {
		out[i] = acc
		acc = acc.Mul(x)
	}
	return out
}
