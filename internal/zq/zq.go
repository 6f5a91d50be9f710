// Package zq implements arithmetic in Z_q, the prime field of scalars of
// the bn256 pairing groups. It provides the scalar type used by the
// matrices, polynomials and vectors of the Secure Join scheme, along
// with the cryptographic hash-to-Z_q embedding H(.) that the paper uses
// to map join-attribute values into the field (Section 4.1: "We use a
// cryptographic hash function to provide such a mapping").
package zq

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"

	"repro/internal/bn256"
)

// Q is the prime order of the scalar field (the order of G1, G2 and GT).
var Q = new(big.Int).Set(bn256.Order)

// Scalar is an element of Z_q. Scalars are immutable: all operations
// return new values. The zero value of Scalar is the field element 0.
type Scalar struct {
	v big.Int // always in [0, Q)
}

// Zero returns the scalar 0.
func Zero() Scalar { return Scalar{} }

// One returns the scalar 1.
func One() Scalar { return FromInt64(1) }

// FromInt64 returns the scalar representing x mod q.
func FromInt64(x int64) Scalar {
	var s Scalar
	s.v.SetInt64(x)
	s.v.Mod(&s.v, Q)
	return s
}

// FromBytes interprets b as a big-endian integer and reduces it mod q.
func FromBytes(b []byte) Scalar {
	var s Scalar
	s.v.SetBytes(b)
	s.v.Mod(&s.v, Q)
	return s
}

// Random returns a uniformly random scalar. If r is nil, crypto/rand is
// used.
func Random(r io.Reader) (Scalar, error) {
	if r == nil {
		r = rand.Reader
	}
	v, err := rand.Int(r, Q)
	if err != nil {
		return Scalar{}, fmt.Errorf("zq: sampling scalar: %w", err)
	}
	var s Scalar
	s.v.Set(v)
	return s, nil
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

// Big returns a copy of the canonical representative of s in [0, q).
func (s Scalar) Big() *big.Int {
	return new(big.Int).Set(&s.v)
}

// Bytes returns the 32-byte big-endian encoding of s.
func (s Scalar) Bytes() []byte {
	out := make([]byte, 32)
	s.v.FillBytes(out)
	return out
}

// IsZero reports whether s == 0.
func (s Scalar) IsZero() bool { return s.v.Sign() == 0 }

// Equal reports whether s == t.
func (s Scalar) Equal(t Scalar) bool { return s.v.Cmp(&t.v) == 0 }

// Add returns s + t mod q.
func (s Scalar) Add(t Scalar) Scalar {
	var r Scalar
	r.v.Add(&s.v, &t.v)
	r.v.Mod(&r.v, Q)
	return r
}

// Sub returns s - t mod q.
func (s Scalar) Sub(t Scalar) Scalar {
	var r Scalar
	r.v.Sub(&s.v, &t.v)
	r.v.Mod(&r.v, Q)
	return r
}

// Mul returns s * t mod q.
func (s Scalar) Mul(t Scalar) Scalar {
	var r Scalar
	r.v.Mul(&s.v, &t.v)
	r.v.Mod(&r.v, Q)
	return r
}

// Neg returns -s mod q.
func (s Scalar) Neg() Scalar {
	if s.IsZero() {
		return s
	}
	var r Scalar
	r.v.Sub(Q, &s.v)
	return r
}

// Inv returns s^-1 mod q. Inverting zero panics, matching the
// mathematical domain error.
func (s Scalar) Inv() Scalar {
	if s.IsZero() {
		panic("zq: inverse of zero")
	}
	var r Scalar
	r.v.ModInverse(&s.v, Q)
	return r
}

// Exp returns s^k mod q for k >= 0.
func (s Scalar) Exp(k int) Scalar {
	if k < 0 {
		panic("zq: negative exponent")
	}
	var r Scalar
	r.v.Exp(&s.v, big.NewInt(int64(k)), Q)
	return r
}

// String returns the decimal representation of s.
func (s Scalar) String() string { return s.v.String() }

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
