// Package ipe implements the modified function-hiding inner-product
// encryption (FHIPE) of Section 4.2 of the paper over the bn256 pairing
// groups: the scheme of Kim, Lewi, Mandal, Montgomery, Roy and Wu
// (SCN'18) with its randomizers alpha and beta fixed to 1 (randomness
// is carried inside the vectors instead) and only the second component
// of keys and ciphertexts kept. Decryption outputs the group element
//
//	D = e(g2, g1)^(det(B) * <v, w>)
//
// without extracting a discrete logarithm: Secure Join only compares D
// values for equality. The unmodified Section 3.3 scheme is derived in
// DESIGN.md, "Crypto substrate".
//
// Tokens live in G2 and ciphertexts in G1, so that the token, which
// SJ.Dec pairs against every row of a table, is the optimal ate
// pairing's fixed argument (see bn256). The scheme's correctness and
// its generic-group security argument are symmetric in the two source
// groups (DESIGN.md, "Crypto substrate").
package ipe

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bn256"
	"repro/internal/matrix"
	"repro/internal/zq"
)

// MasterKey is the IPE master secret key: the matrix B sampled from
// GL_n(Z_q) and its dual B* = det(B)(B^-1)^T.
type MasterKey struct {
	N     int
	B     *matrix.Matrix
	BStar *matrix.Matrix
}

// Setup samples a master secret key for vectors of dimension n.
// The public parameters (the bn256 group description) are implicit.
func Setup(n int, rng io.Reader) (*MasterKey, error) {
	if n <= 0 {
		return nil, errors.New("ipe: dimension must be positive")
	}
	b, err := matrix.RandomInvertible(n, rng)
	if err != nil {
		return nil, fmt.Errorf("ipe: sampling B: %w", err)
	}
	bStar, err := b.Dual()
	if err != nil {
		return nil, fmt.Errorf("ipe: computing B*: %w", err)
	}
	return &MasterKey{N: n, B: b, BStar: bStar}, nil
}

// Token is a modified-scheme key: the single vector component
// Tk = g2^(v B). The paper calls this the query's "unlocking token".
type Token struct {
	Elems []*bn256.G2
}

// CiphertextM is a modified-scheme ciphertext: the single vector
// component C = g1^(w B*).
type CiphertextM struct {
	Elems []*bn256.G1
}

// KeyGenModified computes Tk = g2^(v B) with alpha = 1; per Section 4.2
// the randomness that alpha provided lives inside v itself (the delta
// slot appended by the Secure Join token builder). The elements come
// back affine, normalised with one batched inversion, so encoding and
// precomputing them pays no inversion per element.
func (msk *MasterKey) KeyGenModified(v zq.Vector) (*Token, error) {
	if len(v) != msk.N {
		return nil, fmt.Errorf("ipe: token vector has length %d, want %d", len(v), msk.N)
	}
	vb := msk.B.MulVec(v)
	tk := &Token{Elems: make([]*bn256.G2, msk.N)}
	for i, c := range vb {
		tk.Elems[i] = new(bn256.G2).ScalarBaseMult(c.Big())
	}
	bn256.NormalizeG2(tk.Elems)
	return tk, nil
}

// EncryptModified computes C = g1^(w B*) with beta = 1; the gamma slots
// inside w carry the randomness. The elements come back affine, as in
// KeyGenModified.
func (msk *MasterKey) EncryptModified(w zq.Vector) (*CiphertextM, error) {
	if len(w) != msk.N {
		return nil, fmt.Errorf("ipe: plaintext vector has length %d, want %d", len(w), msk.N)
	}
	wb := msk.BStar.MulVec(w)
	ct := &CiphertextM{Elems: make([]*bn256.G1, msk.N)}
	for i, c := range wb {
		ct.Elems[i] = new(bn256.G1).ScalarBaseMult(c.Big())
	}
	bn256.NormalizeG1(ct.Elems)
	return ct, nil
}

// DecryptModified computes D = e(Tk, C) = e(g2,g1)^(det(B) <v, w>) using
// one batched multi-pairing. Secure Join compares these D values for
// equality; their discrete logs are never extracted.
func DecryptModified(tk *Token, ct *CiphertextM) (*bn256.GT, error) {
	if len(tk.Elems) != len(ct.Elems) {
		return nil, fmt.Errorf("ipe: token dimension %d does not match ciphertext dimension %d",
			len(tk.Elems), len(ct.Elems))
	}
	return bn256.PairBatch(tk.Elems, ct.Elems), nil
}

// TokenPrecomp is a token with its Miller program recorded
// once, amortizing the fixed-argument pairing work across every
// ciphertext the token is paired with. The handle is immutable and
// safe for concurrent use by multiple goroutines.
type TokenPrecomp struct {
	n  int
	pc *bn256.PairingPrecomp
}

// PrecomputeToken records the fixed-argument pairing program of a
// modified-scheme token. The cost is roughly one Miller loop; every
// subsequent Decrypt pays only the per-ciphertext evaluation.
func PrecomputeToken(tk *Token) *TokenPrecomp {
	return &TokenPrecomp{n: len(tk.Elems), pc: bn256.PrecomputePairBatch(tk.Elems)}
}

// Dim returns the token dimension the precomputation was built for.
func (tp *TokenPrecomp) Dim() int { return tp.n }

// Decrypt computes the same D value DecryptModified would for the
// precomputed token, evaluating the recorded Miller program at the
// ciphertext's G1 elements: DecryptRows of one ciphertext.
func (tp *TokenPrecomp) Decrypt(ct *CiphertextM) (*bn256.GT, error) {
	out := make([]bn256.GT, 1)
	if _, err := tp.DecryptRows([]*CiphertextM{ct}, out); err != nil {
		return nil, err
	}
	return &out[0], nil
}

// DecryptRows sets out[i] to Decrypt(cts[i]) for every ciphertext,
// evaluating them together in chunks of up to eight
// (bn256.(*PairingPrecomp).EvalRows). If a ciphertext's dimension does
// not match the token's, it returns that ciphertext's index and an
// error, and out is unspecified. It panics if len(out) != len(cts).
func (tp *TokenPrecomp) DecryptRows(cts []*CiphertextM, out []bn256.GT) (int, error) {
	rows := make([][]*bn256.G1, len(cts))
	for i, ct := range cts {
		if tp.n != len(ct.Elems) {
			return i, fmt.Errorf("ipe: token dimension %d does not match ciphertext dimension %d",
				tp.n, len(ct.Elems))
		}
		rows[i] = ct.Elems
	}
	tp.pc.EvalRows(rows, out)
	return 0, nil
}
