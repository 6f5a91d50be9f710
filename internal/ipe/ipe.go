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
// slot appended by the Secure Join token builder). The entries of v B
// reach the comb as bytes (bn256.BaseMultG2s), never as a big.Int, and
// the elements come back affine, normalised with one batched
// inversion, so encoding and precomputing them pays no inversion per
// element.
func (msk *MasterKey) KeyGenModified(v zq.Vector) (*Token, error) {
	if len(v) != msk.N {
		return nil, fmt.Errorf("ipe: token vector has length %d, want %d", len(v), msk.N)
	}
	ks := appendScalarBytes(make([][32]byte, 0, msk.N), msk.B.MulVec(v))
	elems := make([]bn256.G2, len(ks))
	tk := &Token{Elems: make([]*bn256.G2, len(ks))}
	for i := range elems {
		tk.Elems[i] = &elems[i]
	}
	bn256.BaseMultG2s(tk.Elems, ks)
	return tk, nil
}

// EncryptModified computes C = g1^(w B*) with beta = 1; the gamma slots
// inside w carry the randomness. It is EncryptModifiedBatch on a batch
// of one.
func (msk *MasterKey) EncryptModified(w zq.Vector) (*CiphertextM, error) {
	cts, err := msk.EncryptModifiedBatch([]zq.Vector{w})
	if err != nil {
		return nil, err
	}
	return cts[0], nil
}

// EncryptModifiedBatch computes C = g1^(w B*) for every w in ws. The
// base multiplications of all of them are one bn256.BaseMultG1s call,
// which fills the comb's lanes across vectors where the CPU has them
// and makes up to bn256.BaseMultGroup elements affine with one
// inversion, so encoding the elements pays no inversion per element.
func (msk *MasterKey) EncryptModifiedBatch(ws []zq.Vector) ([]*CiphertextM, error) {
	ks := make([][32]byte, 0, len(ws)*msk.N)
	for i, w := range ws {
		if len(w) != msk.N {
			return nil, fmt.Errorf("ipe: plaintext vector %d has length %d, want %d", i, len(w), msk.N)
		}
		ks = appendScalarBytes(ks, msk.BStar.MulVec(w))
	}
	elems := make([]bn256.G1, len(ks))
	ptrs := make([]*bn256.G1, len(ks))
	for i := range elems {
		ptrs[i] = &elems[i]
	}
	bn256.BaseMultG1s(ptrs, ks)
	cts := make([]*CiphertextM, len(ws))
	for i := range cts {
		lo, hi := i*msk.N, (i+1)*msk.N
		cts[i] = &CiphertextM{Elems: ptrs[lo:hi:hi]}
	}
	return cts, nil
}

// appendScalarBytes appends the big-endian encodings of v's entries to
// ks: the exponents the bn256 batch base mults take.
func appendScalarBytes(ks [][32]byte, v zq.Vector) [][32]byte {
	for _, c := range v {
		ks = append(ks, [32]byte{})
		c.Put(&ks[len(ks)-1])
	}
	return ks
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
