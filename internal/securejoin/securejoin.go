// Package securejoin implements the paper's primary contribution: the
// Secure Join scheme SJ = (SJ.Setup, SJ.Enc, SJ.TokenGen, SJ.Dec,
// SJ.Match) of Section 4.3.
//
// A client encrypts each row of its tables into an IPE ciphertext whose
// plaintext vector packs the hashed join value and the first t powers of
// every non-join attribute value (blinded by per-row randomness). At
// query time the client issues, per table, a token packing a fresh
// symmetric join key k and the coefficients of degree-t polynomials that
// vanish exactly on the IN-clause values. The server pairs tokens with
// ciphertexts; two rows join iff their decrypted values match, which by
// Theorem 5.2 happens (up to negligible probability) iff they were
// decrypted by the same query, carry equal join values and satisfy the
// selection criteria. Because k is fresh per query, results of different
// queries cannot be linked: a series of queries leaks only the
// transitive closure of the union of per-query leakages.
package securejoin

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bn256"
	"repro/internal/ipe"
	"repro/internal/poly"
	"repro/internal/zq"
)

// Params fixes the shape of encrypted rows: M non-join attributes per
// row and IN clauses of at most T values per attribute. Both tables of a
// join must be encrypted under the same Params (the paper assumes a
// common schema width m for notational simplicity; narrower rows are
// padded).
type Params struct {
	// M is the number of non-join attributes packed per row.
	M int
	// T is the maximum IN-clause size (the degree of the selection
	// polynomials).
	T int
}

// Dim returns the IPE vector dimension d = m(t+1) + 3: one slot for the
// hashed join value, t+1 power slots per attribute, one gamma randomness
// slot and one delta randomness slot.
func (p Params) Dim() int { return p.M*(p.T+1) + 3 }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M < 0 {
		return errors.New("securejoin: negative attribute count")
	}
	if p.T < 1 {
		return errors.New("securejoin: IN-clause bound must be at least 1")
	}
	return nil
}

// Scheme holds the client-side master secret key. It implements
// SJ.Setup (construction), SJ.Enc and SJ.TokenGen. The server-side
// operations SJ.Dec and SJ.Match are package functions operating only on
// public values.
type Scheme struct {
	params Params
	msk    *ipe.MasterKey
	rng    io.Reader
}

// Setup runs SJ.Setup: it samples the bilinear-group master secret
// (B, B*) for vectors of dimension m(t+1)+3. If rng is nil, crypto/rand
// is used for all subsequent randomness.
func Setup(params Params, rng io.Reader) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	msk, err := ipe.Setup(params.Dim(), rng)
	if err != nil {
		return nil, err
	}
	return &Scheme{params: params, msk: msk, rng: rng}, nil
}

// Params returns the scheme parameters.
func (s *Scheme) Params() Params { return s.params }

// Row is a plaintext row presented for encryption: the join-column value
// and the values of up to M non-join attributes. Values are arbitrary
// byte strings; they are embedded into Z_q with the scheme's hash.
type Row struct {
	JoinValue []byte
	Attrs     [][]byte
}

// RowCiphertext is the SJ.Enc output for one row: C = g1^(w B*).
type RowCiphertext struct {
	C *ipe.CiphertextM
}

// Encrypt runs SJ.Enc on one row: DrawRow, then EncryptBlock on a
// block of one.
func (s *Scheme) Encrypt(row Row) (*RowCiphertext, error) {
	dr, err := s.DrawRow(row)
	if err != nil {
		return nil, err
	}
	cts, err := s.EncryptBlock([]DrawnRow{dr})
	if err != nil {
		return nil, err
	}
	return cts[0], nil
}

// DrawnRow is a row with its SJ.Enc randomness, gamma1 and gamma2,
// drawn: DrawRow's output and EncryptBlock's input.
type DrawnRow struct {
	row            Row
	gamma1, gamma2 zq.Scalar
}

// DrawRow is SJ.Enc's rng step for one row: it checks the row against
// the scheme and reads gamma1 then gamma2 from the scheme's rng, as
// Encrypt does. Every rng read of a row happens here, so a table
// encryptor that calls DrawRow row by row on one goroutine reads a
// seeded rng in the serial order whatever runs EncryptBlock.
func (s *Scheme) DrawRow(row Row) (DrawnRow, error) {
	if len(row.Attrs) > s.params.M {
		return DrawnRow{}, fmt.Errorf("securejoin: row has %d attributes, scheme supports %d",
			len(row.Attrs), s.params.M)
	}
	gamma1, err := zq.Random(s.rng)
	if err != nil {
		return DrawnRow{}, err
	}
	gamma2, err := zq.RandomNonZero(s.rng)
	if err != nil {
		return DrawnRow{}, err
	}
	return DrawnRow{row: row, gamma1: gamma1, gamma2: gamma2}, nil
}

// BlockRows is the number of rows a table encryptor hands EncryptBlock
// at a time: as many as fill one bn256.BaseMultGroup of base
// multiplications, d per row, and at least one.
func (s *Scheme) BlockRows() int {
	return max(1, bn256.BaseMultGroup/s.params.Dim())
}

// EncryptBlock is SJ.Enc's compute step: it encrypts a block of drawn
// rows, ciphertext i for row i. Each row's plaintext vector is
//
//	w = ( H(a0), gamma2*a1^0..a1^t, ..., gamma2*am^0..am^t, gamma1, 0 )
//
// Missing attributes (len(Attrs) < M) are padded with the hash of an
// out-of-band padding tag so they can never satisfy a selection
// polynomial by accident. The block's base multiplications are one
// ipe.EncryptModifiedBatch call. It reads no rng and is safe for
// concurrent use.
func (s *Scheme) EncryptBlock(drs []DrawnRow) ([]*RowCiphertext, error) {
	ws := make([]zq.Vector, len(drs))
	for i, dr := range drs {
		ws[i] = s.plaintext(dr)
	}
	cts, err := s.msk.EncryptModifiedBatch(ws)
	if err != nil {
		return nil, err
	}
	out := make([]*RowCiphertext, len(cts))
	for i, ct := range cts {
		out[i] = &RowCiphertext{C: ct}
	}
	return out, nil
}

// plaintext returns the drawn row's plaintext vector w.
func (s *Scheme) plaintext(dr DrawnRow) zq.Vector {
	row := dr.row
	d := s.params.Dim()
	w := zq.NewVector(d)
	w[0] = zq.Hash(row.JoinValue)
	for i := 0; i < s.params.M; i++ {
		var embedded zq.Scalar
		if i < len(row.Attrs) {
			embedded = zq.Hash(row.Attrs[i])
		} else {
			embedded = zq.Hash([]byte(fmt.Sprintf("securejoin/pad/%d", i)))
		}
		powers := poly.PowersOf(embedded, s.params.T)
		base := 1 + i*(s.params.T+1)
		for j, pw := range powers {
			w[base+j] = dr.gamma2.Mul(pw)
		}
	}
	w[d-2] = dr.gamma1
	// w[d-1] stays 0.
	return w
}

// Selection is the per-table filtering predicate of a join query: for
// each attribute index, the admissible IN-clause values. Attributes
// without an entry are unrestricted (encoded as the zero polynomial).
type Selection map[int][][]byte

// Validate checks the selection against the scheme parameters.
func (sel Selection) validate(p Params) error {
	for attr, values := range sel {
		if attr < 0 || attr >= p.M {
			return fmt.Errorf("securejoin: selection on attribute %d, scheme has %d attributes", attr, p.M)
		}
		if len(values) == 0 {
			return fmt.Errorf("securejoin: empty IN clause for attribute %d", attr)
		}
		if len(values) > p.T {
			return fmt.Errorf("securejoin: IN clause of size %d exceeds bound t=%d", len(values), p.T)
		}
	}
	return nil
}

// Token is the SJ.TokenGen output for one table: Tk = g2^(v B).
type Token struct {
	Tk *ipe.Token
}

// Query is the client-side description of one equi-join query: a fresh
// join key k and one token per table, both built with the same k so that
// matching rows of the two tables decrypt to the same D value.
type Query struct {
	TokenA *Token
	TokenB *Token
}

// NewQuery runs SJ.TokenGen for both tables of a join with a fresh
// symmetric query key k drawn from Z_q \ {0}. selA filters table A,
// selB filters table B. It reads the scheme's rng exactly as k followed
// by TokenGen(k, selA) and TokenGen(k, selB) would, all on the calling
// goroutine; only the two keygens, Dim G2 base mults each, run at once.
func (s *Scheme) NewQuery(selA, selB Selection) (*Query, error) {
	k, err := zq.RandomNonZero(s.rng)
	if err != nil {
		return nil, err
	}
	va, err := s.tokenVector(k, selA)
	if err != nil {
		return nil, err
	}
	vb, err := s.tokenVector(k, selB)
	if err != nil {
		return nil, err
	}
	var tb *ipe.Token
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tb, errB = s.msk.KeyGenModified(vb)
	}()
	ta, err := s.msk.KeyGenModified(va)
	<-done
	if err != nil {
		return nil, err
	}
	if errB != nil {
		return nil, errB
	}
	return &Query{TokenA: &Token{Tk: ta}, TokenB: &Token{Tk: tb}}, nil
}

// TokenGen runs SJ.TokenGen for one table: it builds the token vector
// and raises g2 to it. Exposed for callers that need token-level
// control (e.g. issuing the two table tokens of one query with an
// explicit shared k); most callers should use NewQuery.
func (s *Scheme) TokenGen(k zq.Scalar, sel Selection) (*Token, error) {
	v, err := s.tokenVector(k, sel)
	if err != nil {
		return nil, err
	}
	tk, err := s.msk.KeyGenModified(v)
	if err != nil {
		return nil, err
	}
	return &Token{Tk: tk}, nil
}

// tokenVector builds one table's token vector
//
//	v = ( k, P1 coeffs, ..., Pm coeffs, 0, delta )
//
// where P_i vanishes on the IN-clause values of attribute i (hashed into
// Z_q with the same embedding used at encryption time) and is the zero
// polynomial for unrestricted attributes. Every rng read of a token
// happens here.
func (s *Scheme) tokenVector(k zq.Scalar, sel Selection) (zq.Vector, error) {
	if k.IsZero() {
		return nil, errors.New("securejoin: query key k must be non-zero")
	}
	if err := sel.validate(s.params); err != nil {
		return nil, err
	}

	d := s.params.Dim()
	v := zq.NewVector(d)
	v[0] = k
	for i := 0; i < s.params.M; i++ {
		var pi poly.Polynomial
		if values, ok := sel[i]; ok {
			roots := make([]zq.Scalar, len(values))
			for j, val := range values {
				roots[j] = zq.Hash(val)
			}
			var err error
			pi, err = poly.FromRoots(roots, s.params.T, s.rng)
			if err != nil {
				return nil, err
			}
		} else {
			pi = poly.Zero(s.params.T)
		}
		coeffs := pi.Coeffs(s.params.T + 1)
		base := 1 + i*(s.params.T+1)
		copy(v[base:base+s.params.T+1], coeffs)
	}
	// v[d-2] stays 0.
	delta, err := zq.Random(s.rng)
	if err != nil {
		return nil, err
	}
	v[d-1] = delta
	return v, nil
}

// DValue is the opaque decryption result of SJ.Dec for one row: a
// canonical encoding of the GT element
// e(g2,g1)^(det(B)(k H(a0) + sum_i P_i(a_i))). Equal DValues (as byte
// strings) correspond to equal GT elements, so they can key a hash join.
type DValue []byte

// Decrypt runs SJ.Dec on one row: D = e(Tk, C), computed with a single
// batched multi-pairing over the d vector slots.
func Decrypt(tk *Token, ct *RowCiphertext) (DValue, error) {
	gt, err := ipe.DecryptModified(tk.Tk, ct.C)
	if err != nil {
		return nil, err
	}
	return DValue(gt.Marshal()), nil
}

// TokenPrecomp is a token whose Miller program has been recorded once.
// A query token is paired against every row of a table, so the
// twist-point chain and the line normalization of the Miller loop —
// which depend only on the token — are paid once here instead of once
// per row. The handle is immutable and safe for concurrent use.
type TokenPrecomp struct {
	tp *ipe.TokenPrecomp
}

// Precompute records the token's fixed-argument pairing program. The
// cost is comparable to decrypting a single row. A nil token, which an
// empty table may have, records nothing.
func (t *Token) Precompute() *TokenPrecomp {
	if t == nil {
		return nil
	}
	return &TokenPrecomp{tp: ipe.PrecomputeToken(t.Tk)}
}

// Decrypt runs SJ.Dec on one row through the precomputed token,
// producing byte-identical DValues to the naive Decrypt.
func (pc *TokenPrecomp) Decrypt(ct *RowCiphertext) (DValue, error) {
	out := make([]DValue, 1)
	if _, err := pc.decryptRows([]*RowCiphertext{ct}, out); err != nil {
		return nil, err
	}
	return out[0], nil
}

// decryptRows runs SJ.Dec on a chunk of rows through the precomputed
// token, evaluated together (ipe.(*TokenPrecomp).DecryptRows), and
// writes row i's DValue to out[i]. On failure it returns the index of
// the first row that failed, with its error.
func (pc *TokenPrecomp) decryptRows(cts []*RowCiphertext, out []DValue) (int, error) {
	cs := make([]*ipe.CiphertextM, len(cts))
	for i, ct := range cts {
		cs[i] = ct.C
	}
	gts := make([]bn256.GT, len(cts))
	if i, err := pc.tp.DecryptRows(cs, gts); err != nil {
		return i, err
	}
	for i := range gts {
		out[i] = DValue(gts[i].Marshal())
	}
	return 0, nil
}

// decryptRowError wraps a per-row decryption failure with its row
// index.
func decryptRowError(row int, err error) error {
	return fmt.Errorf("securejoin: decrypting row %d: %w", row, err)
}

// MatchPair is one joined row pair: indexes into the two decrypted
// tables.
type MatchPair struct {
	RowA, RowB int
}

// HashJoin performs the O(nA + nB + |result|) hash join over decrypted
// values that the scheme's design enables (Section 6.5 contrasts this
// with the O(n^2) nested-loop join that Hahn et al. require): table A's
// D values are bucketed by value, then table B's rows probe the buckets.
func HashJoin(das, dbs []DValue) []MatchPair {
	buckets := make(map[string][]int, len(das))
	for i, d := range das {
		buckets[string(d)] = append(buckets[string(d)], i)
	}
	var out []MatchPair
	for j, d := range dbs {
		for _, i := range buckets[string(d)] {
			out = append(out, MatchPair{RowA: i, RowB: j})
		}
	}
	return out
}
