// Package baseline implements the comparison join-encryption scheme
// the paper measures against in Section 6.5: a functional simulation of
// Hahn et al. (ICDE'19), where each row's deterministic join tag is
// wrapped per row, removable only for rows that match a query's
// selection criterion, and joined with a nested loop.
//
// It is a leakage and performance baseline, deliberately faithful to
// the scheme's *observable behaviour* (what becomes comparable when)
// rather than to its exact primitives. The deterministic-encryption
// join of Hacigumus et al. (SIGMOD'02), the paper's other Section 2.1
// comparison, is simulated at the level of revealed pairs in
// internal/leakage.
package baseline

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// JoinPair is one (rowA, rowB) match.
type JoinPair struct {
	RowA, RowB int
}

// HahnScheme is a functional simulation of the join scheme of Hahn, Loza
// and Kerschbaum (ICDE'19). In the original, each row's deterministic
// join tag is wrapped in key-policy attribute-based encryption so that
// only rows whose attributes satisfy a query's selection policy can be
// unwrapped, and joins run as nested loops over unwrapped tags
// (primary-key/foreign-key joins only).
//
// We simulate the KP-ABE wrapping with per-attribute-value AES-GCM keys:
// a row's tag is wrapped under a key derived from each of its attribute
// values, and a query token carries the derived keys for the values in
// its selection predicate. This reproduces the two properties the paper
// evaluates against — (i) only selection-matching rows unwrap, and
// (ii) unwrapped tags persist, so a series of queries reveals equality
// pairs across queries (super-additive leakage) — without implementing
// GPSW attribute-based encryption itself. It also reproduces the O(n^2)
// nested-loop join cost, since unwrap attempts are per row-token pair.
type HahnScheme struct {
	tagKey []byte // HMAC key of the deterministic join tags
	master []byte // derives the per-attribute-value wrap keys
}

// NewHahnScheme samples the scheme keys.
func NewHahnScheme(rng io.Reader) (*HahnScheme, error) {
	if rng == nil {
		rng = rand.Reader
	}
	tagKey := make([]byte, 32)
	if _, err := io.ReadFull(rng, tagKey); err != nil {
		return nil, fmt.Errorf("baseline: sampling Hahn tag key: %w", err)
	}
	master := make([]byte, 32)
	if _, err := io.ReadFull(rng, master); err != nil {
		return nil, fmt.Errorf("baseline: sampling Hahn master key: %w", err)
	}
	return &HahnScheme{tagKey: tagKey, master: master}, nil
}

// HahnRow is one encrypted row as stored on the server: the join tag
// wrapped under the key derived from the row's selection attribute.
type HahnRow struct {
	Wrapped []byte
}

// HahnToken authorizes unwrapping rows whose selection attribute takes
// one of the token's values.
type HahnToken struct {
	Keys [][]byte
}

// attrKey derives the wrap key for one attribute value.
func (s *HahnScheme) attrKey(attrValue []byte) []byte {
	mac := hmac.New(sha256.New, s.master)
	mac.Write(attrValue)
	return mac.Sum(nil)
}

// tag is the deterministic join tag: equal join values yield equal
// tags, which is what a nested loop over unwrapped rows compares.
func (s *HahnScheme) tag(joinValue []byte) []byte {
	mac := hmac.New(sha256.New, s.tagKey)
	mac.Write(joinValue)
	return mac.Sum(nil)
}

// EncryptRow wraps the row's deterministic join tag under its selection
// attribute value.
func (s *HahnScheme) EncryptRow(joinValue, attrValue []byte) (HahnRow, error) {
	ct, err := sealGCM(s.attrKey(attrValue), s.tag(joinValue))
	if err != nil {
		return HahnRow{}, err
	}
	return HahnRow{Wrapped: ct}, nil
}

// EncryptTable encrypts parallel slices of join and attribute values.
func (s *HahnScheme) EncryptTable(joinValues, attrValues [][]byte) ([]HahnRow, error) {
	if len(joinValues) != len(attrValues) {
		return nil, fmt.Errorf("baseline: %d join values but %d attribute values", len(joinValues), len(attrValues))
	}
	out := make([]HahnRow, len(joinValues))
	for i := range joinValues {
		r, err := s.EncryptRow(joinValues[i], attrValues[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Token issues the unwrap keys for a selection predicate (a set of
// admissible attribute values).
func (s *HahnScheme) Token(attrValues [][]byte) HahnToken {
	keys := make([][]byte, len(attrValues))
	for i, v := range attrValues {
		keys[i] = s.attrKey(v)
	}
	return HahnToken{Keys: keys}
}

// ServerState is the Hahn server's persistent view: wrapped rows plus
// the tags unwrapped by queries so far. Unwrap state persisting across
// queries is precisely what produces super-additive leakage.
type ServerState struct {
	Rows      []HahnRow
	Unwrapped map[int][]byte
}

// NewServerState initializes server state for an uploaded table.
func NewServerState(rows []HahnRow) *ServerState {
	return &ServerState{Rows: rows, Unwrapped: make(map[int][]byte)}
}

// Unwrap tries every token key against every still-wrapped row, caching
// successes. It returns the indexes newly unwrapped by this query.
func (st *ServerState) Unwrap(tok HahnToken) []int {
	var newly []int
	for i, row := range st.Rows {
		if _, done := st.Unwrapped[i]; done {
			continue
		}
		for _, key := range tok.Keys {
			pt, err := openGCM(key, row.Wrapped)
			if err != nil {
				continue
			}
			st.Unwrapped[i] = pt
			newly = append(newly, i)
			break
		}
	}
	return newly
}

// NestedLoopJoin joins two server states over all currently unwrapped
// rows with the O(n^2) pairwise comparison the original scheme requires.
func NestedLoopJoin(a, b *ServerState) []JoinPair {
	var out []JoinPair
	for i, ta := range a.Unwrapped {
		for j, tb := range b.Unwrapped {
			if hmac.Equal(ta, tb) {
				out = append(out, JoinPair{RowA: i, RowB: j})
			}
		}
	}
	return out
}

// sealGCM encrypts pt under key with a random nonce; the nonce is
// prepended to the ciphertext.
func sealGCM(key, pt []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(nonce, nonce, pt, nil), nil
}

// openGCM reverses sealGCM.
func openGCM(key, ct []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(ct) < gcm.NonceSize() {
		return nil, errors.New("baseline: ciphertext shorter than nonce")
	}
	nonce, body := ct[:gcm.NonceSize()], ct[gcm.NonceSize():]
	return gcm.Open(nil, nonce, body, nil)
}
