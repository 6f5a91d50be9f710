// Package sse implements a simple searchable symmetric encryption index
// in the style of Curtmola et al. (CCS'06) — the paper's reference [10].
// Section 4.3 notes that such schemes "can be used for pre-filtering the
// rows with the attributes matching the selection criteria reducing the
// size of the tables, but they are orthogonal to our join encryption
// scheme"; this package makes that optimization available to the engine.
//
// The index maps a keyed PRF token of (attribute, value) to an
// AES-GCM-encrypted posting list of row indexes, sealed under a key
// derived from the same (attribute, value) pair. The server learns
// nothing from the index at rest; revealing a search token discloses
// exactly the set of rows whose attribute carries the searched value —
// the standard SSE access-pattern leakage, which for Secure Join is a
// strict subset of what the query's SJ.Dec results reveal anyway
// (matching rows become visible through D-value equality).
//
// Trade-off: pre-filtering reveals the selection-matching row sets
// *per attribute value* rather than per conjunctive query, so clients
// seeking the paper's exact leakage profile should skip the pre-filter;
// clients prioritizing latency use it to cut SJ.Dec work from n rows to
// the selectivity fraction. `go run ./examples/prefilter` times one
// join with and without the pre-filter; the benchmark's traced
// series_selective run reports the rows it keeps as sse.candidates_share.
package sse

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Index is the server-side searchable index of one table.
type Index struct {
	// postings maps PRF token (hex-free binary string) to the sealed
	// posting list.
	postings map[string][]byte
}

// Client holds the index key material (client side only).
type Client struct {
	tokenKey   []byte
	postingKey []byte
}

// NewClient samples fresh index keys.
func NewClient(rng io.Reader) (*Client, error) {
	if rng == nil {
		rng = rand.Reader
	}
	tk := make([]byte, 32)
	pk := make([]byte, 32)
	if _, err := io.ReadFull(rng, tk); err != nil {
		return nil, fmt.Errorf("sse: sampling token key: %w", err)
	}
	if _, err := io.ReadFull(rng, pk); err != nil {
		return nil, fmt.Errorf("sse: sampling posting key: %w", err)
	}
	return &Client{tokenKey: tk, postingKey: pk}, nil
}

// token derives the PRF token identifying (attr, value) in the index.
func (c *Client) token(attr int, value []byte) []byte {
	mac := hmac.New(sha256.New, c.tokenKey)
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(attr))
	mac.Write(idx[:])
	mac.Write(value)
	return mac.Sum(nil)
}

// sealKey derives the AES key protecting the posting list of a token.
func (c *Client) sealKey(token []byte) []byte {
	mac := hmac.New(sha256.New, c.postingKey)
	mac.Write(token)
	return mac.Sum(nil)
}

// BuildIndex indexes a table: rows[i] lists the attribute values of row
// i (attribute index -> value).
func (c *Client) BuildIndex(rows [][][]byte) (*Index, error) {
	groups := make(map[string][]uint32)
	tokens := make(map[string][]byte)
	for rowID, attrs := range rows {
		for attr, value := range attrs {
			tok := c.token(attr, value)
			groups[string(tok)] = append(groups[string(tok)], uint32(rowID))
			tokens[string(tok)] = tok
		}
	}
	idx := &Index{postings: make(map[string][]byte, len(groups))}
	for key, rowIDs := range groups {
		pt := make([]byte, 4*len(rowIDs))
		for i, id := range rowIDs {
			binary.BigEndian.PutUint32(pt[i*4:], id)
		}
		sealed, err := sealGCM(c.sealKey(tokens[key]), pt)
		if err != nil {
			return nil, err
		}
		idx.postings[key] = sealed
	}
	return idx, nil
}

// SearchToken authorizes the server to locate the rows whose attribute
// attr equals value.
type SearchToken struct {
	Token []byte
	Key   []byte
}

// Tokenize issues a search token for one (attribute, value) pair.
func (c *Client) Tokenize(attr int, value []byte) SearchToken {
	tok := c.token(attr, value)
	return SearchToken{Token: tok, Key: c.sealKey(tok)}
}

// Search resolves a token against the index, returning the matching row
// indexes (empty when the value is absent).
func (idx *Index) Search(st SearchToken) ([]int, error) {
	sealed, ok := idx.postings[string(st.Token)]
	if !ok {
		return nil, nil
	}
	pt, err := openGCM(st.Key, sealed)
	if err != nil {
		return nil, fmt.Errorf("sse: opening posting list: %w", err)
	}
	if len(pt)%4 != 0 {
		return nil, fmt.Errorf("sse: corrupt posting list")
	}
	out := make([]int, len(pt)/4)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(pt[i*4:]))
	}
	return out, nil
}

// SearchUnion resolves several tokens (an IN clause) and returns the
// union of the matching rows, sorted ascending without duplicates
// (non-nil when empty). IntersectSorted relies on that order.
func (idx *Index) SearchUnion(sts []SearchToken) ([]int, error) {
	out := []int{}
	for _, st := range sts {
		rows, err := idx.Search(st)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// IntersectSorted intersects two ascending row-id lists — used to
// combine pre-filters on different attributes (conjunction).
func IntersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

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
		return nil, fmt.Errorf("sse: ciphertext shorter than nonce")
	}
	nonce, body := ct[:gcm.NonceSize()], ct[gcm.NonceSize():]
	return gcm.Open(nil, nonce, body, nil)
}
