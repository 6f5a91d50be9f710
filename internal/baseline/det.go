// Package baseline implements two of the comparison join-encryption
// schemes the paper analyses in Sections 2.1 and 6.5:
//
//   - DET: the deterministic-encryption join of Hacigumus et al.
//     (SIGMOD'02), where equal join values encrypt to equal tags and the
//     server can join by tag equality at any time.
//   - Hahn: a functional simulation of Hahn et al. (ICDE'19), where the
//     probabilistic wrapping is per-row and removable only for rows that
//     match a query's selection criterion, joined with a nested loop.
//
// These are leakage and performance baselines; they are deliberately
// faithful to each scheme's *observable behaviour* (what becomes
// comparable when) rather than to the exact primitives of each paper.
package baseline

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
)

// DetScheme is the deterministic-encryption join baseline. A keyed HMAC
// plays the role of the deterministic cipher: equal plaintext join
// values yield equal tags under the same key.
type DetScheme struct {
	key []byte
}

// NewDetScheme samples a fresh deterministic-encryption key.
func NewDetScheme(rng io.Reader) (*DetScheme, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key := make([]byte, 32)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("baseline: sampling DET key: %w", err)
	}
	return &DetScheme{key: key}, nil
}

// DetTag is a deterministic join tag.
type DetTag []byte

// Encrypt produces the deterministic tag of a join value.
func (s *DetScheme) Encrypt(joinValue []byte) DetTag {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(joinValue)
	return mac.Sum(nil)
}

// EncryptColumn tags a whole join column.
func (s *DetScheme) EncryptColumn(values [][]byte) []DetTag {
	out := make([]DetTag, len(values))
	for i, v := range values {
		out[i] = s.Encrypt(v)
	}
	return out
}

// JoinPair is one (rowA, rowB) match.
type JoinPair struct {
	RowA, RowB int
}

// Join performs the server-side equi-join over deterministic tags with a
// hash join. The server needs no token: tags are comparable from upload
// time, which is exactly the scheme's weakness.
func Join(tagsA, tagsB []DetTag) []JoinPair {
	buckets := make(map[string][]int, len(tagsA))
	for i, t := range tagsA {
		buckets[string(t)] = append(buckets[string(t)], i)
	}
	var out []JoinPair
	for j, t := range tagsB {
		for _, i := range buckets[string(t)] {
			out = append(out, JoinPair{RowA: i, RowB: j})
		}
	}
	return out
}

// EqualPairsWithin returns the intra-column equality pairs visible to
// the server.
func EqualPairsWithin(tags []DetTag) [][2]int {
	buckets := make(map[string][]int, len(tags))
	for i, t := range tags {
		buckets[string(t)] = append(buckets[string(t)], i)
	}
	var out [][2]int
	for _, rows := range buckets {
		for x := 0; x < len(rows); x++ {
			for y := x + 1; y < len(rows); y++ {
				out = append(out, [2]int{rows[x], rows[y]})
			}
		}
	}
	return out
}
