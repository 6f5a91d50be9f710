package engine

import (
	"fmt"
	"slices"

	"repro/internal/securejoin"
	"repro/internal/sse"
)

// This file adds the optional SSE pre-filter of Section 4.3 ("There
// exist many (searchable) encryption schemes which can be used for
// pre-filtering the rows with the attributes matching the selection
// criteria reducing the size of the tables, but they are orthogonal to
// our join encryption scheme"). When a table is uploaded with an index,
// the server can resolve the selection predicates via SSE first and run
// the expensive SJ.Dec pairings only over the candidate rows — turning
// per-query work from O(n) pairings into O(selectivity * n).
//
// The pre-filter trades a little leakage for that speedup: the server
// additionally learns which rows match each *individual* attribute
// predicate (standard SSE access-pattern leakage), not only the
// equality pairs among fully-matching rows. Clients wanting the exact
// leakage of Theorem 5.2 leave JoinSpec.Prefilter nil.

// PrefilterQuery carries, for each table, the SSE tokens of the query's
// selection predicates: one token list per restricted attribute
// (tokens of one attribute are OR'ed, attributes are AND'ed), matching
// the WHERE ... IN (...) AND ... semantics.
type PrefilterQuery struct {
	Join    *securejoin.Query
	TokensA map[int][]sse.SearchToken
	TokensB map[int][]sse.SearchToken
}

// EncryptTableIndexed encrypts a table and builds its SSE pre-filter
// index over the same attribute values used by the Secure Join
// selection polynomials.
func (c *Client) EncryptTableIndexed(name string, rows []PlainRow) (*EncryptedTable, error) {
	table, err := c.EncryptTable(name, rows)
	if err != nil {
		return nil, err
	}
	attrRows := make([][][]byte, len(rows))
	for i, r := range rows {
		attrRows[i] = r.Attrs
	}
	idx, err := c.sse.BuildIndex(attrRows)
	if err != nil {
		return nil, fmt.Errorf("engine: building SSE index for %s: %w", name, err)
	}
	table.Index = idx
	return table, nil
}

// NewPrefilterQuery issues the join tokens plus the SSE search tokens
// for both selections.
func (c *Client) NewPrefilterQuery(selA, selB securejoin.Selection) (*PrefilterQuery, error) {
	q, err := c.NewQuery(selA, selB)
	if err != nil {
		return nil, err
	}
	return &PrefilterQuery{
		Join:    q,
		TokensA: c.sseTokens(selA),
		TokensB: c.sseTokens(selB),
	}, nil
}

func (c *Client) sseTokens(sel securejoin.Selection) map[int][]sse.SearchToken {
	out := make(map[int][]sse.SearchToken, len(sel))
	for attr, values := range sel {
		toks := make([]sse.SearchToken, len(values))
		for i, v := range values {
			toks[i] = c.sse.Tokenize(attr, v)
		}
		out[attr] = toks
	}
	return out
}

// candidates resolves a table's pre-filter: the intersection over
// restricted attributes of the union over each attribute's values.
// With no index or no restrictions it returns the nil sentinel meaning
// "every row" — full scans never materialize an all-rows index slice.
func candidates(t *EncryptedTable, tokens map[int][]sse.SearchToken) ([]int, error) {
	if t.Index == nil || len(tokens) == 0 {
		return nil, nil
	}
	var cand []int
	first := true
	for _, toks := range tokens {
		rows, err := t.Index.SearchUnion(toks)
		if err != nil {
			return nil, err
		}
		if !first {
			rows = sse.IntersectSorted(cand, rows)
		}
		cand, first = rows, false
	}
	if cand == nil {
		// IntersectSorted returns nil for an empty intersection; keep
		// the no-rows result distinct from the nil "every row" sentinel.
		cand = []int{}
	}
	return cand, nil
}

// mergeCandidates intersects the pre-filter's candidate rows with an
// explicit candidate list from a JoinSpec (the semi-join reduction).
// An empty explicit list means "no explicit restriction" — the wire
// codec encodes a list as its count and parses an empty one back as
// nil, so absent and empty are indistinguishable, and a multi-join
// executor never ships an empty list anyway (an empty intermediate
// short-circuits the whole plan).
// The list comes from the peer, so it is cleaned before use: a copy,
// out-of-range ids dropped rather than crashing the decrypt pipeline on
// a confused (or malicious) client, sorted and deduplicated.
func mergeCandidates(cand, explicit []int, tableRows int) []int {
	if len(explicit) == 0 {
		return cand
	}
	ex := slices.DeleteFunc(slices.Clone(explicit), func(id int) bool { return id < 0 || id >= tableRows })
	slices.Sort(ex)
	ex = slices.Compact(ex)
	if cand == nil {
		return ex
	}
	out := sse.IntersectSorted(cand, ex)
	if out == nil {
		out = []int{} // keep "no rows" distinct from the "every row" sentinel
	}
	return out
}

// candRow maps an index into a candidate list back to the original row
// number; the nil sentinel means the identity mapping (full scan).
func candRow(cand []int, i int) int {
	if cand == nil {
		return i
	}
	return cand[i]
}

// candCount is the number of candidate rows (nil sentinel = the whole
// table).
func candCount(cand []int, tableRows int) int {
	if cand == nil {
		return tableRows
	}
	return len(cand)
}
