package sse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/layout"
)

// Wire encodings for the SSE pre-filter: the Index (uploaded alongside
// a table) and per-attribute search-token lists (carried by prefiltered
// join requests). Both are counted sequences of byte strings, each
// count and length a big-endian uint32, sorted so the encodings are
// deterministic. Both arrive from a peer, so the decoders read them
// through layout.Reader, which bounds every count by the bytes left
// before anything is allocated, and accept only the sorted,
// duplicate-free encoding the encoders write.

// minIndexEntryBytes, minTokenAttrBytes and minTokenBytes are the
// smallest encodings of an index entry (two empty byte strings), of a
// token map attribute (its number and an empty token count) and of a
// search token (two empty byte strings).
const (
	minIndexEntryBytes = 8
	minTokenAttrBytes  = 8
	minTokenBytes      = 8
)

// ErrBadEncoding is wrapped by every error Index.UnmarshalBinary and
// UnmarshalTokenMap return: the bytes are not a well-formed encoding.
var ErrBadEncoding = errors.New("sse: malformed encoding")

// MarshalBinary encodes the index.
func (idx *Index) MarshalBinary() ([]byte, error) {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(idx.postings)))
	for _, k := range slices.Sorted(maps.Keys(idx.postings)) {
		out = layout.AppendBytes32(layout.AppendBytes32(out, k), idx.postings[k])
	}
	return out, nil
}

// UnmarshalBinary decodes an index produced by MarshalBinary.
func (idx *Index) UnmarshalBinary(data []byte) error {
	r := layout.NewReader(data, ErrBadEncoding)
	n := r.Count32("index entries", minIndexEntryBytes)
	postings := make(map[string][]byte, n)
	var prev []byte
	for i := range n {
		k, v := r.Bytes32(), r.Bytes32()
		if i > 0 && bytes.Compare(k, prev) <= 0 {
			r.Fail("index keys out of order or repeated at entry %d", i)
		}
		prev = k
		postings[string(k)] = bytes.Clone(v)
	}
	if err := r.Done(); err != nil {
		return err
	}
	idx.postings = postings
	return nil
}

// MarshalTokenMap encodes one table's prefilter tokens — for each
// restricted attribute, the search tokens of its IN-clause values —
// for transport inside a join request. Attributes are sorted so the
// encoding is deterministic.
func MarshalTokenMap(tokens map[int][]SearchToken) ([]byte, error) {
	attrs := slices.Sorted(maps.Keys(tokens))
	if len(attrs) > 0 && attrs[0] < 0 {
		return nil, fmt.Errorf("sse: negative attribute %d in token map", attrs[0])
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(attrs)))
	for _, a := range attrs {
		out = binary.BigEndian.AppendUint32(out, uint32(a))
		out = binary.BigEndian.AppendUint32(out, uint32(len(tokens[a])))
		for _, st := range tokens[a] {
			out = layout.AppendBytes32(layout.AppendBytes32(out, st.Token), st.Key)
		}
	}
	return out, nil
}

// UnmarshalTokenMap decodes MarshalTokenMap output. The tokens are
// copies: none aliases data.
func UnmarshalTokenMap(data []byte) (map[int][]SearchToken, error) {
	r := layout.NewReader(data, ErrBadEncoding)
	n := r.Count32("token map attributes", minTokenAttrBytes)
	out := make(map[int][]SearchToken, n)
	prev := int64(-1)
	for range n {
		attr := int64(r.Uint32())
		toks := make([]SearchToken, r.Count32("search tokens", minTokenBytes))
		if attr <= prev {
			r.Fail("token map attribute %d out of order or repeated", attr)
		}
		prev = attr
		for j := range toks {
			toks[j] = SearchToken{Token: bytes.Clone(r.Bytes32()), Key: bytes.Clone(r.Bytes32())}
		}
		out[int(attr)] = toks
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
