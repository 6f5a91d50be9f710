package sse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Wire encodings for the SSE pre-filter: the Index (uploaded alongside
// a table) and per-attribute search-token lists (carried by prefiltered
// join requests). Both are counted sequences of length-prefixed byte
// strings, sorted so the encodings are deterministic. Both arrive from
// a peer, so the decoders bound every count by the bytes left before
// allocating and accept only the sorted, duplicate-free encoding the
// encoders write.

// minIndexEntryBytes and minTokenAttrBytes are the smallest encodings
// of an index entry (two empty length-prefixed strings) and of a token
// map attribute (its number and an empty token count).
const (
	minIndexEntryBytes = 8
	minTokenAttrBytes  = 8
)

// MarshalBinary encodes the index.
func (idx *Index) MarshalBinary() ([]byte, error) {
	keys := make([]string, 0, len(idx.postings))
	for k := range idx.postings {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []byte
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(keys)))
	out = append(out, n[:]...)
	for _, k := range keys {
		v := idx.postings[k]
		binary.BigEndian.PutUint32(n[:], uint32(len(k)))
		out = append(out, n[:]...)
		out = append(out, k...)
		binary.BigEndian.PutUint32(n[:], uint32(len(v)))
		out = append(out, n[:]...)
		out = append(out, v...)
	}
	return out, nil
}

// ErrBadEncoding is wrapped by every error Index.UnmarshalBinary and
// UnmarshalTokenMap return: the bytes are not a well-formed encoding.
var ErrBadEncoding = errors.New("sse: malformed encoding")

// UnmarshalBinary decodes an index produced by MarshalBinary.
func (idx *Index) UnmarshalBinary(data []byte) error {
	readUint := func() (uint32, error) {
		if len(data) < 4 {
			return 0, fmt.Errorf("%w: truncated index encoding", ErrBadEncoding)
		}
		v := binary.BigEndian.Uint32(data)
		data = data[4:]
		return v, nil
	}
	readBytes := func(n uint32) ([]byte, error) {
		if uint32(len(data)) < n {
			return nil, fmt.Errorf("%w: truncated index encoding", ErrBadEncoding)
		}
		b := data[:n]
		data = data[n:]
		return b, nil
	}

	count, err := readUint()
	if err != nil {
		return err
	}
	if count > uint32(len(data)/minIndexEntryBytes) {
		return fmt.Errorf("%w: %d index entries cannot fit in %d bytes", ErrBadEncoding, count, len(data))
	}
	postings := make(map[string][]byte, count)
	var prev []byte
	for i := uint32(0); i < count; i++ {
		klen, err := readUint()
		if err != nil {
			return err
		}
		k, err := readBytes(klen)
		if err != nil {
			return err
		}
		vlen, err := readUint()
		if err != nil {
			return err
		}
		v, err := readBytes(vlen)
		if err != nil {
			return err
		}
		if i > 0 && bytes.Compare(k, prev) <= 0 {
			return fmt.Errorf("%w: index keys out of order or repeated at entry %d", ErrBadEncoding, i)
		}
		prev = k
		postings[string(k)] = append([]byte(nil), v...)
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in index encoding", ErrBadEncoding, len(data))
	}
	idx.postings = postings
	return nil
}

// MarshalTokenMap encodes one table's prefilter tokens — for each
// restricted attribute, the search tokens of its IN-clause values —
// for transport inside a join request. Attributes are sorted so the
// encoding is deterministic.
func MarshalTokenMap(tokens map[int][]SearchToken) ([]byte, error) {
	attrs := make([]int, 0, len(tokens))
	for a := range tokens {
		if a < 0 {
			return nil, fmt.Errorf("sse: negative attribute %d in token map", a)
		}
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)

	var out []byte
	var n [4]byte
	putUint := func(v uint32) {
		binary.BigEndian.PutUint32(n[:], v)
		out = append(out, n[:]...)
	}
	putBytes := func(b []byte) {
		putUint(uint32(len(b)))
		out = append(out, b...)
	}
	putUint(uint32(len(attrs)))
	for _, a := range attrs {
		putUint(uint32(a))
		putUint(uint32(len(tokens[a])))
		for _, st := range tokens[a] {
			putBytes(st.Token)
			putBytes(st.Key)
		}
	}
	return out, nil
}

// UnmarshalTokenMap decodes MarshalTokenMap output.
func UnmarshalTokenMap(data []byte) (map[int][]SearchToken, error) {
	readUint := func() (uint32, error) {
		if len(data) < 4 {
			return 0, fmt.Errorf("%w: truncated token map encoding", ErrBadEncoding)
		}
		v := binary.BigEndian.Uint32(data)
		data = data[4:]
		return v, nil
	}
	readBytes := func() ([]byte, error) {
		n, err := readUint()
		if err != nil {
			return nil, err
		}
		if uint32(len(data)) < n {
			return nil, fmt.Errorf("%w: truncated token map encoding", ErrBadEncoding)
		}
		b := append([]byte(nil), data[:n]...)
		data = data[n:]
		return b, nil
	}

	nattrs, err := readUint()
	if err != nil {
		return nil, err
	}
	if nattrs > uint32(len(data)/minTokenAttrBytes) {
		return nil, fmt.Errorf("%w: %d token map attributes cannot fit in %d bytes", ErrBadEncoding, nattrs, len(data))
	}
	out := make(map[int][]SearchToken, nattrs)
	var prev uint32
	for i := uint32(0); i < nattrs; i++ {
		attr, err := readUint()
		if err != nil {
			return nil, err
		}
		ntoks, err := readUint()
		if err != nil {
			return nil, err
		}
		if i > 0 && attr <= prev {
			return nil, fmt.Errorf("%w: token map attribute %d out of order or repeated", ErrBadEncoding, attr)
		}
		prev = attr
		// Each token costs at least 8 encoded bytes, so the remaining
		// input bounds the preallocation against a hostile count.
		capHint := ntoks
		if max := uint32(len(data) / 8); capHint > max {
			capHint = max
		}
		toks := make([]SearchToken, 0, capHint)
		for j := uint32(0); j < ntoks; j++ {
			tok, err := readBytes()
			if err != nil {
				return nil, err
			}
			key, err := readBytes()
			if err != nil {
				return nil, err
			}
			toks = append(toks, SearchToken{Token: tok, Key: key})
		}
		out[int(attr)] = toks
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in token map encoding", ErrBadEncoding, len(data))
	}
	return out, nil
}
