package sse

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func TestIndexCodecRoundTrip(t *testing.T) {
	c, idx := buildTestIndex(t)
	data, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var idx2 Index
	if err := idx2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// The reloaded index must answer searches identically.
	for _, value := range []string{"red", "blue", "green", "absent"} {
		st := c.Tokenize(0, []byte(value))
		a, err := idx.Search(st)
		if err != nil {
			t.Fatal(err)
		}
		b, err := idx2.Search(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("value %q: %v vs %v", value, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("value %q: %v vs %v", value, a, b)
			}
		}
	}

	// Deterministic encoding.
	data2, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("encoding not deterministic")
	}
}

func TestIndexCodecRejectsMalformed(t *testing.T) {
	var idx Index
	if err := idx.UnmarshalBinary([]byte{0, 0}); err == nil {
		t.Fatal("truncated header accepted")
	}
	if err := idx.UnmarshalBinary([]byte{0, 0, 0, 1, 0, 0, 0, 5, 'a'}); err == nil {
		t.Fatal("truncated key accepted")
	}
	// Trailing garbage.
	good, _ := (&Index{postings: map[string][]byte{"k": {1}}}).MarshalBinary()
	if err := idx.UnmarshalBinary(append(good, 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTokenMapCodecRoundTrip(t *testing.T) {
	c, _ := buildTestIndex(t)
	m := map[int][]SearchToken{
		0: {c.Tokenize(0, []byte("red")), c.Tokenize(0, []byte("blue"))},
		1: {c.Tokenize(1, []byte("L"))},
		7: {},
	}
	data, err := MarshalTokenMap(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTokenMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("decoded %d attributes, want %d", len(got), len(m))
	}
	for attr, toks := range m {
		g := got[attr]
		if len(g) != len(toks) {
			t.Fatalf("attr %d: %d tokens, want %d", attr, len(g), len(toks))
		}
		for i := range toks {
			if !bytes.Equal(g[i].Token, toks[i].Token) || !bytes.Equal(g[i].Key, toks[i].Key) {
				t.Fatalf("attr %d token %d differs after round trip", attr, i)
			}
		}
	}
	// Deterministic encoding.
	data2, err := MarshalTokenMap(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("token map encoding is not deterministic")
	}
	// Empty map round-trips to empty map.
	none, err := MarshalTokenMap(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2, err := UnmarshalTokenMap(none); err != nil || len(m2) != 0 {
		t.Fatalf("empty map round trip: %v, %v", m2, err)
	}
}

func TestTokenMapCodecRejectsCorrupt(t *testing.T) {
	c, _ := buildTestIndex(t)
	data, err := MarshalTokenMap(map[int][]SearchToken{0: {c.Tokenize(0, []byte("x"))}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		data[:3],                              // truncated header
		data[:len(data)-2],                    // truncated token
		append(data[:len(data):len(data)], 0), // trailing byte
	} {
		if _, err := UnmarshalTokenMap(bad); err == nil {
			t.Fatalf("corrupt encoding of %d bytes accepted", len(bad))
		}
	}
	if _, err := MarshalTokenMap(map[int][]SearchToken{-1: nil}); err == nil {
		t.Fatal("negative attribute accepted")
	}
}

// TestCodecsBoundPeerCounts: a 4-byte input announcing 2^20 entries
// (attributes) fails before either decoder sizes a map from the count,
// where it used to allocate ~90 MB first.
func TestCodecsBoundPeerCounts(t *testing.T) {
	huge := []byte{0, 0x10, 0, 0} // count 2^20, nothing after it
	for name, decode := range map[string]func() error{
		"Index.UnmarshalBinary": func() error { return new(Index).UnmarshalBinary(huge) },
		"UnmarshalTokenMap":     func() error { _, err := UnmarshalTokenMap(huge); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted a count of 2^20 in 4 bytes", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s allocated %d bytes before failing, want under 64 KiB", name, n)
		}
	}
}

// FuzzIndexUnmarshal feeds hostile bytes to the index decoder, which a
// peer reaches through an upload's Commit chunk. The corpus under
// testdata/fuzz/FuzzIndexUnmarshal seeds truncations, a huge count, a
// repeated key, keys out of order, a trailing byte and a valid index.
// A failure must be an error wrapping ErrBadEncoding, never a panic; an
// accepted index must re-encode to the same bytes.
func FuzzIndexUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var idx Index
		if err := idx.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("rejection %v does not wrap ErrBadEncoding", err)
			}
			return
		}
		again, err := idx.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted a non-canonical index encoding: %x re-encodes as %x", data, again)
		}
	})
}

// FuzzUnmarshalTokenMap feeds hostile bytes to the token-map decoder,
// which a peer reaches through a join request's PrefilterA/B. The
// corpus under testdata/fuzz/FuzzUnmarshalTokenMap seeds truncations,
// huge attribute and token counts, a duplicate attribute, attributes
// out of order, a trailing byte and a valid map. A failure must be an
// error wrapping ErrBadEncoding, never a panic; an accepted map must
// re-encode to the same bytes.
func FuzzUnmarshalTokenMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalTokenMap(data)
		if err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("rejection %v does not wrap ErrBadEncoding", err)
			}
			return
		}
		again, err := MarshalTokenMap(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted a non-canonical token map encoding: %x re-encodes as %x", data, again)
		}
	})
}
