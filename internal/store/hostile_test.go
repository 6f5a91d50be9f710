package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/securejoin"
	"repro/internal/sse"
	"repro/internal/wire"
)

// TestParsersRejectAlike: the parsers of hostile bytes that read
// through layout.Reader each reject the same malformations with their
// own sentinel. Every one rejects a length past the end, a count past
// the bytes left and a trailing byte. The four that read uvarints — a
// response frame (Recv), a packed row record (ParseRows), a manifest
// record payload (parseRecord) and a key file (LoadClientKeys) — also
// reject a padded uvarint and row id 2^31. The key file has one uvarint,
// its scheme length, and no count or row id: its count case leaves
// fewer than the 32 AEAD key bytes after the scheme, and its row-id
// case sets the length to 2^31. The fixed-width parsers — the SSE index
// and token map, a token, a row ciphertext and the key file's scheme
// section (LoadScheme) — read uint32 counts and lengths; a token, a row
// ciphertext and a scheme have no length field, so their length case
// cuts a uint32 field short.
func TestParsersRejectAlike(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	padded := func(x uint64) []byte {
		b := uv(x)
		b[len(b)-1] |= 0x80
		return append(b, 0)
	}
	row231 := uv(1 << 31)

	var keys bytes.Buffer
	if err := newTestClient(t).ExportKeys(&keys); err != nil {
		t.Fatal(err)
	}
	const magic = "SJ KEYS 2\n"
	rest, ok := bytes.CutPrefix(keys.Bytes(), []byte(magic))
	if !ok {
		t.Fatal("key file without its format header")
	}
	schemeLen, k := binary.Uvarint(rest)
	scheme, tail := rest[k:k+int(schemeLen)], rest[k+int(schemeLen):]
	keyFile := func(length []byte) []byte { return cat([]byte(magic), length, scheme, tail) }

	// frame puts a payload behind its length header. The valid payload
	// is kind 4 and nine zero fields: ID, Err and Ok, an empty Code and
	// Batch, Summary, Tables, Health and Job absent.
	frame := func(payload []byte) []byte {
		return cat(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload)
	}
	rowRec := cat([]byte{1}, row231, []byte{0, 0, 0})

	// u32 writes big-endian uint32s, the fixed-width layouts' counts
	// and lengths.
	u32 := func(xs ...uint32) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.BigEndian.AppendUint32(b, x)
		}
		return b
	}
	q, err := newTestClient(t).NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	token, err := q.TokenA.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	nTok := binary.BigEndian.Uint32(token)
	ct, err := encTable(t, newTestClient(t), "T", false, "p").Rows[0].Join.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	nCt := binary.BigEndian.Uint32(ct)
	// The scheme is M, T, then the master key: its dimension n and n*n
	// 32-byte entries.
	nKey := binary.BigEndian.Uint32(scheme[8:])
	withCount := func(enc []byte, at int, n uint32) []byte {
		return cat(enc[:at], u32(n), enc[at+4:])
	}

	type parser struct {
		name    string
		bad     error
		parse   func([]byte) error
		valid   []byte
		uvarint bool // also rejects a padded uvarint and row id 2^31
		cases   map[string][]byte
	}
	parsers := []parser{
		{
			name: "frame", bad: wire.ErrBadFrame,
			parse: func(b []byte) error {
				var f wire.Frame
				return wire.NewConn(struct {
					io.Reader
					io.Writer
				}{bytes.NewReader(b), io.Discard}).Recv(&f)
			},
			valid: frame([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0}), uvarint: true,
			cases: map[string][]byte{
				"padded uvarint":            frame(cat([]byte{4}, padded(0), []byte{0, 0, 0, 0, 0, 0, 0, 0})),
				"length past the end":       frame([]byte{4, 0, 5, 'e'}),
				"count past the bytes left": frame([]byte{4, 0, 0, 0, 0, 0, 1, 100}),
				"row id 2^31":               frame(cat([]byte{4, 0, 0, 0, 1}, uv(uint64(len(rowRec))), rowRec, []byte{0, 0, 0, 0, 0})),
				"trailing byte":             frame([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
			},
		},
		{
			name: "ParseRows", bad: wire.ErrBadRows,
			parse: func(b []byte) error { _, err := wire.ParseRows(b); return err },
			valid: []byte{1, 0, 0, 0, 0}, uvarint: true,
			cases: map[string][]byte{
				"padded uvarint":            cat([]byte{1}, padded(0), []byte{0, 0, 0}),
				"length past the end":       []byte{1, 0, 0, 5, 'a', 0},
				"count past the bytes left": []byte{10, 0, 0, 0, 0},
				"row id 2^31":               rowRec,
				"trailing byte":             []byte{1, 0, 0, 0, 0, 0},
			},
		},
		{
			name: "manifest record", bad: errBadRecord,
			parse: func(b []byte) error { _, err := parseRecord(b); return err },
			valid: appendRecord(nil, &record{Op: opLedger, Seq: 1, Merges: [][]leakage.RowRef{{{Table: "A", Row: 1}}}}), uvarint: true,
			cases: map[string][]byte{
				"padded uvarint":            cat([]byte{opLedger}, padded(1), []byte{0}),
				"length past the end":       []byte{opCommit, 1, 9, 'T'},
				"count past the bytes left": []byte{opLedger, 1, 100},
				"row id 2^31":               cat([]byte{opLedger, 1, 1, 1, 1, 'A'}, row231),
				"trailing byte":             []byte{opJobDelete, 1, 0, 0},
			},
		},
		{
			name: "key file", bad: engine.ErrBadKeyFile,
			parse: func(b []byte) error { _, err := engine.LoadClientKeys(bytes.NewReader(b)); return err },
			valid: keys.Bytes(), uvarint: true,
			cases: map[string][]byte{
				"padded uvarint":            keyFile(padded(schemeLen)),
				"length past the end":       keyFile(uv(uint64(len(scheme) + len(tail) + 1))),
				"count past the bytes left": keyFile(uv(uint64(len(scheme) + len(tail) - 31))),
				"row id 2^31":               keyFile(row231),
				"trailing byte":             append(keyFile(uv(schemeLen)), 0),
			},
		},
		{
			name: "SSE index", bad: sse.ErrBadEncoding,
			parse: func(b []byte) error { return new(sse.Index).UnmarshalBinary(b) },
			valid: cat(u32(1, 1), []byte("k"), u32(1), []byte("v")),
			cases: map[string][]byte{
				"length past the end":       cat(u32(1, 9), []byte("k"), u32(0)),
				"count past the bytes left": u32(2, 0, 0),
				"trailing byte":             cat(u32(1, 1), []byte("k"), u32(1), []byte("v"), []byte{0}),
			},
		},
		{
			name: "SSE token map", bad: sse.ErrBadEncoding,
			parse: func(b []byte) error { _, err := sse.UnmarshalTokenMap(b); return err },
			valid: cat(u32(1, 0, 1, 1), []byte("t"), u32(1), []byte("k")),
			cases: map[string][]byte{
				"length past the end":       cat(u32(1, 0, 1, 9), []byte("t"), u32(1), []byte("k")),
				"count past the bytes left": cat(u32(1, 0, 2, 1), []byte("t"), u32(1), []byte("k")),
				"trailing byte":             cat(u32(1, 0, 1, 1), []byte("t"), u32(1), []byte("k"), []byte{0}),
			},
		},
		{
			name: "token", bad: securejoin.ErrBadEncoding,
			parse: func(b []byte) error { return new(securejoin.Token).UnmarshalBinary(b) },
			valid: token,
			cases: map[string][]byte{
				"length past the end":       token[:3],
				"count past the bytes left": withCount(token, 0, nTok+1),
				"trailing byte":             cat(token, []byte{0}),
			},
		},
		{
			name: "row ciphertext", bad: securejoin.ErrBadEncoding,
			parse: func(b []byte) error { return new(securejoin.RowCiphertext).UnmarshalBinary(b) },
			valid: ct,
			cases: map[string][]byte{
				"length past the end":       ct[:3],
				"count past the bytes left": withCount(ct, 0, nCt+1),
				"trailing byte":             cat(ct, []byte{0}),
			},
		},
		{
			name: "scheme", bad: securejoin.ErrBadEncoding,
			parse: func(b []byte) error { _, err := securejoin.LoadScheme(b, nil); return err },
			valid: scheme,
			cases: map[string][]byte{
				"length past the end":       scheme[:6],
				"count past the bytes left": withCount(scheme, 8, nKey+1),
				"trailing byte":             cat(scheme, []byte{0}),
			},
		},
	}
	common := []string{"length past the end", "count past the bytes left", "trailing byte"}
	for _, p := range parsers {
		if err := p.parse(p.valid); err != nil {
			t.Fatalf("%s: valid input rejected: %v", p.name, err)
		}
		want := common
		if p.uvarint {
			want = append(slices.Clip(common), "padded uvarint", "row id 2^31")
		}
		for _, name := range want {
			if p.cases[name] == nil {
				t.Fatalf("%s: no %q case", p.name, name)
			}
		}
		if len(p.cases) != len(want) {
			t.Fatalf("%s: %d cases, want %d", p.name, len(p.cases), len(want))
		}
		for name, b := range p.cases {
			if err := p.parse(b); !errors.Is(err, p.bad) {
				t.Errorf("%s, %s: got %v, want an error wrapping %q", p.name, name, err, p.bad)
			}
		}
	}
}
