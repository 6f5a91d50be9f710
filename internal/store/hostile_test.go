package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/wire"
)

// TestParsersRejectAlike: the four parsers of hostile bytes that read
// through wire.Reader — a response frame (Recv), a packed row record
// (ParseRows), a manifest record payload (parseRecord) and a key file
// (LoadClientKeys) — each reject the same five malformations with their
// own sentinel. The key file has one uvarint, its scheme length, and no
// count or row id: its count case leaves fewer than the 32 AEAD key
// bytes after the scheme, and its row-id case sets the length to 2^31.
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

	type parser struct {
		name  string
		bad   error
		parse func([]byte) error
		valid []byte
		cases map[string][]byte
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
			valid: frame([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
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
			valid: []byte{1, 0, 0, 0, 0},
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
			valid: appendRecord(nil, &record{Op: opLedger, Seq: 1, Merges: [][]leakage.RowRef{{{Table: "A", Row: 1}}}}),
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
			valid: keys.Bytes(),
			cases: map[string][]byte{
				"padded uvarint":            keyFile(padded(schemeLen)),
				"length past the end":       keyFile(uv(uint64(len(scheme) + len(tail) + 1))),
				"count past the bytes left": keyFile(uv(uint64(len(scheme) + len(tail) - 31))),
				"row id 2^31":               keyFile(row231),
				"trailing byte":             append(keyFile(uv(schemeLen)), 0),
			},
		},
	}
	for _, p := range parsers {
		if err := p.parse(p.valid); err != nil {
			t.Fatalf("%s: valid input rejected: %v", p.name, err)
		}
		if len(p.cases) != 5 {
			t.Fatalf("%s: %d cases, want all 5", p.name, len(p.cases))
		}
		for name, b := range p.cases {
			if err := p.parse(b); !errors.Is(err, p.bad) {
				t.Errorf("%s, %s: got %v, want an error wrapping %q", p.name, name, err, p.bad)
			}
		}
	}
}
