package engine

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/securejoin"
)

// serialEncryptTable is the row-at-a-time table encryptor the row pool
// must reproduce: per row SJ.Enc, then the payload nonce and seal, then
// the SSE index over all rows.
func serialEncryptTable(c *Client, name string, rows []PlainRow, indexed bool) (*EncryptedTable, error) {
	out := &EncryptedTable{Name: name, Rows: make([]*EncryptedRow, len(rows)), NDV: countDistinctJoinValues(rows)}
	for i, r := range rows {
		jc, err := c.scheme.Encrypt(securejoin.Row{JoinValue: r.JoinValue, Attrs: r.Attrs})
		if err != nil {
			return nil, fmt.Errorf("engine: encrypting row %d of %s: %w", i, name, err)
		}
		nonce, err := c.payloadNonce()
		if err != nil {
			return nil, err
		}
		out.Rows[i] = &EncryptedRow{Join: jc, Payload: c.sealPayload(nonce, r.Payload)}
	}
	if indexed {
		attrRows := make([][][]byte, len(rows))
		for i, r := range rows {
			attrRows[i] = r.Attrs
		}
		idx, err := c.sse.BuildIndex(attrRows)
		if err != nil {
			return nil, err
		}
		out.Index = idx
	}
	return out, nil
}

// encryptRows returns n rows over a few join values, some with fewer
// attributes than the scheme packs so the padding path runs too.
func encryptRows(n int) []PlainRow {
	rows := make([]PlainRow, n)
	for i := range rows {
		attrs := [][]byte{[]byte(fmt.Sprintf("a-%d", i%3)), []byte(fmt.Sprintf("b-%d", i%2))}
		rows[i] = PlainRow{
			JoinValue: []byte(fmt.Sprintf("j-%d", i%4)),
			Attrs:     attrs[:1+i%2],
			Payload:   []byte(fmt.Sprintf("payload-%d", i)),
		}
	}
	return rows
}

// encryptCase is one table TestEncryptTableMatchesSerial encrypts under
// its scheme parameters.
type encryptCase struct {
	params securejoin.Params
	rows   []PlainRow
}

// TestEncryptTableMatchesSerial: from one seeded rng, EncryptTable and
// EncryptTableIndexed give byte for byte the ciphertexts and sealed
// payloads of the row-at-a-time loop at any GOMAXPROCS, leave the rng
// at the same offset, and name the same row when a row is rejected.
// The tables at d = 5 and d = 8 have row counts around the edges of
// the blocks EncryptTable deals out (Scheme.BlockRows, 12 rows at d = 5
// and 8 at d = 8): one short of a block, one block, one over, and one
// over two blocks. The SSE index seals its posting lists under crypto/rand
// nonces, so it is compared by what every search finds rather than by
// its bytes.
func TestEncryptTableMatchesSerial(t *testing.T) {
	params := securejoin.Params{M: 2, T: 2}
	tooWide := encryptRows(5)
	tooWide[2].Attrs = [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	cases := map[string]encryptCase{
		"empty":    {params, nil},
		"one row":  {params, encryptRows(1)},
		"13 rows":  {params, encryptRows(13)},
		"too wide": {params, tooWide},
	}
	for _, p := range []securejoin.Params{{M: 1, T: 1}, {M: 1, T: 4}} {
		s, err := securejoin.Setup(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		per := s.BlockRows()
		for _, n := range []int{per - 1, per, per + 1, 2*per + 1} {
			rows := encryptRows(n)
			for i := range rows {
				rows[i].Attrs = rows[i].Attrs[:1]
			}
			cases[fmt.Sprintf("d=%d/%d rows", p.Dim(), n)] = encryptCase{p, rows}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for name, tc := range cases {
			params, rows := tc.params, tc.rows
			for _, indexed := range []bool{false, true} {
				label := fmt.Sprintf("GOMAXPROCS=%d/%s/indexed=%v", procs, name, indexed)
				rngWant, rngGot := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
				cWant, err := NewClient(params, rngWant)
				if err != nil {
					t.Fatal(err)
				}
				cGot, err := NewClient(params, rngGot)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := serialEncryptTable(cWant, "T", rows, indexed)
				encrypt := cGot.EncryptTable
				if indexed {
					encrypt = cGot.EncryptTableIndexed
				}
				got, gotErr := encrypt("T", rows)

				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, serial loop's %v", label, gotErr, wantErr)
				}
				if wantErr == nil {
					sameTable(t, label, cGot, rows, want, got)
				}
				tailWant, tailGot := make([]byte, 16), make([]byte, 16)
				io.ReadFull(rngWant, tailWant) // a math/rand read never fails
				io.ReadFull(rngGot, tailGot)
				if !bytes.Equal(tailWant, tailGot) {
					t.Fatalf("%s: rng left at a different offset than the serial loop leaves it", label)
				}
			}
		}
	}
}

func sameTable(t *testing.T, label string, c *Client, rows []PlainRow, want, got *EncryptedTable) {
	t.Helper()
	if got.Name != want.Name || got.NDV != want.NDV || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: table %q NDV %d with %d rows, want %q NDV %d with %d rows",
			label, got.Name, got.NDV, len(got.Rows), want.Name, want.NDV, len(want.Rows))
	}
	for i := range want.Rows {
		wb, err := want.Rows[i].Join.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.Rows[i].Join.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: row %d ciphertext differs from the serial loop's", label, i)
		}
		if !bytes.Equal(got.Rows[i].Payload, want.Rows[i].Payload) {
			t.Fatalf("%s: row %d sealed payload differs from the serial loop's", label, i)
		}
	}
	if (got.Index == nil) != (want.Index == nil) {
		t.Fatalf("%s: index present %v, serial loop's %v", label, got.Index != nil, want.Index != nil)
	}
	if want.Index == nil {
		return
	}
	for _, r := range rows {
		for attr, v := range r.Attrs {
			tok := c.sse.Tokenize(attr, v)
			wantIDs, err := want.Index.Search(tok)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs, err := got.Index.Search(tok)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("%s: index finds rows %v for attribute %d = %q, serial loop's %v", label, gotIDs, attr, v, wantIDs)
			}
		}
	}
}

// BenchmarkEncryptTable encrypts one 16-row table at d = 8 (M = 1,
// T = 4), the shape the ingest workload uploads; run it with -cpu 1,2
// to see the row pool's scaling.
func BenchmarkEncryptTable(b *testing.B) {
	c, err := NewClient(securejoin.Params{M: 1, T: 4}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rows := encryptRows(16)
	for i := range rows {
		rows[i].Attrs = rows[i].Attrs[:1]
	}
	for b.Loop() {
		if _, err := c.EncryptTable("T", rows); err != nil {
			b.Fatal(err)
		}
	}
}
