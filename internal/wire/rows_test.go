package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// badRecords are malformed packed row records, one per ErrBadRows case;
// testdata/fuzz/FuzzParseRows seeds the fuzzer with the same inputs.
var badRecords = map[string][]byte{
	"empty":              {},
	"count-above-len/4":  {5, 0, 0, 0, 0, 0, 0, 0, 0},
	"truncated-uvarint":  {1, 1, 1, 0, 0x80},
	"payload-past-end":   {1, 0, 0, 5, 'a', 'b', 0},
	"row-id-2^31":        {1, 0x80, 0x80, 0x80, 0x80, 0x08, 0, 0, 0},
	"one-trailing-byte":  {1, 0, 0, 0, 0, 0xff},
	"overlong-uvarint":   append(bytes.Repeat([]byte{0xff}, 10), 1),
	"count-past-the-end": {0x80},
	"huge-count":         append(binary.AppendUvarint(nil, 1<<62), make([]byte, 8)...),
}

// threeRows is a valid record of three rows, the second skipping its
// A-side payload.
var threeRows = []byte("\x03" + "\x00\x01\x01a\x02bc" + "\x01\x02\x00\x01d" + "\x02\x00\x02ef\x01g")

func TestParseRowsRejectsMalformed(t *testing.T) {
	for name, b := range badRecords {
		if rows, err := ParseRows(b); !errors.Is(err, ErrBadRows) {
			t.Errorf("%s: got %v, %v; want ErrBadRows", name, rows, err)
		}
	}
}

func TestParseRowsValid(t *testing.T) {
	rows, err := ParseRows(threeRows)
	if err != nil {
		t.Fatal(err)
	}
	want := []JoinedRow{
		{RowA: 0, RowB: 1, PayloadA: []byte("a"), PayloadB: []byte("bc")},
		{RowA: 1, RowB: 2, PayloadA: nil, PayloadB: []byte("d")},
		{RowA: 2, RowB: 0, PayloadA: []byte("ef"), PayloadB: []byte("g")},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("parsed %q, want %q", rows, want)
	}
	if got := AppendRows(nil, rows); !bytes.Equal(got, threeRows) {
		t.Fatalf("re-encoded %q, want %q", got, threeRows)
	}
	// Payloads alias the input but are capped at their own length, so an
	// append to one cannot overwrite the bytes that follow it.
	if cap(rows[0].PayloadA) != 1 {
		t.Fatalf("payload cap %d, want 1", cap(rows[0].PayloadA))
	}
	if got := AppendRows([]byte("prefix"), rows[:0]); !bytes.Equal(got, []byte("prefix\x00")) {
		t.Fatalf("empty list appended as %q", got)
	}
}

// resultRows builds n rows with distinct 64-byte payloads, the size of
// a sealed short payload.
func resultRows(n int) []JoinedRow {
	rows := make([]JoinedRow, n)
	for i := range rows {
		p := bytes.Repeat([]byte{byte(i)}, 64)
		rows[i] = JoinedRow{RowA: i, RowB: n - i, PayloadA: p, PayloadB: p}
	}
	return rows
}

// TestParseRowsAllocs guards the in-place parse: the row slice is the
// only allocation, and receiving a frame of those rows adds just the
// frame's buffer and its JoinBatch — never one per payload.
func TestParseRowsAllocs(t *testing.T) {
	b := AppendRows(nil, resultRows(1500))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ParseRows(b); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("ParseRows of 1500 rows: %v allocations, want 1", n)
	}
	frame, err := marshal(&Frame{ID: 1, Batch: &JoinBatch{Rows: resultRows(1500)}})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(bytes.Repeat(frame, runs+1)), io.Discard}) // AllocsPerRun warms up once
	var f Frame
	if n := testing.AllocsPerRun(runs, func() {
		if err := c.Recv(&f); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("Recv of a 1500-row batch frame: %v allocations, want at most 3", n)
	}
	if len(f.Batch.Rows) != 1500 {
		t.Fatalf("received %d rows, want 1500", len(f.Batch.Rows))
	}
}

func TestJoinBatchRoundTrip(t *testing.T) {
	rows := resultRows(300)
	rows[7].PayloadA = nil // a key-only side
	rows[8].PayloadB = []byte{}
	send, recv, _ := loopback()
	if err := send.Send(&Frame{ID: 5, Batch: &JoinBatch{Rows: rows}}); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := recv.Recv(&f); err != nil {
		t.Fatal(err)
	}
	if f.ID != 5 || f.Batch == nil || len(f.Batch.Rows) != len(rows) {
		t.Fatalf("batch frame: id %d, batch %v", f.ID, f.Batch != nil)
	}
	for i, got := range f.Batch.Rows {
		want := rows[i]
		if got.RowA != want.RowA || got.RowB != want.RowB {
			t.Fatalf("row %d: ids (%d,%d), want (%d,%d)", i, got.RowA, got.RowB, want.RowA, want.RowB)
		}
		if !bytes.Equal(got.PayloadA, want.PayloadA) || !bytes.Equal(got.PayloadB, want.PayloadB) {
			t.Fatalf("row %d: payload bytes differ", i)
		}
	}
	if f.Batch.Rows[7].PayloadA != nil || f.Batch.Rows[8].PayloadB != nil {
		t.Fatal("an empty payload did not come back as nil")
	}

	// An empty batch is still a (non-terminal) batch frame.
	if err := send.Send(&Frame{ID: 6, Batch: &JoinBatch{}}); err != nil {
		t.Fatal(err)
	}
	var empty Frame
	if err := recv.Recv(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Batch == nil || empty.Terminal() || len(empty.Batch.Rows) != 0 {
		t.Fatalf("empty batch frame: %+v", empty)
	}
}

// FuzzParseRows: the parser never panics on hostile input, and whatever
// it accepts re-encodes to a record that parses to the same rows. The
// corpus under testdata/fuzz/FuzzParseRows holds badRecords and
// threeRows.
func FuzzParseRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, err := ParseRows(b)
		if err != nil {
			if !errors.Is(err, ErrBadRows) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		again, err := ParseRows(AppendRows(nil, rows))
		if err != nil {
			t.Fatalf("re-encoded rows do not parse: %v", err)
		}
		if !reflect.DeepEqual(again, rows) {
			t.Fatalf("round trip changed the rows: %q, then %q", rows, again)
		}
	})
}

// BenchmarkParseRows parses a record the size of a job_replay spool:
// 1,500 rows with sealed payloads of 60 to 100 bytes.
func BenchmarkParseRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]JoinedRow, 1500)
	for i := range rows {
		rows[i] = JoinedRow{
			RowA: i, RowB: rng.Intn(3000),
			PayloadA: make([]byte, 60+rng.Intn(41)), PayloadB: make([]byte, 60+rng.Intn(41)),
		}
	}
	rec := AppendRows(nil, rows)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseRows(rec); err != nil {
			b.Fatal(err)
		}
	}
}
