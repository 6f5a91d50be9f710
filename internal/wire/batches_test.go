package wire

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// loopSplit is the split rule written as a loop over rows, the
// reference CutRows must match: the row count and the charge of each
// frame.
func loopSplit(rows []JoinedRow, maxRows int) (counts, charges []int) {
	for len(rows) > 0 {
		n, charge := 0, 0
		for n < len(rows) && (n == 0 || (n < maxRows && charge < FrameByteBudget)) {
			charge += len(rows[n].PayloadA) + len(rows[n].PayloadB) + 64
			n++
		}
		counts = append(counts, n)
		charges = append(charges, charge)
		rows = rows[n:]
	}
	return counts, charges
}

// TestSendBatchMatchesSend pins the writer against the message codec:
// every frame SendBatch writes from a record is the frame Send writes
// for the same rows, and CutRows splits where the loop does.
func TestSendBatchMatchesSend(t *testing.T) {
	// Three rows of a third of the budget each charge just past it with
	// their 64 bytes apiece, so the 64-byte charge decides the cut.
	third := make([]byte, FrameByteBudget/3)
	over := make([]byte, FrameByteBudget+1)
	small := JoinedRow{RowA: 1, RowB: 2, PayloadA: []byte("a"), PayloadB: []byte("bc")}
	keyOnly := make([]JoinedRow, 5)
	for i := range keyOnly {
		keyOnly[i] = JoinedRow{RowA: i, RowB: 200 + i}
	}
	for _, c := range []struct {
		name    string
		rows    []JoinedRow
		maxRows int
		frames  int
	}{
		{"exactly-maxRows", resultRows(8), 8, 1},
		{"maxRows-and-more", resultRows(17), 8, 3},
		{"payloads-cross-the-budget", []JoinedRow{{PayloadA: third}, {PayloadB: third}, {PayloadA: third}, small}, 8, 2},
		{"oversized-row", []JoinedRow{small, {RowA: 3, PayloadA: over}, small}, 8, 2},
		{"key-only", keyOnly, 2, 3},
		{"no-rows", nil, 8, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := CutRows(AppendRows(nil, c.rows), len(c.rows), c.maxRows)
			if err != nil {
				t.Fatal(err)
			}
			counts, charges := loopSplit(c.rows, c.maxRows)
			if len(b.Frames) != c.frames || len(counts) != c.frames {
				t.Fatalf("%d frames, the loop cuts %d; want %d", len(b.Frames), len(counts), c.frames)
			}
			off := 0
			for i, f := range b.Frames {
				if f.Rows != counts[i] || f.Charge != charges[i] {
					t.Fatalf("frame %d: %d rows charging %d, the loop cuts %d charging %d", i, f.Rows, f.Charge, counts[i], charges[i])
				}
				var got, want bytes.Buffer
				if err := NewConn(&pipeConn{out: &got}).SendBatch(9, &b, i); err != nil {
					t.Fatal(err)
				}
				frame := &Frame{ID: 9, Batch: &JoinBatch{Rows: c.rows[off : off+f.Rows]}}
				if err := NewConn(&pipeConn{out: &want}).Send(frame); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("frame %d: SendBatch wrote %d bytes unlike Send's %d", i, got.Len(), want.Len())
				}
				off += f.Rows
			}
		})
	}
}

// TestCutRowsRejects: CutRows refuses what ParseRows refuses, and a
// well-formed record of another row count than the one wanted.
func TestCutRowsRejects(t *testing.T) {
	for name, rec := range badRecords {
		for want := range 6 {
			if _, err := CutRows(rec, want, 8); !errors.Is(err, ErrBadRows) {
				t.Errorf("%s, want %d rows: %v, want ErrBadRows", name, want, err)
			}
		}
	}
	for _, want := range []int{0, 2, 4} {
		if _, err := CutRows(threeRows, want, 8); !errors.Is(err, ErrBadRows) || !strings.Contains(err.Error(), "3 rows") {
			t.Errorf("three rows, want %d: %v, want ErrBadRows naming 3 rows", want, err)
		}
	}
	if _, err := CutRows(threeRows, 3, 8); err != nil {
		t.Fatal(err)
	}
}

// TestRecvAllocatesWhatArrives: a header announcing MaxFrameSize ahead
// of three bytes costs what Recv allocates before any byte arrives, not
// the 64 MiB announced; a frame longer than that first allocation still
// arrives whole.
func TestRecvAllocatesWhatArrives(t *testing.T) {
	claim := []byte{0x04, 0, 0, 0, kindFrame, 1, 0} // MaxFrameSize, then 3 bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var f Frame
	err := NewConn(&pipeConn{in: bytes.NewBuffer(claim)}).Recv(&f)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("got %v, want ErrTruncatedFrame", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("a 7-byte input allocated %d bytes", n)
	}

	long := &Frame{ID: 3, Err: strings.Repeat("x", 3*recvPrealloc+5)}
	send, recv, _ := loopback()
	if err := send.Send(long); err != nil {
		t.Fatal(err)
	}
	if err := recv.Recv(&f); err != nil {
		t.Fatal(err)
	}
	if f.ID != long.ID || f.Err != long.Err {
		t.Fatalf("a %d-byte frame came back as ID %d with %d bytes of Err", len(long.Err), f.ID, len(f.Err))
	}
}
