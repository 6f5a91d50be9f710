package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"repro/internal/layout"
)

// The packed row record is the one binary image of a list of join
// result rows, shared by the JoinBatch frame body and the server's job
// spool:
//
//	uvarint  row count
//	per row:
//	  uvarint  RowA
//	  uvarint  RowB
//	  uvarint  len(PayloadA), then that many bytes
//	  uvarint  len(PayloadB), then that many bytes
//
// An empty payload is a side whose payload was skipped (the key-only
// projection); it parses back as nil. ParseRows reads the record in
// place: one allocation for the row slice, payloads aliasing the input.

// ErrBadRows is returned (wrapped) by ParseRows for any input that is
// not a well-formed packed row record.
var ErrBadRows = errors.New("wire: malformed row record")

// minRowBytes is the smallest encoding of one row: four one-byte
// uvarints (two row ids, two empty payload lengths).
const minRowBytes = 4

// AppendRows appends the packed record of rows to dst, growing dst once
// to the record's exact size.
func AppendRows(dst []byte, rows []JoinedRow) []byte {
	dst = slices.Grow(dst, rowsLen(rows))
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		dst = binary.AppendUvarint(dst, uint64(r.RowA))
		dst = binary.AppendUvarint(dst, uint64(r.RowB))
		dst = layout.AppendBytes(dst, r.PayloadA)
		dst = layout.AppendBytes(dst, r.PayloadB)
	}
	return dst
}

// ParseRows parses a packed row record, treating b as hostile. The
// returned rows' payloads alias b (each capped at its own length), so b
// must not be modified while they are in use.
func ParseRows(b []byte) ([]JoinedRow, error) {
	r := layout.NewReader(b, ErrBadRows)
	rows := make([]JoinedRow, r.Count("rows", minRowBytes))
	for i := range rows {
		// Field by field: a whole-struct store into the heap slice would
		// be one bulk write barrier per row while the collector runs.
		row := &rows[i]
		row.RowA, row.RowB = r.Row(), r.Row()
		row.PayloadA, row.PayloadB = r.Bytes(), r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Batches is a packed row record cut into the JoinBatch frames that
// carry it to a client. A frame's body is its row count followed by its
// rows' bytes, sent from the record as they are (Conn.SendBatch). Rows
// fill a frame in order until it holds maxRows rows or its rows' charge
// reaches FrameByteBudget, each row charging its two payloads' bytes
// plus 64, so every frame holds at least one row and a record of no
// rows is no frame. This is the one split rule of every result stream:
// a synchronous join's, an in-memory job's and a spooled job's.
type Batches struct {
	rec    []byte
	Frames []BatchFrame
}

// BatchFrame is one frame of a Batches: its row count, its rows' charge
// against FrameByteBudget, and where its rows lie in the record.
type BatchFrame struct {
	Rows, Charge int
	start, end   int
}

// CutRows reads rec, treating it as hostile, as a packed row record of
// want rows, checking every field as ParseRows does, and cuts it into
// frames of at most maxRows rows. Nothing is copied: the Batches alias
// rec, which must not change until its last frame is sent.
func CutRows(rec []byte, want, maxRows int) (Batches, error) {
	r := layout.NewReader(rec, ErrBadRows)
	n := r.Count("rows", minRowBytes)
	if r.Err() == nil && n != want {
		r.Fail("%d rows, want %d", n, want)
	}
	if err := r.Err(); err != nil {
		return Batches{}, err
	}
	b := Batches{rec: rec}
	f := BatchFrame{start: r.Offset()}
	for range n {
		if f.Rows > 0 && (f.Rows >= maxRows || f.Charge >= FrameByteBudget) {
			f.end = r.Offset()
			b.Frames = append(b.Frames, f)
			f = BatchFrame{start: f.end}
		}
		r.Row()
		r.Row()
		f.Charge += len(r.Bytes()) + len(r.Bytes()) + 64
		f.Rows++
	}
	if err := r.Done(); err != nil {
		return Batches{}, err
	}
	if f.Rows > 0 {
		f.end = len(rec)
		b.Frames = append(b.Frames, f)
	}
	return b, nil
}

// rowsLen is the size of the packed record of rows.
func rowsLen(rows []JoinedRow) int {
	n := uvarintLen(uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		n += uvarintLen(uint64(r.RowA)) + uvarintLen(uint64(r.RowB)) +
			uvarintLen(uint64(len(r.PayloadA))) + len(r.PayloadA) +
			uvarintLen(uint64(len(r.PayloadB))) + len(r.PayloadB)
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
