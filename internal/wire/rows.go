package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
		dst = binary.AppendUvarint(dst, uint64(len(r.PayloadA)))
		dst = append(dst, r.PayloadA...)
		dst = binary.AppendUvarint(dst, uint64(len(r.PayloadB)))
		dst = append(dst, r.PayloadB...)
	}
	return dst
}

// ParseRows parses a packed row record, treating b as hostile. The
// returned rows' payloads alias b (each capped at its own length), so b
// must not be modified while they are in use.
func ParseRows(b []byte) ([]JoinedRow, error) {
	count, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(b)/minRowBytes) {
		return nil, fmt.Errorf("%w: %d rows cannot fit in %d bytes", ErrBadRows, count, len(b))
	}
	rows := make([]JoinedRow, count)
	for i := range rows {
		r := &rows[i]
		if r.RowA, b, err = readRowID(b); err != nil {
			return nil, err
		}
		if r.RowB, b, err = readRowID(b); err != nil {
			return nil, err
		}
		if r.PayloadA, b, err = readPayload(b); err != nil {
			return nil, err
		}
		if r.PayloadB, b, err = readPayload(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRows, len(b))
	}
	return rows, nil
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

// uvarint reads a minimally encoded uvarint, so every value has exactly
// one encoding. n <= 0 reports a truncated, overlong or padded one.
func uvarint(b []byte) (x uint64, n int) {
	x, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated, overlong or non-minimal uvarint", ErrBadRows)
	}
	return x, b[n:], nil
}

func readRowID(b []byte) (int, []byte, error) {
	x, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if x > math.MaxInt32 {
		return 0, nil, fmt.Errorf("%w: row id %d out of range", ErrBadRows, x)
	}
	return int(x), b, nil
}

func readPayload(b []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: payload of %d bytes past the end (%d left)", ErrBadRows, n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	return b[:n:n], b[n:], nil
}
