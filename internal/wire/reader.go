package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader reads the uvarint layouts every hostile input of the system
// is written in: frame payloads, packed row records, the store's
// manifest records and job images, and the key file's length prefix.
// The first malformed field sets the Reader's error, which wraps the
// sentinel it was made with, and ends the input, so every later read
// returns a zero value and loops over counts read after it end at once.
// Byte strings are returned in place, each capped at its own length.
type Reader struct {
	b []byte
	// off is where b's unread bytes start. Reading advances an integer,
	// not a slice, so the hot path stores no pointer through r and pays
	// no write barrier while the garbage collector runs.
	off int
	err error
	bad error
}

// NewReader reads b; every error it reports wraps bad.
func NewReader(b []byte, bad error) Reader { return Reader{b: b, bad: bad} }

// Fail records a malformed field, unless an earlier one was recorded,
// and ends the input.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.bad, fmt.Sprintf(format, args...))
	}
	r.off = len(r.b)
}

// left is the number of unread bytes.
func (r *Reader) left() int { return len(r.b) - r.off }

// Done returns the first error, or one for any bytes left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.left() != 0 {
		r.Fail("%d trailing bytes", r.left())
	}
	return r.err
}

// Next reads n bytes in place.
func (r *Reader) Next(n int) []byte {
	if n > r.left() {
		r.Fail("%d-byte field past the end (%d left)", n, r.left())
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Rest reads every unread byte in place.
func (r *Reader) Rest() []byte { return r.Next(r.left()) }

// Uvarint reads a minimally encoded uvarint, so every value has exactly
// one encoding. A one-byte value, the common case, takes a short path.
func (r *Reader) Uvarint() uint64 {
	if off := r.off; uint(off) < uint(len(r.b)) && r.b[off] < 0x80 {
		r.off++
		return uint64(r.b[off])
	}
	return r.uvarintLong()
}

func (r *Reader) uvarintLong() uint64 {
	x, n := binary.Uvarint(r.b[r.off:])
	// n == 1 only for a byte below 0x80, which Uvarint took; a longer
	// encoding is padded if its last byte is zero.
	if n <= 0 || r.b[r.off+n-1] == 0 {
		r.Fail("truncated, overlong or non-minimal uvarint")
		return 0
	}
	r.off += n
	return x
}

// Int reads a uvarint that must fit an int; a negative int is its
// ten-byte two's complement.
func (r *Reader) Int() int {
	x := int64(r.Uvarint())
	if int64(int(x)) != x {
		r.Fail("integer %d out of range", x)
		return 0
	}
	return int(x)
}

// Row reads a row index, at most 2^31 - 1.
func (r *Reader) Row() int {
	x := r.Uvarint()
	if x > math.MaxInt32 {
		r.Fail("row id %d out of range", x)
		return 0
	}
	return int(x)
}

// Bytes reads a length-prefixed byte string in place; an empty one is
// nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.left()) {
		r.Fail("byte string of %d bytes past the end (%d left)", n, r.left())
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.Next(int(n))
}

// String reads a length-prefixed string (a copy).
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a list length and checks it, before the caller allocates,
// against the bytes left at min bytes per element.
func (r *Reader) Count(what string, min int) int {
	n := r.Uvarint()
	if n > uint64(r.left()/min) {
		r.Fail("%d %s cannot fit in %d bytes", n, what, r.left())
		return 0
	}
	return int(n)
}

// JobInfo reads the image of a job AppendJobInfo writes.
func (r *Reader) JobInfo() JobInfo {
	// A composite literal's calls run left to right, so the fields are
	// read in declared order.
	return JobInfo{
		ID:            r.String(),
		State:         r.String(),
		TableA:        r.String(),
		TableB:        r.String(),
		RowsDecrypted: r.Int(),
		StepsDone:     r.Int(),
		RevealedPairs: r.Int(),
		ResultRows:    r.Int(),
		Err:           r.String(),
		CreatedUnix:   int64(r.Uvarint()),
		StartedUnix:   int64(r.Uvarint()),
		FinishedUnix:  int64(r.Uvarint()),
	}
}

// AppendBytes appends p behind its uvarint length, the layout Bytes and
// String read.
func AppendBytes[T string | []byte](dst []byte, p T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(p))), p...)
}
