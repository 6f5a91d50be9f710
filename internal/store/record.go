package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/leakage"
	"repro/internal/wire"
)

// The manifest's byte layout. The file starts with manifestMagic; then
// come the records, each framed as
//
//	4 bytes  big-endian payload length (1 .. maxRecordSize)
//	payload
//	4 bytes  big-endian CRC-32C of the payload
//
// and each payload is an op byte, a uvarint seq and that op's fields,
// written as the wire codec writes them (minimal uvarints, strings and
// byte strings behind a uvarint length):
//
//	opCommit     table, snapshot name, snapshot SHA-256
//	opDelete     table
//	opJob        spool name (empty for a failed job), spool SHA-256,
//	             then the job's wire.JobInfo image (wire.AppendJobInfo)
//	             to the end of the payload
//	opJobDelete  job ID
//	opLedger     uvarint class count; per class a uvarint row count,
//	             then per row its table name and uvarint row index
//
// Every value has one encoding, so a payload parseRecord accepts
// re-encodes to the same bytes. DESIGN.md has the same tables.

// manifestMagic opens every manifest this format writes. A manifest
// without it is one of the gob-record format earlier builds wrote, and
// Open refuses it before touching the directory.
const manifestMagic = "SJ MANIFEST 2\n"

// Record operations, the first byte of a payload. Values are part of
// the on-disk format.
const (
	opCommit    uint8 = 1 // table version committed
	opDelete    uint8 = 2 // table deleted
	opJob       uint8 = 3 // finished job committed: its spool and JobInfo
	opJobDelete uint8 = 4 // job reaped
	opLedger    uint8 = 5 // leakage-ledger delta: the merges one join added
)

// record is one manifest entry; the layout above says which fields each
// op carries.
type record struct {
	Op       uint8
	Seq      uint64
	Table    string             // opCommit, opDelete
	Snapshot string             // opCommit: file under tables/; opJob: spool under jobs/
	Digest   []byte             // opCommit, opJob: SHA-256 of that file
	Job      JobMeta            // opJob; opJobDelete carries only Job.ID
	Merges   [][]leakage.RowRef // opLedger
}

var (
	// errTorn marks a manifest tail that ends mid-record or fails its
	// CRC: replay stops there and truncates it away.
	errTorn = errors.New("torn record")
	// errBadRecord marks an intact frame whose payload does not parse:
	// replay reports and skips it.
	errBadRecord = errors.New("malformed record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends rec's payload to dst.
func appendRecord(dst []byte, rec *record) []byte {
	dst = append(dst, rec.Op)
	dst = binary.AppendUvarint(dst, rec.Seq)
	switch rec.Op {
	case opCommit:
		dst = appendString(dst, rec.Table)
		dst = appendString(dst, rec.Snapshot)
		dst = appendBytes(dst, rec.Digest)
	case opDelete:
		dst = appendString(dst, rec.Table)
	case opJob:
		dst = appendString(dst, rec.Snapshot)
		dst = appendBytes(dst, rec.Digest)
		dst = wire.AppendJobInfo(dst, &rec.Job)
	case opJobDelete:
		dst = appendString(dst, rec.Job.ID)
	case opLedger:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Merges)))
		for _, class := range rec.Merges {
			dst = binary.AppendUvarint(dst, uint64(len(class)))
			for _, ref := range class {
				dst = appendString(dst, ref.Table)
				dst = binary.AppendUvarint(dst, uint64(ref.Row))
			}
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendBytes(dst, p []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(p))), p...)
}

// encodeRecord frames one record the way append writes it.
func encodeRecord(rec *record) ([]byte, error) {
	return frameRecord(appendRecord(nil, rec))
}

// frameRecord wraps a payload in the length header and CRC trailer.
func frameRecord(payload []byte) ([]byte, error) {
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("store: manifest record of %d bytes exceeds limit", len(payload))
	}
	b := make([]byte, 4, 8+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crcTable)), nil
}

// readRecord reads one framed record, returning the bytes it consumed.
// A mid-record end of stream or a CRC failure yields errTorn; an intact
// frame whose payload does not parse yields errBadRecord and the frame's
// size, so replay can step over it.
func readRecord(br *bufio.Reader) (*record, int64, error) {
	var hdr [4]byte
	if n, err := io.ReadFull(br, hdr[:]); err != nil {
		if n == 0 && err == io.EOF {
			return nil, 0, io.EOF // clean record boundary
		}
		return nil, 0, fmt.Errorf("%w: truncated length header", errTorn)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: implausible record length %d", errTorn, n)
	}
	body := make([]byte, n+4) // payload + CRC trailer
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated record body", errTorn)
	}
	payload, trailer := body[:n], body[n:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(trailer) {
		return nil, 0, fmt.Errorf("%w: record checksum mismatch", errTorn)
	}
	rec, err := parseRecord(payload)
	return rec, int64(len(hdr) + len(body)), err
}

// parseRecord decodes one payload, treating it as hostile: every length
// and count is checked against the bytes left before anything is
// allocated, and trailing bytes are an error. Digests alias payload.
func parseRecord(payload []byte) (*record, error) {
	r := recordReader{b: payload}
	rec := &record{Op: r.byte(), Seq: r.uvarint()}
	switch rec.Op {
	case opCommit:
		rec.Table, rec.Snapshot, rec.Digest = r.string(), r.string(), r.bytes()
	case opDelete:
		rec.Table = r.string()
	case opJob:
		rec.Snapshot, rec.Digest = r.string(), r.bytes()
		if r.err == nil {
			var err error
			if rec.Job, err = wire.ParseJobInfo(r.b); err != nil {
				r.fail("job: %v", err)
			}
			r.b = nil
		}
	case opJobDelete:
		rec.Job.ID = r.string()
	case opLedger:
		// A class takes at least its count byte, a row at least two.
		if n := r.count(1); n > 0 {
			rec.Merges = make([][]leakage.RowRef, n)
			for i := range rec.Merges {
				if m := r.count(2); m > 0 {
					class := make([]leakage.RowRef, m)
					for j := range class {
						class[j] = leakage.RowRef{Table: r.string(), Row: r.row()}
					}
					rec.Merges[i] = class
				}
			}
		}
	default:
		r.fail("unknown op %d", rec.Op)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return rec, nil
}

// recordReader reads one payload. The first malformed field sets err and
// empties b, so every later read returns a zero value and loops over
// counts read after it end at once.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errBadRecord, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

func (r *recordReader) byte() uint8 {
	if len(r.b) == 0 {
		r.fail("empty payload")
		return 0
	}
	x := r.b[0]
	r.b = r.b[1:]
	return x
}

// uvarint reads a minimally encoded uvarint.
func (r *recordReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("truncated, overlong or non-minimal uvarint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// bytes reads a byte string in place, capped at its own length; an empty
// one is nil.
func (r *recordReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("field of %d bytes past the end (%d left)", n, len(r.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *recordReader) string() string { return string(r.bytes()) }

// count reads a list length and checks it against the bytes left at min
// bytes per element.
func (r *recordReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("%d elements cannot fit in %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// row reads a row index, bounded like the wire's row ids.
func (r *recordReader) row() int {
	x := r.uvarint()
	if x > math.MaxInt32 {
		r.fail("row %d out of range", x)
		return 0
	}
	return int(x)
}

// ledgerRecords packs merges into opLedger records of at most
// maxRecordSize/2 bytes each; a class larger than that gets a record of
// its own.
func ledgerRecords(merges [][]leakage.RowRef) []*record {
	var out []*record
	start, size := 0, 0
	for i, class := range merges {
		n := binary.MaxVarintLen64
		for _, ref := range class {
			n += 2*binary.MaxVarintLen64 + len(ref.Table)
		}
		if i > start && size+n > maxRecordSize/2 {
			out = append(out, &record{Op: opLedger, Merges: merges[start:i]})
			start, size = i, 0
		}
		size += n
	}
	if start < len(merges) {
		out = append(out, &record{Op: opLedger, Merges: merges[start:]})
	}
	return out
}

// checkMagic reads the manifest's format header. An empty manifest, or
// one torn while its header was being written, is a fresh store: the
// header is (re)written, and torn reports whether part of one was there.
// Any other manifest without the header is refused with errOldFormat,
// before anything in the directory is changed.
func checkMagic(mf *os.File) (torn bool, err error) {
	head := make([]byte, len(manifestMagic))
	n, err := io.ReadFull(mf, head)
	switch {
	case err == nil && string(head) == manifestMagic:
		return false, nil
	case err != nil && err != io.ErrUnexpectedEOF && err != io.EOF:
		return false, fmt.Errorf("store: reading manifest: %w", err)
	case !bytes.HasPrefix([]byte(manifestMagic), head[:n]):
		return false, fmt.Errorf("store: %s: %w", mf.Name(), errOldFormat)
	}
	err = mf.Truncate(0)
	if err == nil {
		_, err = mf.WriteAt([]byte(manifestMagic), 0)
	}
	if err == nil {
		err = mf.Sync()
	}
	if err != nil {
		return false, fmt.Errorf("store: creating manifest: %w", err)
	}
	return n > 0, nil
}

// errOldFormat is Open's refusal of a manifest without manifestMagic.
var errOldFormat = errors.New("not a manifest of this build (no format header): earlier builds wrote gob records, which this build does not read; move the data directory aside and re-upload the tables")
