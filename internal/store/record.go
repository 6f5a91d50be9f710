package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/layout"
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
// and each payload is a uvarint op, a uvarint seq and that op's fields,
// written as the wire codec writes them (minimal uvarints, strings and
// byte strings behind a uvarint length):
//
//	opCommit     table, snapshot name, snapshot SHA-256
//	opJob        spool name (empty for a failed job), spool SHA-256,
//	             then the job's wire.JobInfo image (wire.AppendJobInfo)
//	             to the end of the payload
//	opJobDelete  job ID
//	opLedger     uvarint class count; per class a uvarint row count,
//	             then per row its table name and uvarint row index
//
// parseRecord reads a payload with layout.Reader, the reader of every
// frame and row record, and treats it as hostile. Every value has one
// encoding, so a payload it accepts re-encodes to the same bytes.
// DESIGN.md has the same tables.

// manifestMagic opens every manifest this format writes. A manifest
// without it is one of the gob-record format earlier builds wrote, and
// Open refuses it before touching the directory.
const manifestMagic = "SJ MANIFEST 2\n"

// Record operations, the first uvarint of a payload; each is one byte.
// Values are part of the on-disk format. 2 was a table deletion, which
// no build writes any more; it stays reserved and parses as malformed.
const (
	opCommit    = 1 // table version committed
	opJob       = 3 // finished job committed: its spool and JobInfo
	opJobDelete = 4 // job reaped
	opLedger    = 5 // leakage-ledger delta: the merges one join added
)

// record is one manifest entry; the layout above says which fields each
// op carries.
type record struct {
	Op       uint8
	Seq      uint64
	Table    string             // opCommit
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
	dst = binary.AppendUvarint(dst, uint64(rec.Op))
	dst = binary.AppendUvarint(dst, rec.Seq)
	switch rec.Op {
	case opCommit:
		dst = layout.AppendBytes(dst, rec.Table)
		dst = layout.AppendBytes(dst, rec.Snapshot)
		dst = layout.AppendBytes(dst, rec.Digest)
	case opJob:
		dst = layout.AppendBytes(dst, rec.Snapshot)
		dst = layout.AppendBytes(dst, rec.Digest)
		dst = wire.AppendJobInfo(dst, &rec.Job)
	case opJobDelete:
		dst = layout.AppendBytes(dst, rec.Job.ID)
	case opLedger:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Merges)))
		for _, class := range rec.Merges {
			dst = binary.AppendUvarint(dst, uint64(len(class)))
			for _, ref := range class {
				dst = layout.AppendBytes(dst, ref.Table)
				dst = binary.AppendUvarint(dst, uint64(ref.Row))
			}
		}
	}
	return dst
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
	r := layout.NewReader(payload, errBadRecord)
	op, seq := r.Uvarint(), r.Uvarint()
	rec := &record{Op: uint8(op), Seq: seq}
	switch op {
	case opCommit:
		rec.Table, rec.Snapshot, rec.Digest = r.String(), r.String(), r.Bytes()
	case opJob:
		rec.Snapshot, rec.Digest, rec.Job = r.String(), r.Bytes(), wire.ReadJobInfo(&r)
	case opJobDelete:
		rec.Job.ID = r.String()
	case opLedger:
		// A class takes at least its count byte, a row at least two.
		rec.Merges = make([][]leakage.RowRef, r.Count("classes", 1))
		for i := range rec.Merges {
			class := make([]leakage.RowRef, r.Count("rows", 2))
			for j := range class {
				class[j] = leakage.RowRef{Table: r.String(), Row: r.Row()}
			}
			rec.Merges[i] = class
		}
	default:
		r.Fail("unknown op %d", op)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rec, nil
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
