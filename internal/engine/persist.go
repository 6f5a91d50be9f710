package engine

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/securejoin"
	"repro/internal/sse"
	"repro/internal/wire"
)

// Persistence for encrypted tables. A table has one binary image, its
// protocol v5 upload sequence: UploadChunks splits a table into the
// chunks a client sends, DecodeUploadRows and CommitUpload turn them
// back into a table on the server, and a snapshot is the same chunks
// written as wire.Request{Upload} frames with request ID 0. Only public
// values are stored, so a snapshot is safe on untrusted storage, and
// LoadTable parses it as hostile input, like a frame from a peer.

// frames is a snapshot's byte stream: SaveTable only writes it and
// LoadTable only reads it.
type frames struct {
	io.Reader
	io.Writer
}

// UploadChunks splits an encrypted table into its staged upload
// sequence. The index, the shard annotations and the distinct-value
// count ride the Commit chunk only — the request that installs it.
func UploadChunks(t *EncryptedTable) ([]*wire.UploadRequest, error) {
	rows := make([]wire.UploadRow, len(t.Rows))
	charges := make([]int, len(t.Rows))
	for i, r := range t.Rows {
		jc, err := r.Join.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("engine: encoding row %d: %w", i, err)
		}
		rows[i] = wire.UploadRow{JoinCiphertext: jc, Payload: r.Payload}
		charges[i] = len(jc) + len(r.Payload) + wire.RowCharge
	}
	var index []byte
	if t.Index != nil {
		var err error
		if index, err = t.Index.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("engine: encoding index: %w", err)
		}
	}
	counts := splitRows(charges, len(index))
	chunks := make([]*wire.UploadRequest, len(counts))
	for i, n := range counts {
		chunks[i] = &wire.UploadRequest{Table: t.Name, Rows: rows[:n:n], Append: i > 0}
		rows = rows[n:]
	}
	last := chunks[len(chunks)-1]
	last.Commit = true
	last.Index, last.Shard, last.ShardCount, last.NDV = index, t.Shard, t.ShardCount, t.NDV
	return chunks, nil
}

// splitRows returns the row count of each chunk, given each row's
// charge and the index's length. Rows fill a chunk (at least one each)
// while their charges fit wire.FrameByteBudget; an index that would not
// fit beside the last row chunk gets an empty Commit chunk of its own
// (one larger than a frame still fails, loudly, at Send). LoadTable
// accepts only this split, so a table has exactly one image.
func splitRows(charges []int, indexLen int) []int {
	counts := []int{0}
	bytes := 0
	for _, c := range charges {
		if counts[len(counts)-1] > 0 && bytes+c > wire.FrameByteBudget {
			counts = append(counts, 0)
			bytes = 0
		}
		counts[len(counts)-1]++
		bytes += c
	}
	if indexLen > 0 && bytes+indexLen > wire.FrameByteBudget {
		counts = append(counts, 0)
	}
	return counts
}

// DecodeUploadRows decodes one upload chunk's rows, validating every
// ciphertext group element. The rows' byte strings alias the frame
// they arrived in; the table keeps only the payloads, copied into one
// block so it does not pin the frame's ciphertext bytes.
func DecodeUploadRows(up []wire.UploadRow) ([]*EncryptedRow, error) {
	size := 0
	for _, r := range up {
		size += len(r.Payload)
	}
	payloads := make([]byte, 0, size)
	rows := make([]*EncryptedRow, len(up))
	for i, r := range up {
		var ct securejoin.RowCiphertext
		if err := ct.UnmarshalBinary(r.JoinCiphertext); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		var payload []byte
		if len(r.Payload) > 0 {
			start := len(payloads)
			payloads = append(payloads, r.Payload...)
			payload = payloads[start:len(payloads):len(payloads)]
		}
		rows[i] = &EncryptedRow{Join: &ct, Payload: payload}
	}
	return rows, nil
}

// CommitUpload assembles the table a Commit chunk installs: the rows
// staged by the whole sequence, and the Commit chunk's index, shard
// annotations and distinct-value count; the rows share one dimension.
func CommitUpload(up *wire.UploadRequest, rows []*EncryptedRow) (*EncryptedTable, error) {
	t := &EncryptedTable{Name: up.Table, Rows: rows, Shard: up.Shard, ShardCount: up.ShardCount, NDV: up.NDV}
	for i, r := range rows {
		if d := len(r.Join.C.Elems); d != t.TokenDim(0) {
			return nil, fmt.Errorf("row %d has dimension %d, row 0 has %d", i, d, t.TokenDim(0))
		}
	}
	if len(up.Index) > 0 {
		idx := &sse.Index{}
		if err := idx.UnmarshalBinary(up.Index); err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		t.Index = idx
	}
	return t, nil
}

// SaveTable writes a table's snapshot: its UploadChunks as
// wire.Request{Upload} frames with ID 0. A table always writes the
// same bytes.
func SaveTable(w io.Writer, t *EncryptedTable) error {
	chunks, err := UploadChunks(t)
	if err != nil {
		return err
	}
	c := wire.NewConn(frames{Writer: w})
	for _, up := range chunks {
		if err := c.Send(&wire.Request{Upload: up}); err != nil {
			return fmt.Errorf("engine: writing table: %w", err)
		}
	}
	return nil
}

// LoadTable reads a snapshot written by SaveTable, validating every
// group element and the index. It holds the frames to the server's
// staging rules — the first chunk alone has Append false, every chunk
// names the same table, the one Commit chunk is the last frame, and no
// frame sets another field — and to splitRows. Breaking one is an error.
func LoadTable(r io.Reader) (*EncryptedTable, error) {
	c := wire.NewConn(frames{Reader: r})
	var (
		rows    []*EncryptedRow
		charges []int
		counts  []int
		name    string
	)
	for i := 0; ; i++ {
		var req wire.Request
		err := c.Recv(&req)
		up := req.Upload
		switch {
		case err == io.EOF:
			err = errors.New("snapshot ends before its Commit chunk")
		case err != nil && i == 0:
			// Snapshots written before they were upload frames (gob
			// images) end up here.
			err = fmt.Errorf("%w; not an upload snapshot, re-upload the table", err)
		case err != nil:
		case up == nil || req != (wire.Request{Upload: up}):
			err = errors.New("not a bare upload request")
		case up.Append != (i > 0):
			err = fmt.Errorf("Append is %v", up.Append)
		case i > 0 && up.Table != name:
			err = fmt.Errorf("names table %q, not %q", up.Table, name)
		case !up.Commit && (len(up.Index) > 0 || up.Shard != 0 || up.ShardCount != 0 || up.NDV != 0):
			err = errors.New("carries Commit fields before the Commit chunk")
		}
		var chunk []*EncryptedRow
		if err == nil {
			chunk, err = DecodeUploadRows(up.Rows)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: decoding table: chunk %d: %w", i, err)
		}
		name = up.Table
		rows = append(rows, chunk...)
		for _, r := range up.Rows {
			charges = append(charges, len(r.JoinCiphertext)+len(r.Payload)+wire.RowCharge)
		}
		counts = append(counts, len(up.Rows))
		if !up.Commit {
			continue
		}
		if want := splitRows(charges, len(up.Index)); !slices.Equal(counts, want) {
			return nil, fmt.Errorf("engine: decoding table: chunks hold %v rows, not the %v UploadChunks writes", counts, want)
		}
		if err := c.Recv(&req); err != io.EOF {
			return nil, errors.New("engine: decoding table: data after the Commit chunk")
		}
		t, err := CommitUpload(up, rows)
		if err != nil {
			return nil, fmt.Errorf("engine: decoding table: %w", err)
		}
		return t, nil
	}
}
