package server

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/store"
	"repro/internal/wire"
)

// spoolJob commits one done job of rows, ID "j", to a new data dir the
// way a finished job is spooled, and returns the dir.
func spoolJob(t testing.TB, rows []wire.JoinedRow) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitJob(wire.JobInfo{ID: "j", State: wire.JobDone, TableA: "A", TableB: "B"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// forgeSpool replaces the one job spool in a closed data dir with rec.
// With matchDigest it also rewrites the digest the job's manifest
// record holds, and that record's CRC, to match: a spool whose every
// checksum holds but whose record need not parse.
func forgeSpool(t *testing.T, dir string, rec []byte, matchDigest bool) {
	t.Helper()
	spools, err := filepath.Glob(filepath.Join(dir, "jobs", "*.spool"))
	if err != nil || len(spools) != 1 {
		t.Fatalf("spools %v (%v), want one", spools, err)
	}
	old, err := os.ReadFile(spools[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spools[0], rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if !matchDigest {
		return
	}
	oldSum, newSum := sha256.Sum256(old), sha256.Sum256(rec)
	path := filepath.Join(dir, "MANIFEST")
	m, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(m, oldSum[:])
	// Records (length, payload, CRC-32C) follow the one-line header.
	for off := bytes.IndexByte(m, '\n') + 1; at > 0 && off+4 <= len(m); {
		n := int(binary.BigEndian.Uint32(m[off:]))
		payload := m[off+4 : off+4+n]
		if at < off+4+n {
			copy(m[at:], newSum[:])
			binary.BigEndian.PutUint32(m[off+4+n:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(path, m, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += 4 + n + 4
	}
	t.Fatal("no manifest record holds the spool's digest")
}

// attachFrames attaches to job "j" over c as request 1 and returns the
// batch frames and the terminal frame it is answered with. A Ping as
// request 2 follows the terminal frame: no frame of the attach may come
// between the two.
func attachFrames(t *testing.T, c *wire.Conn) (batches []*wire.Frame, last *wire.Frame) {
	t.Helper()
	recv := func(id uint64) *wire.Frame {
		f := new(wire.Frame)
		if err := c.Recv(f); err != nil {
			t.Fatal(err)
		}
		if f.ID != id {
			t.Fatalf("frame %+v, want one for request %d", f, id)
		}
		return f
	}
	if err := c.Send(&wire.Request{ID: 1, Attach: "j"}); err != nil {
		t.Fatal(err)
	}
	for last = recv(1); last.Batch != nil; last = recv(1) {
		batches = append(batches, last)
	}
	if err := c.Send(&wire.Request{ID: 2, Ping: true}); err != nil {
		t.Fatal(err)
	}
	if ack := recv(2); !ack.Ok {
		t.Fatalf("ping answered %+v", ack)
	}
	return batches, last
}

// TestAttachStreamsSpoolAsStored: a spooled job's rows, key-only ones
// among them, arrive as stored, cut into frames of at most the server's
// batch size, and the frame and batch-byte counters advance by what
// each frame's rows charge.
func TestAttachStreamsSpoolAsStored(t *testing.T) {
	rows := make([]wire.JoinedRow, 7)
	charge := 0
	for i := range rows {
		rows[i] = wire.JoinedRow{RowA: i, RowB: 300 + i, PayloadA: []byte(fmt.Sprintf("payload-%d", i))}
		if i%3 == 0 {
			rows[i].PayloadA = nil // a key-only row
		}
		charge += len(rows[i].PayloadA) + 64
	}
	srv, _ := startDurableServer(t, spoolJob(t, rows), func(s *Server) { s.batch = 3 })
	c := wireConn(t, srv)
	framesOut, batchBytes := srv.met.FramesOut.Value(), srv.met.BatchBytes.Value()
	batches, last := attachFrames(t, c)
	if last.Summary == nil {
		t.Fatalf("attach ended with %+v, want a summary", last)
	}
	var got []wire.JoinedRow
	for i, f := range batches {
		if want := min(3, len(rows)-3*i); len(f.Batch.Rows) != want {
			t.Fatalf("frame %d holds %d rows, want %d", i, len(f.Batch.Rows), want)
		}
		got = append(got, f.Batch.Rows...)
	}
	if len(batches) != 3 || !bytes.Equal(wire.AppendRows(nil, got), wire.AppendRows(nil, rows)) {
		t.Fatalf("%d frames of rows %+v, want 3 of %+v", len(batches), got, rows)
	}
	// Three batches, the summary and the ping's ack.
	if n := srv.met.FramesOut.Value() - framesOut; n != 5 {
		t.Fatalf("frames out advanced by %d, want 5", n)
	}
	if n := srv.met.BatchBytes.Value() - batchBytes; n != uint64(charge) {
		t.Fatalf("batch bytes advanced by %d, want %d", n, charge)
	}
}

// TestAttachRefusesHostileSpool: a spool whose digest matches its
// manifest record but whose row record is malformed, or holds another
// row count than the job's record, costs the attaching client one
// error frame and no batch frame, as a spool failing its digest does.
func TestAttachRefusesHostileSpool(t *testing.T) {
	rows := []wire.JoinedRow{
		{RowA: 0, RowB: 1, PayloadA: []byte("pa"), PayloadB: []byte("pb")},
		{RowA: 2, RowB: 3, PayloadA: []byte("qa")},
	}
	good := wire.AppendRows(nil, rows)
	// good[1] is the first row's RowA, 0: padded, it is 0x80 0x00.
	padded := append([]byte{good[0], 0x80, 0x00}, good[2:]...)
	for _, c := range []struct {
		name        string
		rec         []byte
		matchDigest bool
		want        string
	}{
		{"row-count", wire.AppendRows(nil, append(rows, rows[0])), true, "3 rows, want 2"},
		{"truncated-last-row", good[:len(good)-1], true, "truncated"},
		{"padded-uvarint", padded, true, "non-minimal uvarint"},
		{"trailing-byte", append(bytes.Clone(good), 0), true, "trailing bytes"},
		{"digest-mismatch", append(bytes.Clone(good), 0), false, "checksum mismatch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := spoolJob(t, rows)
			forgeSpool(t, dir, c.rec, c.matchDigest)
			srv, _ := startDurableServer(t, dir)
			batches, last := attachFrames(t, wireConn(t, srv))
			if len(batches) != 0 {
				t.Fatalf("%d batch frames before the error", len(batches))
			}
			if !bytes.Contains([]byte(last.Err), []byte(c.want)) {
				t.Fatalf("attach ended with %+v, want an error saying %q", last, c.want)
			}
		})
	}
}

// TestOpenedPayloadsAreCapped: a client opens each result payload in
// the frame buffer it arrived in, and caps each plaintext at its own
// length, so appending to one opened payload leaves every other intact.
func TestOpenedPayloadsAreCapped(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	plain := func(prefix string, n int) []engine.PlainRow {
		rows := make([]engine.PlainRow, n)
		for i := range rows {
			rows[i] = engine.PlainRow{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("x")}, Payload: []byte(fmt.Sprintf("%s-%d", prefix, i))}
		}
		return rows
	}
	if err := c.Upload("L", plain("left", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("R", plain("right", 3)); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.JoinWith("L", "R", nil, nil, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d rows, want 3", len(got))
	}
	sortResults(got)
	for _, r := range got {
		if cap(r.PayloadA) != len(r.PayloadA) || cap(r.PayloadB) != len(r.PayloadB) {
			t.Fatalf("row (%d,%d): payload caps %d and %d past lengths %d and %d",
				r.RowA, r.RowB, cap(r.PayloadA), cap(r.PayloadB), len(r.PayloadA), len(r.PayloadB))
		}
	}
	for i := range got {
		got[i].PayloadA = append(got[i].PayloadA, bytes.Repeat([]byte{'!'}, 64)...)
		got[i].PayloadB = append(got[i].PayloadB, bytes.Repeat([]byte{'!'}, 64)...)
	}
	for i, r := range got {
		if a, b := string(r.PayloadA[:6]), fmt.Sprintf("right-%d", i); a != "left-0" || string(r.PayloadB[:len(b)]) != b {
			t.Fatalf("row %d after the appends: %q, %q", i, r.PayloadA, r.PayloadB)
		}
	}
}

// BenchmarkAttach is one attach to a spooled job of 1,500 rows, the
// size of the benchmark's job_replay result, over loopback: the spool
// read and checked, framed as stored, and each payload opened by the
// client.
func BenchmarkAttach(b *testing.B) {
	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	plain := make([]engine.PlainRow, 30)
	for i := range plain {
		plain[i] = engine.PlainRow{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("x")}, Payload: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	table, err := keys.EncryptTable("T", plain)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]wire.JoinedRow, 1500)
	for i := range rows {
		rows[i] = wire.JoinedRow{RowA: i % 150, RowB: i / 150,
			PayloadA: table.Rows[i%30].Payload, PayloadB: table.Rows[(i+1)%30].Payload}
	}
	st, err := store.Open(spoolJob(b, rows))
	if err != nil {
		b.Fatal(err)
	}
	srv := NewWithStore(nil, st)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := client.DialWithKeys(addr, keys)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		got, _, err := c.WaitJob("j")
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(rows) {
			b.Fatalf("%d rows, want %d", len(got), len(rows))
		}
	}
}
