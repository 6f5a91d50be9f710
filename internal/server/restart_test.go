package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/store"
	"repro/internal/wire"
)

// manifestRecords counts the framed records in srv's data-dir
// manifest: a 4-byte big-endian length, the payload, a 4-byte CRC each.
func manifestRecords(t *testing.T, srv *Server) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(srv.store.Dir(), "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	// Records follow the one-line format header.
	_, b, ok := bytes.Cut(b, []byte("\n"))
	if !ok {
		t.Fatal("manifest has no format header")
	}
	n := 0
	for len(b) >= 4 {
		size := 4 + int(binary.BigEndian.Uint32(b)) + 4
		if size > len(b) {
			t.Fatalf("manifest ends mid-record after %d records", n)
		}
		b = b[size:]
		n++
	}
	if len(b) != 0 {
		t.Fatalf("manifest ends mid-header after %d records", n)
	}
	return n
}

// startDurableServer opens (or reopens) the data dir and serves a
// store-backed server on a fresh port; configure runs before Listen.
func startDurableServer(t *testing.T, dir string, configure ...func(*Server)) (*Server, string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := st.Damaged(); len(d) != 0 {
		t.Fatalf("data dir damaged: %v", d)
	}
	srv := NewWithStore(nil, st)
	for _, f := range configure {
		f(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// TestRestartRecoversTablesAndJoins is the end-to-end durability proof:
// two indexed tables uploaded over TCP, a prefiltered join executed,
// the server stopped, a brand-new server started on the same -data dir
// with a fresh connection — and the same join must return identical
// rows (payload bytes included) and the same revealed-pair (sigma)
// count. The leakage ledger is carried across too: the closure is the
// same before and after, and repeating the join adds nothing to it or
// to the manifest.
func TestRestartRecoversTablesAndJoins(t *testing.T) {
	dir := t.TempDir()
	srv1, addr1 := startDurableServer(t, dir)
	c1, err := client.Dial(addr1, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := c1.Keys() // survives the restart like a real data owner's key file
	uploadIndexedTestTables(t, c1)

	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}
	opts := client.JoinOpts{Prefilter: true}
	before, beforeRevealed, err := c1.JoinWith("Teams", "Employees", selA, selB, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, closureBefore := srv1.Engine().ObservedLeakage()
	if closureBefore.Len() == 0 {
		t.Fatal("join left no leakage to persist")
	}

	c1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: a new process image — new store handle, new engine,
	// new listener — with nothing carried over but the directory.
	srv2, addr2 := startDurableServer(t, dir)
	recordsAtStart := manifestRecords(t, srv2)
	if _, got := srv2.Engine().ObservedLeakage(); !got.Equal(closureBefore) {
		t.Fatalf("recovered closure %v, want %v", got.Sorted(), closureBefore.Sorted())
	}
	if got := srv2.health().RevealedPairs; got != uint64(closureBefore.Len()) {
		t.Fatalf("health reports %d revealed pairs after restart, want %d", got, closureBefore.Len())
	}
	c2, err := client.DialWithKeys(addr2, keys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })

	after, afterRevealed, err := c2.JoinWith("Teams", "Employees", selA, selB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if afterRevealed != beforeRevealed {
		t.Fatalf("revealed pairs across restart: %d, was %d", afterRevealed, beforeRevealed)
	}
	if len(after) != len(before) {
		t.Fatalf("result rows across restart: %d, was %d", len(after), len(before))
	}
	for i := range after {
		if after[i].RowA != before[i].RowA || after[i].RowB != before[i].RowB {
			t.Fatalf("row %d: (%d,%d) after restart, was (%d,%d)",
				i, after[i].RowA, after[i].RowB, before[i].RowA, before[i].RowB)
		}
		if !bytes.Equal(after[i].PayloadA, before[i].PayloadA) ||
			!bytes.Equal(after[i].PayloadB, before[i].PayloadB) {
			t.Fatalf("row %d: payload bytes differ across restart", i)
		}
	}
	// Also a full scan, exercising the join path that ignores the
	// recovered SSE index, for the non-prefiltered sigma.
	fullAfter, fullRevealed, err := c2.JoinWith("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fullAfter) != len(before) || fullRevealed != beforeRevealed {
		t.Fatalf("full scan after restart: %d rows / %d pairs, want %d / %d",
			len(fullAfter), fullRevealed, len(before), beforeRevealed)
	}
	// The repeated joins taught the server nothing: same closure, and —
	// once Close has waited for the workers — not one manifest record.
	if _, got := srv2.Engine().ObservedLeakage(); !got.Equal(closureBefore) {
		t.Fatalf("closure after repeating the join %v, want %v", got.Sorted(), closureBefore.Sorted())
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := manifestRecords(t, srv2); got != recordsAtStart {
		t.Fatalf("repeating the join grew the manifest from %d to %d records", recordsAtStart, got)
	}
}

// TestRestartAfterOverwrite: the restart serves the *latest* committed
// version of a re-uploaded table — never the replaced rows or their
// stale SSE index.
func TestRestartAfterOverwrite(t *testing.T) {
	dir := t.TempDir()
	srv1, addr1 := startDurableServer(t, dir)
	c1, err := client.Dial(addr1, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := c1.Keys()

	v1 := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("red")}, Payload: []byte("v1-red")},
		{JoinValue: []byte("z"), Attrs: [][]byte{[]byte("blue")}, Payload: []byte("v1-blue")},
	}
	// v2 moves "red" to row 1: a stale v1 index would pick row 0,
	// whose v2 join value no longer matches.
	v2 := []engine.PlainRow{
		{JoinValue: []byte("z"), Attrs: [][]byte{[]byte("blue")}, Payload: []byte("v2-blue")},
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("red")}, Payload: []byte("v2-red")},
	}
	other := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("o")}, Payload: []byte("other")},
	}
	if err := c1.UploadIndexed("T", v1); err != nil {
		t.Fatal(err)
	}
	if err := c1.UploadIndexed("O", other); err != nil {
		t.Fatal(err)
	}
	if err := c1.UploadIndexed("T", v2); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr2 := startDurableServer(t, dir)
	c2, err := client.DialWithKeys(addr2, keys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	rows, _, err := c2.JoinWith("T", "O",
		securejoin.Selection{0: [][]byte{[]byte("red")}}, securejoin.Selection{},
		client.JoinOpts{Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].RowA != 1 || !bytes.Equal(rows[0].PayloadA, []byte("v2-red")) {
		t.Fatalf("join after overwrite+restart = %+v, want one row (1, v2-red)", rows)
	}
}

// TestAbandonedUploadLeavesNoResidue: a connection that dies after
// staging chunks but before the Commit chunk must leave nothing behind
// — no table in the engine, nothing durable in the data dir, and
// nothing for the next server started on that dir to recover.
func TestAbandonedUploadLeavesNoResidue(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurableServer(t, dir)

	// A real ciphertext so the chunk passes validation and is staged.
	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := keys.EncryptTable("Ghost", []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("p")},
	})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tab.Rows[0].Join.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	if err := wire.ClientHandshake(wc); err != nil {
		t.Fatal(err)
	}
	req := &wire.Request{ID: 1, Upload: &wire.UploadRequest{
		Table: "Ghost",
		Rows:  []wire.UploadRow{{JoinCiphertext: ct, Payload: tab.Rows[0].Payload}},
		// Commit deliberately false: the sequence is left half-finished.
	}}
	if err := wc.Send(req); err != nil {
		t.Fatal(err)
	}
	var ack wire.Frame
	if err := wc.Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Ok {
		t.Fatalf("staging chunk not acked: %+v", ack)
	}
	conn.Close() // the "crash": connection dies before Commit

	// The staged rows were never committed, so the table must not
	// exist once the server has torn the connection down: its read loop
	// has exited and dropped the staging with it.
	waitFor(t, "the abandoned connection to close", func() bool {
		return srv.met.ActiveConns.Value() == 0
	})
	if _, err := srv.Engine().Table("Ghost"); err == nil {
		t.Fatal("abandoned upload became a visible table")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// No durable residue: no snapshots, and a fresh recovery finds an
	// empty store.
	ents, err := os.ReadDir(filepath.Join(dir, "tables"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("abandoned upload left %d files in the data dir", len(ents))
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := len(st.Tables()); n != 0 {
		t.Fatalf("recovery after abandoned upload found %d tables", n)
	}
	if d := st.Damaged(); len(d) != 0 {
		t.Fatalf("recovery after abandoned upload reported damage: %v", d)
	}
}
