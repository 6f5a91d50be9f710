package server

import (
	"bytes"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
)

// uploadIndexedTestTables ships the canonical Teams/Employees pair with
// SSE indexes.
func uploadIndexedTestTables(t testing.TB, c uploader) {
	t.Helper()
	teams := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}, Payload: []byte("team-web")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}, Payload: []byte("team-db")},
	}
	employees := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("hans")},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("kaily")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("john")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("sally")},
	}
	if err := c.UploadIndexed("Teams", teams); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadIndexed("Employees", employees); err != nil {
		t.Fatal(err)
	}
}

// TestPrefilteredJoinOverTCP runs one query three ways — full scan over
// the wire, prefiltered over the wire, and prefiltered through the
// library path against the same engine — and requires identical result
// rows and revealed-pair counts from all three.
func TestPrefilteredJoinOverTCP(t *testing.T) {
	srv := New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	uploadIndexedTestTables(t, c)

	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}

	full, fullRevealed, err := c.JoinWith("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pre, preRevealed, err := c.JoinWith("Teams", "Employees", selA, selB,
		client.JoinOpts{Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}

	// Library path against the very same server engine, with the same
	// key material the wire client used.
	pq, err := c.Keys().NewPrefilterQuery(selA, selB)
	if err != nil {
		t.Fatal(err)
	}
	libStream, err := srv.Engine().OpenJoin("Teams", "Employees", engine.JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	lib, libTrace, err := libStream.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if len(pre) != len(lib) || len(pre) != len(full) {
		t.Fatalf("result rows: wire-prefiltered %d, wire-full %d, library %d",
			len(pre), len(full), len(lib))
	}
	for i := range pre {
		if pre[i].RowA != lib[i].RowA || pre[i].RowB != lib[i].RowB {
			t.Fatalf("row %d: wire (%d,%d) vs library (%d,%d)",
				i, pre[i].RowA, pre[i].RowB, lib[i].RowA, lib[i].RowB)
		}
		libPayloadA, err := c.Keys().OpenPayload(lib[i].PayloadA)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pre[i].PayloadA, libPayloadA) {
			t.Fatalf("row %d payload A differs", i)
		}
	}
	if preRevealed != libTrace.Pairs().Len() {
		t.Fatalf("revealed pairs: wire-prefiltered %d, library %d", preRevealed, libTrace.Pairs().Len())
	}
	if preRevealed != fullRevealed {
		t.Fatalf("revealed pairs: prefiltered %d, full scan %d", preRevealed, fullRevealed)
	}
	if len(pre) != 1 || !bytes.Equal(pre[0].PayloadA, []byte("team-web")) || !bytes.Equal(pre[0].PayloadB, []byte("kaily")) {
		t.Fatalf("unexpected prefiltered result %v", pre)
	}
}

// TestPrefilteredJoinUnindexedTableOverTCP: a prefiltered request
// against tables uploaded without indexes falls back to a full scan
// instead of failing.
func TestPrefilteredJoinUnindexedTableOverTCP(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	rows := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("x")},
	}
	if err := c.Upload("L", rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("R", rows); err != nil {
		t.Fatal(err)
	}
	results, revealed, err := c.JoinWith("L", "R",
		securejoin.Selection{0: [][]byte{[]byte("a")}},
		securejoin.Selection{},
		client.JoinOpts{Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || revealed != 1 {
		t.Fatalf("fallback join: %d rows, %d pairs; want 1, 1", len(results), revealed)
	}
}
