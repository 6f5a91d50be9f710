package server

import (
	"bytes"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
)

func startServer(t *testing.T) string {
	t.Helper()
	srv := New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// uploader stores test tables: a Client whole, a Cluster sharded.
type uploader interface {
	Upload(name string, rows []engine.PlainRow) error
	UploadIndexed(name string, rows []engine.PlainRow) error
}

// dialCluster connects a cluster to addrs under c's keys, so it
// queries the tables c uploaded.
func dialCluster(t *testing.T, c *client.Client, addrs ...string) *client.Cluster {
	t.Helper()
	cl, err := client.DialClusterWithKeys(addrs, c.Keys())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// openJoin starts an unfiltered join of tables a and b over cl's
// synchronous transport and returns its result stream undrained.
func openJoin(t *testing.T, cl *client.Cluster, a, b string) sql.StepStream {
	t.Helper()
	q, err := cl.Keys().NewQuery(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cl.Runner().Open(a, b, engine.JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPing(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestUploadAndJoinOverTCP(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)

	teams := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}, Payload: []byte("team-web")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}, Payload: []byte("team-db")},
	}
	employees := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("kaily")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("john")},
	}
	if err := c.Upload("Teams", teams); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("Employees", employees); err != nil {
		t.Fatal(err)
	}

	results, revealed, err := c.JoinWith("Teams", "Employees",
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
		client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("expected 1 result, got %d", len(results))
	}
	if !bytes.Equal(results[0].PayloadA, []byte("team-web")) || !bytes.Equal(results[0].PayloadB, []byte("kaily")) {
		t.Fatalf("payloads = %q, %q", results[0].PayloadA, results[0].PayloadB)
	}
	if revealed != 1 {
		t.Fatalf("revealed pairs = %d, want 1", revealed)
	}
}

func TestJoinUnknownTableOverTCP(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	if _, _, err := c.JoinWith("A", "B", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{}); err == nil {
		t.Fatal("join against unknown tables should fail")
	}
}

func TestMultipleClientsIsolatedKeys(t *testing.T) {
	addr := startServer(t)
	c1 := dial(t, addr)
	c2 := dial(t, addr)

	rows := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("p")},
	}
	if err := c1.Upload("T1", rows); err != nil {
		t.Fatal(err)
	}
	if err := c2.Upload("T2", rows); err != nil {
		t.Fatal(err)
	}
	// A join across tables encrypted under DIFFERENT master keys finds
	// nothing: D values never collide across msk instances.
	results, _, err := c1.JoinWith("T1", "T2",
		securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("cross-client join matched %d rows; keys leaked", len(results))
	}
}

func TestSequentialQueriesOverOneConnection(t *testing.T) {
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
	for i := 0; i < 3; i++ {
		results, _, err := c.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(results) != 1 {
			t.Fatalf("query %d returned %d rows", i, len(results))
		}
	}
}
