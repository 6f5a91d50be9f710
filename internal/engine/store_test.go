package engine

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/securejoin"
)

// fakeStore records RegisterTable persistence calls and can inject
// failures, pinning the persist-before-install contract without
// touching a disk.
type fakeStore struct {
	commits    []string
	failCommit error
}

func (f *fakeStore) Commit(t *EncryptedTable) error {
	if f.failCommit != nil {
		return f.failCommit
	}
	f.commits = append(f.commits, t.Name)
	return nil
}

func storeTestClient(t *testing.T) *Client {
	t.Helper()
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestRegisterTablePersistsBeforeInstall: a table is durable before it
// is queryable, and a persistence failure leaves the in-memory map —
// and any previous version — untouched.
func TestRegisterTablePersistsBeforeInstall(t *testing.T) {
	client := storeTestClient(t)
	server := NewServer()
	fs := &fakeStore{}
	server.SetStore(fs)

	v1, err := client.EncryptTable("T", []PlainRow{{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("v1")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(v1); err != nil {
		t.Fatal(err)
	}
	if len(fs.commits) != 1 || fs.commits[0] != "T" {
		t.Fatalf("store commits = %v, want [T]", fs.commits)
	}
	got, err := server.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if got != v1 {
		t.Fatal("installed table is not the registered one")
	}

	// A failing store must reject the new version and keep serving v1.
	fs.failCommit = errors.New("disk full")
	v2, err := client.EncryptTable("T", []PlainRow{{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("b")}, Payload: []byte("v2")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(v2); err == nil {
		t.Fatal("RegisterTable succeeded despite store failure")
	}
	got, err = server.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if got != v1 {
		t.Fatal("failed registration replaced the in-memory table")
	}
}

// TestRegisterTableWithoutStore: with no store attached RegisterTable
// degrades to a plain in-memory install.
func TestRegisterTableWithoutStore(t *testing.T) {
	client := storeTestClient(t)
	server := NewServer()
	tab, err := client.EncryptTable("T", []PlainRow{{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("p")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(tab); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Table("T"); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterTableOverwriteReplacesIndex pins the overwrite semantics
// the durable store relies on: re-registering a table name atomically
// replaces rows AND SSE index, so a prefiltered query after the
// overwrite resolves candidates against the new index — never a stale
// one matched to old row numbering.
func TestRegisterTableOverwriteReplacesIndex(t *testing.T) {
	client := storeTestClient(t)
	server := NewServer()
	server.SetStore(&fakeStore{})

	// v1: the "red" predicate matches row 0 only.
	v1 := []PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("red")}, Payload: []byte("v1-red")},
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("blue")}, Payload: []byte("v1-blue")},
	}
	// v2 swaps the attribute order: "red" now lives on row 1 with a
	// different join value, so a stale v1 index would select the wrong
	// candidate row and produce v1's result.
	v2 := []PlainRow{
		{JoinValue: []byte("y"), Attrs: [][]byte{[]byte("blue")}, Payload: []byte("v2-blue")},
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("red")}, Payload: []byte("v2-red")},
	}
	other := []PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("m")}, Payload: []byte("other")},
	}

	for name, rows := range map[string][]PlainRow{"T": v1, "O": other} {
		enc, err := client.EncryptTableIndexed(name, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.RegisterTable(enc); err != nil {
			t.Fatal(err)
		}
	}
	encV2, err := client.EncryptTableIndexed("T", v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(encV2); err != nil {
		t.Fatal(err)
	}

	pq, err := client.NewPrefilterQuery(securejoin.Selection{0: [][]byte{[]byte("red")}}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := join(server, "T", "O", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d joined rows, want 1", len(rows))
	}
	if rows[0].RowA != 1 {
		t.Fatalf("candidate row %d, want 1: stale index served after overwrite", rows[0].RowA)
	}
	payload, err := client.OpenPayload(rows[0].PayloadA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, []byte("v2-red")) {
		t.Fatalf("joined payload %q, want v2-red", payload)
	}
}

// TestLedgerCountsClosureOncePerTable: sj_revealed_pairs{table} is the
// closure pairs with an endpoint in the table and ClosurePairs their
// total, both unmoved by a repeated query and both rebuilt by replaying
// the first query's merges into a fresh server.
func TestLedgerCountsClosureOncePerTable(t *testing.T) {
	client := storeTestClient(t)
	teams, employees := exampleTables()
	encT, err := client.EncryptTable("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTable("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	newServer := func() *Server {
		server := NewServer()
		server.Instrument(metrics.NewRegistry())
		register(t, server, encT, encE)
		return server
	}
	// run executes the full join and returns its trace.
	run := func(server *Server) *QueryTrace {
		t.Helper()
		q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := server.OpenJoin("Teams", "Employees", JoinSpec{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		_, trace, err := st.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	gauge := func(server *Server, table string) int {
		return int(server.met.RevealedPairs.With(table).Value())
	}

	server := newServer()
	trace := run(server)
	pairs := trace.Pairs()
	if pairs.Len() == 0 || len(trace.Merges) == 0 {
		t.Fatal("query revealed no pairs; the ledger is untestable")
	}
	want := map[string]int{}
	for p := range pairs {
		want[p.A.Table]++
		if p.B.Table != p.A.Table {
			want[p.B.Table]++
		}
	}
	check := func(server *Server, when string) {
		t.Helper()
		if got := server.ClosurePairs(); got != pairs.Len() {
			t.Fatalf("%s: ClosurePairs = %d, want %d", when, got, pairs.Len())
		}
		for table, n := range want {
			if got := gauge(server, table); got != n {
				t.Fatalf("%s: sj_revealed_pairs{%s} = %d, want %d", when, table, got, n)
			}
		}
	}
	check(server, "after one query")
	if again := run(server); len(again.Merges) != 0 {
		t.Fatalf("the repeated query added %d merges", len(again.Merges))
	}
	check(server, "after the same query again")

	restarted := newServer()
	restarted.AddLeakage(trace.Merges)
	check(restarted, "after replaying the merges")
	if again := run(restarted); len(again.Merges) != 0 {
		t.Fatalf("the repeated query added %d merges to the restored ledger", len(again.Merges))
	}
	check(restarted, "after the same query on the restored ledger")
}
