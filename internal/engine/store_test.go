package engine

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/securejoin"
)

// fakeStore records RegisterTable/DropTable persistence calls and can
// inject failures, pinning the persist-before-install contract without
// touching a disk.
type fakeStore struct {
	commits    []string
	deletes    []string
	failCommit error
	failDelete error
}

func (f *fakeStore) Commit(t *EncryptedTable) error {
	if f.failCommit != nil {
		return f.failCommit
	}
	f.commits = append(f.commits, t.Name)
	return nil
}

func (f *fakeStore) Delete(name string) error {
	if f.failDelete != nil {
		return f.failDelete
	}
	f.deletes = append(f.deletes, name)
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

// TestDropTable: deletion persists first and unknown names fail without
// touching the store.
func TestDropTable(t *testing.T) {
	client := storeTestClient(t)
	server := NewServer()
	fs := &fakeStore{}
	server.SetStore(fs)
	tab, err := client.EncryptTable("T", []PlainRow{{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("p")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := server.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	if len(fs.deletes) != 1 || fs.deletes[0] != "T" {
		t.Fatalf("store deletes = %v, want [T]", fs.deletes)
	}
	if _, err := server.Table("T"); err == nil {
		t.Fatal("dropped table still served")
	}
	if err := server.DropTable("T"); err == nil {
		t.Fatal("dropping unknown table succeeded")
	}
	if len(fs.deletes) != 1 {
		t.Fatalf("unknown-table drop reached the store: %v", fs.deletes)
	}

	fs.failDelete = errors.New("manifest gone")
	if err := server.RegisterTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := server.DropTable("T"); err == nil {
		t.Fatal("DropTable succeeded despite store failure")
	}
	if _, err := server.Table("T"); err != nil {
		t.Fatal("failed drop removed the in-memory table")
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

// TestLeakageCounters: counters track per-table revealed pairs and can
// be checkpointed and reseeded across a simulated restart.
func TestLeakageCounters(t *testing.T) {
	client := storeTestClient(t)
	server := NewServer()
	teams, employees := exampleTables()
	encT, err := client.EncryptTable("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTable("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	server.Upload(encT)
	server.Upload(encE)

	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	counters := server.LeakageCounters()
	var wantTeams, wantEmployees uint64
	for p := range trace.Pairs {
		if p.A.Table == "Teams" || p.B.Table == "Teams" {
			wantTeams++
		}
		if p.A.Table == "Employees" || p.B.Table == "Employees" {
			wantEmployees++
		}
	}
	if trace.Pairs.Len() == 0 {
		t.Fatal("query revealed no pairs; counters untestable")
	}
	if counters["Teams"] != wantTeams || counters["Employees"] != wantEmployees {
		t.Fatalf("counters = %v, want Teams=%d Employees=%d", counters, wantTeams, wantEmployees)
	}

	// "Restart": a fresh server seeded with the checkpoint reports the
	// same counters and keeps incrementing from them.
	restarted := NewServer()
	restarted.SeedLeakageCounters(counters)
	restarted.Upload(encT)
	restarted.Upload(encE)
	q2, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := join(restarted, "Teams", "Employees", JoinSpec{Query: q2}); err != nil {
		t.Fatal(err)
	}
	after := restarted.LeakageCounters()
	if after["Teams"] != 2*wantTeams || after["Employees"] != 2*wantEmployees {
		t.Fatalf("seeded counters after identical query = %v, want Teams=%d Employees=%d",
			after, 2*wantTeams, 2*wantEmployees)
	}
}
