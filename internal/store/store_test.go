package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/securejoin"
)

func newTestClient(t testing.TB) *engine.Client {
	t.Helper()
	c, err := engine.NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encTable builds an encrypted table with one row per payload; row i
// joins on "k<i>" and carries a single attribute "a<i>".
func encTable(t testing.TB, c *engine.Client, name string, indexed bool, payloads ...string) *engine.EncryptedTable {
	t.Helper()
	rows := make([]engine.PlainRow, len(payloads))
	for i, p := range payloads {
		rows[i] = engine.PlainRow{
			JoinValue: []byte(fmt.Sprintf("k%d", i)),
			Attrs:     [][]byte{[]byte(fmt.Sprintf("a%d", i))},
			Payload:   []byte(p),
		}
	}
	var (
		tab *engine.EncryptedTable
		err error
	)
	if indexed {
		tab, err = c.EncryptTableIndexed(name, rows)
	} else {
		tab, err = c.EncryptTable(name, rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// recordCount reports the number of framed records currently in the
// manifest (replayed at Open plus appended since).
func recordCount(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

func mustOpen(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustCommit(t testing.TB, s *Store, tab *engine.EncryptedTable) {
	t.Helper()
	if err := s.Commit(tab); err != nil {
		t.Fatal(err)
	}
}

// tableByName finds one recovered table or fails.
func tableByName(t testing.TB, s *Store, name string) *engine.EncryptedTable {
	t.Helper()
	for _, tab := range s.Tables() {
		if tab.Name == name {
			return tab
		}
	}
	t.Fatalf("table %q not in store (have %d tables)", name, len(s.Tables()))
	return nil
}

// sameTable compares the server-visible content of two table versions:
// row count, the exact sealed payload bytes, and index presence.
func sameTable(t testing.TB, got, want *engine.EncryptedTable) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("table name %q, want %q", got.Name, want.Name)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("table %q: %d rows, want %d", got.Name, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !bytes.Equal(got.Rows[i].Payload, want.Rows[i].Payload) {
			t.Fatalf("table %q row %d: payload differs", got.Name, i)
		}
	}
	if (got.Index != nil) != (want.Index != nil) {
		t.Fatalf("table %q: index presence %v, want %v", got.Name, got.Index != nil, want.Index != nil)
	}
	// Ciphertexts, index and annotations too: the snapshot image of a
	// table is a function of all of it.
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
		t.Fatalf("table %q: snapshot image differs", got.Name)
	}
}

func snapshotFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, tablesDir))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func assertNoDamage(t testing.TB, s *Store) {
	t.Helper()
	if d := s.Damaged(); len(d) != 0 {
		t.Fatalf("unexpected damage: %v", d)
	}
}

// TestLockSingleOpener: a data dir is owned by one store handle at a
// time — a concurrent Open fails instead of letting two writers
// interleave manifest appends — and Close releases the ownership.
func TestLockSingleOpener(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if second, err := Open(dir); err == nil {
		second.Close()
		t.Fatal("second Open of a held data dir succeeded")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open failed with %v, want a lock error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

func TestOpenEmptyDir(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if len(s.Tables()) != 0 || len(s.Ledger()) != 0 {
		t.Fatalf("fresh store not empty: %d tables, %d ledger merges", len(s.Tables()), len(s.Ledger()))
	}
	assertNoDamage(t, s)
}

// TestCommitRecoverRoundTrip: tables (indexed and not) survive a
// close/reopen cycle byte-identically.
func TestCommitRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	plainTab := encTable(t, c, "plain", false, "p0", "p1", "p2")
	indexedTab := encTable(t, c, "indexed", true, "q0", "q1")

	s := mustOpen(t, dir)
	mustCommit(t, s, plainTab)
	mustCommit(t, s, indexedTab)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	if n := len(s2.Tables()); n != 2 {
		t.Fatalf("recovered %d tables, want 2", n)
	}
	sameTable(t, tableByName(t, s2, "plain"), plainTab)
	sameTable(t, tableByName(t, s2, "indexed"), indexedTab)
}

// merge is one ledger merge between row i of table a and row i of b.
func merge(a, b string, i int) []leakage.RowRef {
	return []leakage.RowRef{{Table: a, Row: i}, {Table: b, Row: i}}
}

// TestLedgerRoundTrip: ledger records are deltas — replay concatenates
// them — and a join that taught the server nothing appends no record.
func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	first := [][]leakage.RowRef{merge("A", "B", 0), merge("A", "B", 1)}
	second := [][]leakage.RowRef{merge("A", "A", 2)}
	for _, delta := range [][][]leakage.RowRef{first, nil, second, {}} {
		if err := s.RecordLedger(delta); err != nil {
			t.Fatal(err)
		}
	}
	if got := recordCount(s); got != 2 {
		t.Fatalf("records = %d after two deltas and two empty ones, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	if got, want := s2.Ledger(), append(first, second...); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ledger %v, want %v", got, want)
	}
}

// TestLedgerUndecodableRecordIsDamage: a ledger record that passes its
// CRC but does not parse — here a class count with no classes behind
// it — is reported and skipped; the deltas around it still replay.
func TestLedgerUndecodableRecordIsDamage(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	first := [][]leakage.RowRef{merge("A", "B", 0)}
	if err := s.RecordLedger(first); err != nil {
		t.Fatal(err)
	}
	bad, err := frameRecord([]byte{opLedger, byte(s.seq + 1), 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.manifest.Write(bad); err != nil {
		t.Fatal(err)
	}
	s.seq++
	second := [][]leakage.RowRef{merge("A", "B", 1)}
	if err := s.RecordLedger(second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if d := s2.Damaged(); len(d) != 1 || !strings.Contains(d[0].Reason, "record skipped") {
		t.Fatalf("damage = %v, want the one ledger record", d)
	}
	if want := append(first, second...); !reflect.DeepEqual(s2.Ledger(), want) {
		t.Fatalf("recovered ledger %v, want %v", s2.Ledger(), want)
	}
}

// TestLedgerSplitsOversizedDelta: a merge list whose image exceeds
// maxRecordSize is split across records, by RecordLedger and again by
// Compact, instead of being rejected.
func TestLedgerSplitsOversizedDelta(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	name := strings.Repeat("t", 100)
	merges := make([][]leakage.RowRef, 3*maxRecordSize/(2*len(name)))
	for i := range merges {
		merges[i] = merge(name, name, i)
	}
	if err := s.RecordLedger(merges); err != nil {
		t.Fatal(err)
	}
	records := recordCount(s)
	if records < 2 {
		t.Fatalf("%d merges of over %d bytes went into %d record(s)", len(merges), 2*len(name)*len(merges), records)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := recordCount(s); got != records {
		t.Fatalf("records after Compact = %d, want %d", got, records)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	if !reflect.DeepEqual(s2.Ledger(), merges) {
		t.Fatalf("recovered %d merges, want the %d recorded", len(s2.Ledger()), len(merges))
	}
}

// TestOverwriteReplacesSnapshot: re-committing a table name atomically
// replaces the previous version — the old snapshot file is gone, and
// recovery serves only the new rows and index.
func TestOverwriteReplacesSnapshot(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	v1 := encTable(t, c, "T", true, "v1-a", "v1-b", "v1-c")
	v2 := encTable(t, c, "T", true, "v2-a")
	other := encTable(t, c, "O", false, "o")

	s := mustOpen(t, dir)
	mustCommit(t, s, v1)
	mustCommit(t, s, other)
	mustCommit(t, s, v2)
	if files := snapshotFiles(t, dir); len(files) != 2 {
		t.Fatalf("snapshots after overwrite: %v, want exactly 2 (new T + O)", files)
	}
	sameTable(t, tableByName(t, s, "T"), v2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	if n := len(s2.Tables()); n != 2 {
		t.Fatalf("recovered %d tables, want 2", n)
	}
	sameTable(t, tableByName(t, s2, "T"), v2)
	sameTable(t, tableByName(t, s2, "O"), other)
}

// TestClosedStore: mutating a closed store fails with ErrClosed and
// closing twice is fine.
func TestClosedStore(t *testing.T) {
	c := newTestClient(t)
	s := mustOpen(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(encTable(t, c, "T", false, "x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed store: %v, want ErrClosed", err)
	}
	if err := s.RecordLedger(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecordLedger on closed store: %v, want ErrClosed", err)
	}
}
