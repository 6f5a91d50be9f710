package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/leakage"
)

// tableState snapshots the observable state of a store for
// before/after-compaction comparisons.
func tableState(t testing.TB, s *Store) (tables map[string][]byte, ledger [][]leakage.RowRef) {
	t.Helper()
	tables = make(map[string][]byte)
	for _, tab := range s.Tables() {
		tables[tab.Name] = snapshotBytes(t, tab)
	}
	return tables, s.Ledger()
}

// snapshotBytes returns a table's snapshot image. SaveTable writes the
// same bytes for the same table, so equal images mean equal tables.
func snapshotBytes(t testing.TB, tab *engine.EncryptedTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := engine.SaveTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameState(t *testing.T, s *Store, wantTables map[string][]byte, wantLedger [][]leakage.RowRef) {
	t.Helper()
	gotTables, gotLedger := tableState(t, s)
	if len(gotTables) != len(wantTables) {
		t.Fatalf("%d tables after compaction, want %d", len(gotTables), len(wantTables))
	}
	for name, enc := range wantTables {
		if !bytes.Equal(gotTables[name], enc) {
			t.Fatalf("table %q drifted across compaction", name)
		}
	}
	if !reflect.DeepEqual(gotLedger, wantLedger) {
		t.Fatalf("ledger = %v, want %v", gotLedger, wantLedger)
	}
}

// TestCompactFoldsManifest: an explicit Compact folds a manifest full
// of overwrites, a reaped job and ledger deltas down to one record per
// live table plus the ledger in one, preserving every byte of live
// state across the rewrite and a subsequent recovery.
func TestCompactFoldsManifest(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, dir)

	mustCommit(t, s, encTable(t, c, "keep", true, "r1", "r2"))
	if err := s.CommitJob(JobMeta{ID: "gone", State: "done"}, []JobRow{{RowA: 0, RowB: 0}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustCommit(t, s, encTable(t, c, "churn", false, "v", "v", "v"))
		if err := s.RecordLedger([][]leakage.RowRef{merge("keep", "churn", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteJob("gone"); err != nil {
		t.Fatal(err)
	}
	wantTables, wantLedger := tableState(t, s)
	before := recordCount(s)
	if before != 13 {
		t.Fatalf("records = %d, want 13", before)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// 2 live tables + the 5 merges in 1 ledger record.
	if got := recordCount(s); got != 3 {
		t.Fatalf("records after Compact = %d, want 3", got)
	}
	assertSameState(t, s, wantTables, wantLedger)

	// The compacted manifest must still accept appends, and everything
	// must recover from disk.
	mustCommit(t, s, encTable(t, c, "late", true, "z"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if len(s2.Damaged()) != 0 {
		t.Fatalf("damage after compaction: %v", s2.Damaged())
	}
	if got := recordCount(s2); got != 4 {
		t.Fatalf("records after reopen = %d, want 4", got)
	}
	wantTables["late"] = snapshotBytes(t, tableByName(t, s2, "late"))
	assertSameState(t, s2, wantTables, wantLedger)
}

// TestOpenAutoCompacts: Open rewrites a record-heavy manifest (here a
// long series in which every join taught the server one merge) without
// changing any live state.
func TestOpenAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, dir)
	mustCommit(t, s, encTable(t, c, "T", true, "p1", "p2"))
	for i := 0; i < compactThreshold+10; i++ {
		if err := s.RecordLedger([][]leakage.RowRef{merge("T", "T", i)}); err != nil {
			t.Fatal(err)
		}
	}
	wantTables, wantLedger := tableState(t, s)
	if recordCount(s) <= compactThreshold {
		t.Fatalf("test setup too small: %d records", recordCount(s))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if got := recordCount(s2); got != 2 { // 1 table + 1 ledger record
		t.Fatalf("records after auto-compaction = %d, want 2", got)
	}
	assertSameState(t, s2, wantTables, wantLedger)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// And the compacted directory recovers cleanly again.
	s3 := mustOpen(t, dir)
	if len(s3.Damaged()) != 0 {
		t.Fatalf("damage after auto-compaction: %v", s3.Damaged())
	}
	assertSameState(t, s3, wantTables, wantLedger)
}

// TestCompactRefusesDamage: compacting a store that recovered damaged
// tables would erase their manifest records and let the sweep reclaim
// the forensic snapshots, so Compact must refuse.
func TestCompactRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, dir)
	mustCommit(t, s, encTable(t, c, "fine", false, "ok"))
	mustCommit(t, s, encTable(t, c, "broken", false, "soon gone"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second table's snapshot so recovery marks it damaged.
	snaps, err := filepath.Glob(filepath.Join(dir, tablesDir, "*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snaps[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if len(s2.Damaged()) == 0 {
		t.Fatal("corrupted snapshot not reported as damage")
	}
	if err := s2.Compact(); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("Compact on damaged store: err = %v", err)
	}
	// The forensic snapshot must still be on disk.
	if _, err := os.Stat(snaps[1]); err != nil {
		t.Fatalf("forensic snapshot gone: %v", err)
	}
}

// TestCompactionTornMidRewrite is the crash-injection case: a
// compaction that died before its atomic rename leaves a staging file
// (possibly torn mid-record) next to the untouched old manifest. Open
// must recover everything from the old manifest and discard the
// staging litter.
func TestCompactionTornMidRewrite(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, dir)
	mustCommit(t, s, encTable(t, c, "A", true, "a1", "a2"))
	mustCommit(t, s, encTable(t, c, "B", false, "b1"))
	if err := s.RecordLedger([][]leakage.RowRef{merge("A", "B", 0)}); err != nil {
		t.Fatal(err)
	}
	wantTables, wantLedger := tableState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn rewrite: a prefix of the real manifest (cut
	// mid-record) under the staging name. If Open mistook it for the
	// manifest it would see a torn tail and half the tables.
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	torn := manifest[:len(manifest)/2]
	if err := os.WriteFile(filepath.Join(dir, compactName), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if len(s2.Damaged()) != 0 {
		t.Fatalf("torn staging file reported as damage: %v", s2.Damaged())
	}
	assertSameState(t, s2, wantTables, wantLedger)
	if _, err := os.Stat(filepath.Join(dir, compactName)); !os.IsNotExist(err) {
		t.Fatalf("staging litter survived Open: %v", err)
	}
	// The recovered store must still be writable (the staging sweep
	// must not have confused the lock handoff).
	mustCommit(t, s2, encTable(t, c, "C", false, "c1"))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir)
	tableByName(t, s3, "C")
}
