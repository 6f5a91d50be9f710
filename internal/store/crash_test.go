package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/engine"
)

// Crash-injection suite: each test damages the on-disk state the way a
// torn write, bit rot, or lost file would, then requires Open to
// recover every surviving table and *report* — never panic on, never
// serve — the damaged ones.

// commitTwo seeds a data dir with tables T1 and T2 (committed in that
// order) and returns their encrypted versions.
func commitTwo(t *testing.T, dir string) (t1, t2 *engine.EncryptedTable) {
	t.Helper()
	c := newTestClient(t)
	t1 = encTable(t, c, "T1", true, "one-a", "one-b")
	t2 = encTable(t, c, "T2", true, "two-a", "two-b", "two-c")
	s := mustOpen(t, dir)
	mustCommit(t, s, t1)
	mustCommit(t, s, t2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return t1, t2
}

// snapshotOf returns the snapshot file of the n-th commit (0-based):
// snapshot names are ascending sequence numbers, so sorting recovers
// commit order.
func snapshotOf(t *testing.T, dir string, n int) string {
	t.Helper()
	files := snapshotFiles(t, dir)
	sort.Strings(files)
	if n >= len(files) {
		t.Fatalf("want snapshot %d, have %v", n, files)
	}
	return filepath.Join(dir, tablesDir, files[n])
}

func assertDamagedTable(t *testing.T, s *Store, table, reasonSub string) {
	t.Helper()
	for _, d := range s.Damaged() {
		if d.Table == table && strings.Contains(d.Reason, reasonSub) {
			return
		}
	}
	t.Fatalf("no damage report for table %q containing %q; got %v", table, reasonSub, s.Damaged())
}

// TestTruncatedManifestEntry: a manifest that ends mid-record (torn
// write at crash) loses exactly the torn commit; the earlier table
// survives and the tail damage is reported. The truncated tail must
// also not poison later appends.
func TestTruncatedManifestEntry(t *testing.T) {
	dir := t.TempDir()
	t1, _ := commitTwo(t, dir)
	manifest := filepath.Join(dir, manifestName)
	fi, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the last record (T2's commit).
	if err := os.Truncate(manifest, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	tables := s.Tables()
	if len(tables) != 1 || tables[0].Name != "T1" {
		t.Fatalf("recovered %d tables, want just T1", len(tables))
	}
	sameTable(t, tables[0], t1)
	if len(s.Damaged()) != 1 || !strings.Contains(s.Damaged()[0].Reason, "manifest") {
		t.Fatalf("damage = %v, want one manifest-tail report", s.Damaged())
	}
	// T2's snapshot lost its record; the sweep must have reclaimed it.
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("snapshots after torn-tail recovery: %v, want 1", files)
	}

	// The store stays writable: commit something new and recover clean.
	c := newTestClient(t)
	t3 := encTable(t, c, "T3", false, "three")
	mustCommit(t, s, t3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	if len(s2.Tables()) != 2 {
		t.Fatalf("recovered %d tables, want T1+T3", len(s2.Tables()))
	}
	sameTable(t, tableByName(t, s2, "T3"), t3)
}

// TestCorruptSnapshot: a flipped byte in a snapshot fails the digest
// check; the table is reported damaged and skipped, its file kept for
// forensics, and the intact table still served.
func TestCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	t1, _ := commitTwo(t, dir)
	victim := snapshotOf(t, dir, 1) // T2: second commit
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	tables := s.Tables()
	if len(tables) != 1 || tables[0].Name != "T1" {
		t.Fatalf("recovered %d tables, want just T1", len(tables))
	}
	sameTable(t, tables[0], t1)
	assertDamagedTable(t, s, "T2", "checksum")
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("corrupt snapshot was removed, want it kept for forensics: %v", err)
	}
}

// TestMissingSnapshot: a manifest record whose snapshot file is gone
// yields a damage report, not a panic or a phantom table.
func TestMissingSnapshot(t *testing.T) {
	dir := t.TempDir()
	t1, _ := commitTwo(t, dir)
	if err := os.Remove(snapshotOf(t, dir, 1)); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	tables := s.Tables()
	if len(tables) != 1 || tables[0].Name != "T1" {
		t.Fatalf("recovered %d tables, want just T1", len(tables))
	}
	sameTable(t, tables[0], t1)
	assertDamagedTable(t, s, "T2", "missing")
}

// TestRecommitHealsDamage: committing a fresh version of a damaged
// table brings it back; the next recovery is clean and the corrupt
// snapshot is reclaimed once nothing references it.
func TestRecommitHealsDamage(t *testing.T) {
	dir := t.TempDir()
	commitTwo(t, dir)
	victim := snapshotOf(t, dir, 1)
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	assertDamagedTable(t, s, "T2", "missing")
	c := newTestClient(t)
	healed := encTable(t, c, "T2", true, "two-again")
	mustCommit(t, s, healed)
	sameTable(t, tableByName(t, s, "T2"), healed)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	if len(s2.Tables()) != 2 {
		t.Fatalf("recovered %d tables, want 2", len(s2.Tables()))
	}
	sameTable(t, tableByName(t, s2, "T2"), healed)
}

// TestGobSnapshotIsDamage: a snapshot in the gob image tables were
// stored in before snapshots became upload frames is reported as damage
// asking for a re-upload, kept on disk, never served, and healed by a
// fresh Commit.
func TestGobSnapshotIsDamage(t *testing.T) {
	type gobRow struct{ Join, Payload []byte }
	var snap bytes.Buffer
	if err := gob.NewEncoder(&snap).Encode(&struct {
		Name string
		Rows []gobRow
	}{Name: "T", Rows: []gobRow{{Join: []byte("ciphertext"), Payload: []byte("sealed")}}}); err != nil {
		t.Fatal(err)
	}
	checkUnreadableSnapshot(t, snap.Bytes(), "not an upload snapshot", "re-upload the table")
}

// checkUnreadableSnapshot commits table T as the snapshot image beside
// a good table Keep, reopens the store, and requires T to be reported
// damaged with every reason, its file to survive the sweep, Keep to be
// served, and a fresh Commit of T to heal the directory.
func checkUnreadableSnapshot(t *testing.T, image []byte, reasons ...string) {
	t.Helper()
	dir := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, dir)
	keep := encTable(t, c, "Keep", false, "k")
	mustCommit(t, s, keep)
	name := fmt.Sprintf("%016x.snap", s.seq+1)
	path := filepath.Join(dir, tablesDir, name)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(image)
	if err := s.append(&record{Op: opCommit, Seq: s.seq + 1, Table: "T", Snapshot: name, Digest: digest[:]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	for _, reason := range reasons {
		assertDamagedTable(t, s2, "T", reason)
	}
	if tables := s2.Tables(); len(tables) != 1 || tables[0].Name != "Keep" {
		t.Fatalf("recovered %d tables, want just Keep", len(tables))
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, image) {
		t.Fatalf("damaged snapshot not kept as written: %v", err)
	}
	healed := encTable(t, c, "T", false, "fresh")
	mustCommit(t, s2, healed)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir)
	assertNoDamage(t, s3)
	sameTable(t, tableByName(t, s3, "T"), healed)
	sameTable(t, tableByName(t, s3, "Keep"), keep)
}

// TestSweepRemovesCrashLitter: stray temp files (interrupted snapshot
// writes) and orphan snapshots (renamed but never referenced by a
// durable record) are cleaned up by Open without touching live data.
func TestSweepRemovesCrashLitter(t *testing.T) {
	dir := t.TempDir()
	commitTwo(t, dir)
	litter := []string{
		filepath.Join(dir, tablesDir, tmpPrefix+"crashed"),
		filepath.Join(dir, tablesDir, "ffffffffffffffff.snap"), // orphan: no record
	}
	for _, p := range litter {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := mustOpen(t, dir)
	assertNoDamage(t, s)
	if len(s.Tables()) != 2 {
		t.Fatalf("recovered %d tables, want 2", len(s.Tables()))
	}
	for _, p := range litter {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("crash litter %s survived the sweep", p)
		}
	}
	if files := snapshotFiles(t, dir); len(files) != 2 {
		t.Fatalf("snapshots after sweep: %v, want 2", files)
	}
}

// TestEmptyManifestTolerated: a zero-byte manifest (crash before the
// first record) is a valid empty store.
func TestEmptyManifestTolerated(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, tablesDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	assertNoDamage(t, s)
	if len(s.Tables()) != 0 {
		t.Fatalf("empty manifest recovered %d tables", len(s.Tables()))
	}
}

// TestGarbageManifestTolerated: a manifest that is pure garbage right
// after its format header recovers as empty-with-damage, and stays
// usable.
func TestGarbageManifestTolerated(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, tablesDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestMagic+"this is not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if len(s.Tables()) != 0 || len(s.Damaged()) != 1 {
		t.Fatalf("garbage manifest: %d tables, damage %v", len(s.Tables()), s.Damaged())
	}
	c := newTestClient(t)
	tab := encTable(t, c, "T", false, "x")
	mustCommit(t, s, tab)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	sameTable(t, tableByName(t, s2, "T"), tab)
}

// TestManifestNamesOnlyStoreFiles: a manifest record naming a snapshot
// or spool the store never writes — "../../victim.txt", which resolves
// outside the data directory — is reported as damage. The file it names
// is never opened: it is a FIFO here, so opening it for reading would
// let the writer below through. Neither DeleteJob nor a replacing
// Commit removes it.
func TestManifestNamesOnlyStoreFiles(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "srv", "data")
	victim := filepath.Join(root, "srv", "victim.txt") // what tables/../../victim.txt resolves to
	const evil = "../../victim.txt"

	s := mustOpen(t, dir)
	c := newTestClient(t)
	mustCommit(t, s, encTable(t, c, "Keep", false, "k"))
	digest := sha256.Sum256(nil)
	for _, rec := range []*record{
		{Op: opCommit, Seq: s.seq + 1, Table: "Evil", Snapshot: evil, Digest: digest[:]},
		{Op: opJob, Seq: s.seq + 2, Job: JobMeta{ID: "evil", TableA: "Keep", TableB: "Keep", ResultRows: 1}, Snapshot: evil, Digest: digest[:]},
	} {
		if err := s.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Mkfifo(victim, 0o644); err != nil {
		t.Fatal(err)
	}
	var opened atomic.Bool
	go func() {
		// Blocks until someone opens the FIFO for reading.
		f, err := os.OpenFile(victim, os.O_WRONLY, 0)
		if err != nil {
			return
		}
		opened.Store(true)
		f.Close()
	}()
	t.Cleanup(func() {
		// Release the writer: a non-blocking reader completes its open.
		if f, err := os.OpenFile(victim, os.O_RDONLY|syscall.O_NONBLOCK, 0); err == nil {
			f.Close()
		}
	})

	s2 := mustOpen(t, dir)
	if opened.Load() {
		t.Fatal("Open opened the file a manifest record names outside the data directory")
	}
	assertDamagedTable(t, s2, "Evil", `"`+evil+`"`)
	jobReported := false
	for _, d := range s2.Damaged() {
		jobReported = jobReported || strings.Contains(d.String(), `job "evil"`) && strings.Contains(d.String(), evil)
	}
	if !jobReported {
		t.Fatalf("no damage report naming job \"evil\" and its spool: %v", s2.Damaged())
	}
	if _, err := s2.ReadJobRows("evil"); err == nil {
		t.Fatal("a job naming a foreign spool was served")
	}
	if err := s2.DeleteJob("evil"); err == nil {
		t.Fatal("DeleteJob found a job whose record names a foreign spool")
	}
	mustCommit(t, s2, encTable(t, c, "Evil", false, "e"))
	if err := s2.CommitJob(JobMeta{ID: "evil", TableA: "Keep", TableB: "Evil"}, []JobRow{{RowA: 0, RowB: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(victim); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("victim file after the job delete and replacing commits: %v, %v", fi, err)
	}
	if opened.Load() {
		t.Fatal("the store opened the file a manifest record names outside the data directory")
	}

	// The replacing commits healed the table and the job, so the next
	// Open is clean.
	s3 := mustOpen(t, dir)
	assertNoDamage(t, s3)
	tableByName(t, s3, "Evil")
	if _, err := s3.ReadJobRows("evil"); err != nil {
		t.Fatal(err)
	}
}
