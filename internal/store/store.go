// Package store persists a server's ciphertext table set so the DBaaS
// deployment of Section 2 survives restarts: the server holds clients'
// encrypted tables long-term and answers a series of join queries, so a
// process restart must not lose an upload or its SSE index.
//
// On-disk layout under one data directory:
//
//	<dir>/MANIFEST          append-only record log (the WAL)
//	<dir>/tables/<seq>.snap one snapshot per committed table version
//	                        (the table's upload frames, engine.SaveTable)
//
// A snapshot is the chunk sequence a client uploads, written as
// protocol v5 upload frames, and engine.LoadTable parses it as hostile
// input. Snapshots carry only public values — ciphertexts, sealed
// payloads and the SSE index — so the data directory has the same
// security posture as the running server's memory: safe on untrusted
// storage.
//
// Commit protocol. A table version is written to a temporary file,
// fsynced, atomically renamed to its final seq-numbered name, and only
// then referenced by a manifest record carrying its SHA-256 digest; the
// manifest append is itself fsynced before Commit returns. A crash at
// any point therefore leaves either (a) a stray temp file, (b) an
// orphan snapshot no record references, or (c) a torn manifest tail —
// all of which Open detects and discards. A table is durable exactly
// when its manifest record is.
//
// Manifest framing. The manifest opens with a format header; then each
// record is a hand-written payload (an op byte, a uvarint seq, the op's
// fields; record.go has the layout) wrapped as: 4-byte big-endian
// payload length | payload | 4-byte big-endian CRC-32C of the payload.
// Replay stops at the first record that is truncated or fails its CRC;
// the tail from that point is reported as damage and truncated away so
// future appends start from a clean prefix. An intact record whose
// payload does not parse is reported and skipped.
//
// Recovery rules. Open refuses a non-empty manifest without the format
// header — one an earlier build wrote in gob — before it truncates,
// sweeps or renames anything, asking for the directory to be moved
// aside and the tables re-uploaded. Otherwise it replays the manifest
// (last record wins per table), then verifies every live snapshot
// against its recorded digest and decodes it. A snapshot that is
// missing, fails its digest, or fails to decode makes its table
// *damaged*: the table is skipped — never served — and reported through
// Damaged; the broken file is kept on disk for forensics, and a fresh
// Commit of the table heals it. Stray temp files and orphan snapshots
// are removed. A record naming a file the store does not write itself
// (anything but <16 hex digits>.snap, or .spool for a job) is damage
// too, and the file it names is never opened or removed.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/metrics"
)

const (
	manifestName = "MANIFEST"
	// compactName is the staging file of a manifest compaction; a crash
	// mid-compaction leaves it behind and Open discards it (the old
	// MANIFEST is still authoritative until the atomic rename).
	compactName = "MANIFEST.compact"
	tablesDir   = "tables"
	jobsDir     = "jobs"
	tmpPrefix   = ".tmp-"

	// maxRecordSize bounds one manifest record so a corrupt length
	// header cannot force an unbounded allocation during replay.
	// Records hold metadata only (never row data), so 1 MiB is generous.
	maxRecordSize = 1 << 20

	// compactThreshold is the replayed-record count past which Open
	// rewrites the manifest: overwrites and reaped jobs leave
	// dead records behind until a compaction folds the log to one record
	// per live table and job plus the ledger.
	compactThreshold = 64
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Damage describes one table (or manifest region) Open found broken and
// skipped. Recovery never panics on damage and never serves a damaged
// table; it recovers the survivors and reports the rest here.
type Damage struct {
	Table    string // empty for manifest-level damage
	Snapshot string // file name under tables/, when known
	Reason   string
}

func (d Damage) String() string {
	switch {
	case d.Table == "":
		return d.Reason
	case d.Snapshot == "":
		return fmt.Sprintf("table %q: %s", d.Table, d.Reason)
	}
	return fmt.Sprintf("table %q (%s): %s", d.Table, d.Snapshot, d.Reason)
}

// entry is the live manifest state of one table.
type entry struct {
	snapshot string
	digest   []byte
}

// Store is a durable table set backed by one data directory. It is safe
// for concurrent use; all mutating operations are serialized and fsync
// before returning, so a table (or ledger delta) acked by a call
// survives any later crash.
type Store struct {
	dir string

	mu       sync.Mutex
	manifest *os.File
	seq      uint64
	// records counts the manifest's framed records (replayed + appended
	// since), the statistic the auto-compaction trigger watches.
	records int
	entries map[string]entry
	tables  map[string]*engine.EncryptedTable
	jobs    map[string]jobEntry
	merges  [][]leakage.RowRef // the durable ledger: at most (revealed rows - classes) merges
	damaged []Damage
	// appendErr is sticky: once an append fails mid-write the manifest
	// may have a torn tail, and appending after it would bury valid
	// records behind garbage replay cannot cross.
	appendErr error

	// Byte counters for the durability write paths; nil-safe no-ops
	// until Instrument attaches registered counters.
	snapshotBytes *metrics.Counter
	walBytes      *metrics.Counter
}

// Instrument registers the store's write-volume counters in reg:
// sj_store_snapshot_bytes_total (table snapshot bytes written) and
// sj_store_wal_bytes_total (manifest record bytes appended). Call
// before serving traffic; an uninstrumented store records nothing.
func (s *Store) Instrument(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotBytes = metrics.NewCounter(reg, "sj_store_snapshot_bytes_total", "table snapshot bytes written to the data dir")
	s.walBytes = metrics.NewCounter(reg, "sj_store_wal_bytes_total", "manifest (WAL) record bytes appended")
}

// Open creates or recovers a store in dir, re-registering every durable
// table. It never fails on damaged tables or a torn manifest tail —
// those are skipped and reported by Damaged — only on environmental
// errors (unusable directory, unreadable manifest) and on a manifest an
// earlier build wrote, which it leaves untouched.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating layout: %w", err)
	}
	mf, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening manifest: %w", err)
	}
	// One process per data directory: two writers appending at their
	// own remembered offsets would interleave records into garbage the
	// next recovery truncates away. The advisory lock lives on the
	// manifest's open file description, so it dies with the process —
	// no stale lock file survives a crash.
	if err := syscall.Flock(int(mf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		mf.Close()
		return nil, fmt.Errorf("store: data dir %s is locked by another process: %w", dir, err)
	}
	torn, err := checkMagic(mf)
	if err != nil {
		mf.Close()
		return nil, err
	}
	for _, sub := range []string{tablesDir, jobsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			mf.Close()
			return nil, fmt.Errorf("store: creating layout: %w", err)
		}
	}
	s := &Store{
		dir:      dir,
		manifest: mf,
		entries:  make(map[string]entry),
		tables:   make(map[string]*engine.EncryptedTable),
		jobs:     make(map[string]jobEntry),
	}
	if torn {
		s.damaged = append(s.damaged, Damage{Reason: "manifest: torn format header; rewritten"})
	}
	// A leftover compaction staging file means a compaction crashed
	// before its atomic rename: the old MANIFEST (locked above) is
	// still authoritative, so the partial rewrite is litter.
	os.Remove(filepath.Join(dir, compactName))
	if err := s.replay(); err != nil {
		mf.Close()
		return nil, err
	}
	s.loadTables()
	s.sweep()
	// Fold a record-heavy manifest down to its live state (Compact
	// itself refuses when recovery found damage — compaction would drop
	// the damaged tables' records, and with them the forensic trail
	// sweep preserves). Best-effort — a failed compaction leaves the
	// old manifest authoritative and the store fully usable.
	if s.records > compactThreshold {
		_ = s.Compact()
	}
	return s, nil
}

// replay reads the records after the format header, applying them in
// order (last wins per table and job). A torn tail is truncated away so
// the next append starts at a clean record boundary.
func (s *Store) replay() error {
	good := int64(len(manifestMagic)) // offset just past the last intact record
	if _, err := s.manifest.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking manifest: %w", err)
	}
	br := bufio.NewReader(s.manifest)
	for {
		rec, n, err := readRecord(br)
		if err == io.EOF {
			break
		}
		if errors.Is(err, errBadRecord) {
			s.damaged = append(s.damaged, Damage{
				Reason: fmt.Sprintf("manifest: %v at offset %d; record skipped", err, good),
			})
			good += n
			continue
		}
		if err != nil {
			s.damaged = append(s.damaged, Damage{
				Reason: fmt.Sprintf("manifest: %v at offset %d; discarding tail", err, good),
			})
			if err := s.manifest.Truncate(good); err != nil {
				return fmt.Errorf("store: truncating torn manifest tail: %w", err)
			}
			break
		}
		good += n
		s.records++
		s.seq = max(s.seq, rec.Seq)
		switch rec.Op {
		case opCommit:
			s.entries[rec.Table] = entry{snapshot: rec.Snapshot, digest: rec.Digest}
		case opLedger:
			s.merges = append(s.merges, rec.Merges...)
		case opJob:
			s.jobs[rec.Job.ID] = jobEntry{snapshot: rec.Snapshot, digest: rec.Digest, info: rec.Job}
		case opJobDelete:
			delete(s.jobs, rec.Job.ID)
		}
	}
	if _, err := s.manifest.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking manifest end: %w", err)
	}
	for _, id := range sortedKeys(s.jobs) {
		// A failed job has no spool.
		if je := s.jobs[id]; je.snapshot != "" && !generatedName(je.snapshot, ".spool") {
			s.damaged = append(s.damaged, Damage{Reason: fmt.Sprintf("job %q: names spool %q, not a file the store writes; ignored", id, je.snapshot)})
			delete(s.jobs, id)
		}
	}
	return nil
}

// loadTables verifies and decodes every live snapshot; failures demote
// the table to damaged instead of aborting recovery.
func (s *Store) loadTables() {
	for _, name := range sortedKeys(s.entries) {
		e := s.entries[name]
		if !generatedName(e.snapshot, ".snap") {
			s.damage(name, "", fmt.Sprintf("manifest names snapshot %q, not a file the store writes; ignored", e.snapshot))
			continue
		}
		path := filepath.Join(s.dir, tablesDir, e.snapshot)
		data, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			s.damage(name, e.snapshot, "snapshot missing")
			continue
		case err != nil:
			s.damage(name, e.snapshot, fmt.Sprintf("reading snapshot: %v", err))
			continue
		}
		if sum := sha256.Sum256(data); !bytes.Equal(sum[:], e.digest) {
			s.damage(name, e.snapshot, "snapshot checksum mismatch")
			continue
		}
		t, err := engine.LoadTable(bytes.NewReader(data))
		if err != nil {
			s.damage(name, e.snapshot, fmt.Sprintf("decoding snapshot: %v", err))
			continue
		}
		if t.Name != name {
			s.damage(name, e.snapshot, fmt.Sprintf("snapshot holds table %q", t.Name))
			continue
		}
		s.tables[name] = t
	}
}

// generatedName reports whether name is one the store writes itself:
// 16 lower-case hex digits (the record's seq) and ext. Replay opens and
// removes only such names, so no manifest record can point the store at
// a file outside its directory.
func generatedName(name, ext string) bool {
	seq, ok := strings.CutSuffix(name, ext)
	if !ok || len(seq) != 16 {
		return false
	}
	for _, c := range []byte(seq) {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// damage records one broken table and withdraws it from the live set so
// it is never served. Its snapshot stays on disk for forensics (sweep
// skips files referenced by damaged entries too).
func (s *Store) damage(name, snapshot, reason string) {
	s.damaged = append(s.damaged, Damage{Table: name, Snapshot: snapshot, Reason: reason})
	delete(s.tables, name)
	// Keep the entry out of entries so a later Commit of the same name
	// heals the table, but remember the file as referenced via damaged.
	delete(s.entries, name)
}

// sweep removes crash litter from tables/ and jobs/: temp files of
// interrupted writes and orphan snapshots/spools whose commit record
// never became durable (or whose table/job was since overwritten or
// reaped).
func (s *Store) sweep() {
	referenced := make(map[string]bool, len(s.entries)+len(s.damaged))
	for _, e := range s.entries {
		referenced[e.snapshot] = true
	}
	for _, d := range s.damaged {
		if d.Snapshot != "" {
			referenced[d.Snapshot] = true
		}
	}
	s.sweepDir(tablesDir, referenced)
	jobRefs := make(map[string]bool, len(s.jobs))
	for _, je := range s.jobs {
		if je.snapshot != "" {
			jobRefs[je.snapshot] = true
		}
	}
	s.sweepDir(jobsDir, jobRefs)
}

// sweepDir removes every file under dir that is neither referenced nor
// anything but temp-write litter. Best-effort cleanup.
func (s *Store) sweepDir(dir string, referenced map[string]bool) {
	ents, err := os.ReadDir(filepath.Join(s.dir, dir))
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) || !referenced[name] {
			os.Remove(filepath.Join(s.dir, dir, name))
		}
	}
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Tables returns the recovered (and since committed) live tables,
// sorted by name.
func (s *Store) Tables() []*engine.EncryptedTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*engine.EncryptedTable, 0, len(s.tables))
	for _, name := range sortedKeys(s.tables) {
		out = append(out, s.tables[name])
	}
	return out
}

// Ledger returns every merge recorded so far, for replay at recovery.
func (s *Store) Ledger() [][]leakage.RowRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]leakage.RowRef(nil), s.merges...)
}

// Damaged reports what Open found broken and skipped. The slice is
// fixed at Open time.
func (s *Store) Damaged() []Damage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Damage(nil), s.damaged...)
}

// Commit makes one table version durable, atomically replacing any
// previous version of the same name: the new snapshot is fully on disk
// and fsynced before the manifest record referencing it is appended,
// and the old version's snapshot is removed only after that append
// succeeds. When Commit returns nil the table survives any crash; when
// it returns an error the previous version (if any) is still intact.
func (s *Store) Commit(t *engine.EncryptedTable) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	seq := s.seq + 1
	snap := fmt.Sprintf("%016x.snap", seq)
	var image bytes.Buffer
	if err := engine.SaveTable(&image, t); err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	digest, err := s.install(tablesDir, snap, "snapshot", image.Bytes())
	if err != nil {
		return err
	}
	rec := &record{Op: opCommit, Seq: seq, Table: t.Name, Snapshot: snap, Digest: digest}
	if err := s.append(rec); err != nil {
		// Leave the snapshot in place: a failed append (in particular a
		// failed Sync) does not prove the record missed the disk, and if
		// it did land, its table must find this file on the next
		// recovery — removing it here could destroy the only copy while
		// the overwritten version's snapshot gets swept as unreferenced.
		// A record that never became durable makes this file the orphan
		// instead, and the sweep reclaims it.
		return err
	}
	s.seq = seq
	if old, ok := s.entries[t.Name]; ok && old.snapshot != snap {
		os.Remove(filepath.Join(s.dir, tablesDir, old.snapshot))
	}
	s.entries[t.Name] = entry{snapshot: snap, digest: digest}
	s.tables[t.Name] = t
	return nil
}

// RecordLedger appends the merges one join added to the leakage ledger
// (engine.QueryTrace.Merges), so the closure a series has revealed
// survives restarts. A delta: replay concatenates the records.
func (s *Store) RecordLedger(merges [][]leakage.RowRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	for _, rec := range ledgerRecords(merges) {
		rec.Seq = s.seq + 1
		if err := s.append(rec); err != nil {
			return err
		}
		s.seq++
	}
	s.merges = append(s.merges, merges...)
	return nil
}

// Close releases the manifest. Further mutating calls fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Close()
	s.manifest = nil
	return err
}

// usable gates mutating operations: the store must be open and must not
// have a possibly-torn manifest tail from an earlier failed append.
func (s *Store) usable() error {
	if s.manifest == nil {
		return ErrClosed
	}
	if s.appendErr != nil {
		return fmt.Errorf("store: manifest disabled after failed append: %w", s.appendErr)
	}
	return nil
}

// append writes one framed record and fsyncs the manifest. A failure is
// sticky — the tail may be torn, so no further appends are accepted.
func (s *Store) append(rec *record) error {
	b, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := s.manifest.Write(b); err != nil {
		s.appendErr = err
		return fmt.Errorf("store: appending manifest record: %w", err)
	}
	if err := s.manifest.Sync(); err != nil {
		s.appendErr = err
		return fmt.Errorf("store: syncing manifest: %w", err)
	}
	s.walBytes.Add(uint64(len(b)))
	s.records++
	return nil
}

// Compact rewrites the manifest to its live state — one commit record
// per live table and job plus the ledger's merges, re-chunked —
// discarding the history of overwrites and reaped jobs. The
// rewrite is crash-safe: the new manifest is staged under
// MANIFEST.compact, fsynced, and atomically renamed over MANIFEST; a
// crash at any point leaves either the old manifest intact (plus
// staging litter Open discards) or the new one fully in place.
// The staging file's lock is taken before the rename, so the directory
// never has a moment where a second process could claim it.
//
// Compaction is refused while Damaged() is non-empty: damaged tables
// have no live entry, so rewriting would erase their records and let
// the next recovery sweep their snapshots — destroying both the
// startup damage report and the forensic evidence. Heal the damage
// (re-commit the tables) or clear it out of band first.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if len(s.damaged) > 0 {
		return fmt.Errorf("store: refusing to compact with %d damaged table(s)/regions; compaction would erase the forensic trail", len(s.damaged))
	}
	path := filepath.Join(s.dir, compactName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: staging compacted manifest: %w", err)
	}
	abort := func(e error) error {
		f.Close()
		os.Remove(path)
		return e
	}
	// Lock the staging file NOW: after the rename below it is the
	// manifest, and a successor process must find it locked from the
	// first instant it exists under the MANIFEST name.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return abort(fmt.Errorf("store: locking compacted manifest: %w", err))
	}
	if _, err := f.WriteString(manifestMagic); err != nil {
		return abort(fmt.Errorf("store: writing compacted manifest: %w", err))
	}
	live := ledgerRecords(s.merges)
	for _, id := range sortedKeys(s.jobs) {
		live = append(live, jobRecord(0, s.jobs[id]))
	}
	for _, name := range sortedKeys(s.entries) {
		e := s.entries[name]
		live = append(live, &record{Op: opCommit, Table: name, Snapshot: e.snapshot, Digest: e.digest})
	}
	for i, rec := range live {
		rec.Seq = s.seq + uint64(i) + 1
		b, err := encodeRecord(rec)
		if err != nil {
			return abort(err)
		}
		if _, err := f.Write(b); err != nil {
			return abort(fmt.Errorf("store: writing compacted manifest: %w", err))
		}
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("store: syncing compacted manifest: %w", err))
	}
	if err := os.Rename(path, filepath.Join(s.dir, manifestName)); err != nil {
		return abort(fmt.Errorf("store: installing compacted manifest: %w", err))
	}
	// The rename happened: whether or not it could be made durable, both
	// outcomes hold identical live state and future appends go to the new
	// file, so swap the handles and surface any error. The old inode is
	// unlinked and its lock dies with the close; f holds the lock on the
	// live manifest.
	err = syncDir(s.dir)
	s.manifest.Close()
	s.manifest = f
	s.seq += uint64(len(live))
	s.records = len(live)
	return err
}

// install makes data durable as dir/name: written to a temp file,
// fsynced, renamed into place, and the directory fsynced. It returns
// the data's SHA-256 and leaves nothing behind on failure; what names
// the file in errors.
func (s *Store) install(dir, name, what string, data []byte) ([]byte, error) {
	tmp := filepath.Join(s.dir, dir, tmpPrefix+name)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", what, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("store: writing %s: %w", what, err)
	}
	s.snapshotBytes.Add(uint64(len(data)))
	final := filepath.Join(s.dir, dir, name)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("store: installing %s: %w", what, err)
	}
	if err := syncDir(filepath.Join(s.dir, dir)); err != nil {
		os.Remove(final)
		return nil, err
	}
	sum := sha256.Sum256(data)
	return sum[:], nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	return nil
}

// sortedKeys returns a map's keys in ascending order, for deterministic
// recovery and listing order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
