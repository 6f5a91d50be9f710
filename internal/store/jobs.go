package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/wire"
)

// This file persists completed async-job results, the spool behind the
// wire server's SubmitJob/AttachJob: a join submitted as a job must
// survive both client disconnect and server restart, so its finished
// result is committed here before the job is marked done.
//
// Layout and protocol mirror table snapshots exactly: the result rows
// are written to <dir>/jobs/<seq>.spool as one packed row record
// (wire.AppendRows, the encoding a JoinBatch frame carries) with a temp
// write, fsync, atomic rename and directory sync; then an opJob manifest
// record referencing the spool by name and SHA-256 digest, and carrying
// the job's wire.JobInfo, is appended and fsynced. A job is durable
// exactly when its record is; a crash in between leaves an orphan spool
// the next Open sweeps. Failed jobs carry no spool — only the record with
// its error message — so a resubmit decision survives restarts too.
// Reaping (TTL expiry) appends opJobDelete and unlinks the spool.
//
// Spooled rows hold only what the server already stores: row indices
// and sealed payload blobs. Nothing about the plaintext result leaks
// into the data directory beyond the sigma(q) cardinality the server
// observed anyway.

// JobRow is one joined result row as spooled to disk: the row indices
// of the two operands and their sealed payloads, exactly what the wire
// layer streams to an attached client.
type JobRow = wire.JoinedRow

// JobMeta is the record of one finished job, the JobInfo its JobStatus
// answers with: identity, operands, result cardinality, leakage, times
// and — for a failed job — the error message.
type JobMeta = wire.JobInfo

// jobEntry is the live manifest state of one job.
type jobEntry struct {
	snapshot string // spool file under jobs/, empty for failed jobs
	digest   []byte
	info     JobMeta
}

// jobRecord builds the manifest record of a job entry, shared by
// CommitJob and Compact.
func jobRecord(seq uint64, je jobEntry) *record {
	return &record{Op: opJob, Seq: seq, Snapshot: je.snapshot, Digest: je.digest, Job: je.info}
}

// CommitJob makes one finished job durable: the result rows are spooled
// (a failed job, info.Err non-empty, spools nothing) and the job record
// is appended, all before returning. The record is info with ResultRows
// set to len(rows). Committing an ID again replaces the previous
// result, like a table re-commit.
func (s *Store) CommitJob(info JobMeta, rows []JobRow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if info.ID == "" {
		return fmt.Errorf("store: job commit without an ID")
	}
	info.ResultRows = len(rows)
	seq := s.seq + 1
	je := jobEntry{info: info}
	if info.Err == "" {
		spool := fmt.Sprintf("%016x.spool", seq)
		digest, err := s.install(jobsDir, spool, "job spool", wire.AppendRows(nil, rows))
		if err != nil {
			return err
		}
		je.snapshot = spool
		je.digest = digest
	}
	if err := s.append(jobRecord(seq, je)); err != nil {
		// Keep the spool for the same reason Commit keeps its snapshot: a
		// failed append does not prove the record missed the disk, and if
		// it landed, the next recovery must find this file. An orphan is
		// reclaimed by the sweep instead.
		return err
	}
	s.seq = seq
	if old, ok := s.jobs[info.ID]; ok && old.snapshot != "" && old.snapshot != je.snapshot {
		os.Remove(filepath.Join(s.dir, jobsDir, old.snapshot))
	}
	s.jobs[info.ID] = je
	return nil
}

// Jobs returns the record of every durable job, sorted by ID.
func (s *Store) Jobs() []JobMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobMeta, 0, len(s.jobs))
	for _, id := range sortedKeys(s.jobs) {
		out = append(out, s.jobs[id].info)
	}
	return out
}

// ReadJobSpool reads one job's spool, the packed row record as stored,
// into dst's array (growing it when short) and checks it against its
// recorded SHA-256 digest; rows is the row count the job's record
// gives. The spool is digest-checked on every read — it is consulted
// lazily, long after Open, so verification cannot be front-loaded into
// recovery. The record itself is not parsed: a caller that serves it
// checks it first (wire.CutRows). A failed job yields its recorded
// error.
func (s *Store) ReadJobSpool(id string, dst []byte) (rec []byte, rows int, err error) {
	s.mu.Lock()
	je, ok := s.jobs[id]
	dir := s.dir
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("store: unknown job %q", id)
	}
	if je.info.Err != "" {
		return nil, 0, fmt.Errorf("store: job %q failed: %s", id, je.info.Err)
	}
	if rec, err = readFile(filepath.Join(dir, jobsDir, je.snapshot), dst); err != nil {
		return nil, 0, fmt.Errorf("store: reading job spool: %w", err)
	}
	if sum := sha256.Sum256(rec); !bytes.Equal(sum[:], je.digest) {
		return nil, 0, fmt.Errorf("store: job %q spool checksum mismatch", id)
	}
	return rec, je.info.ResultRows, nil
}

// readFile reads the file at path into dst's array, growing it when
// the file is longer. A spool never changes once installed, so its
// size is read once; the digest check catches any other content.
func readFile(path string, dst []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if int64(size) != fi.Size() {
		return nil, fmt.Errorf("%d-byte file exceeds the address space", fi.Size())
	}
	b := slices.Grow(dst[:0], size)[:size]
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ReadJobRows reads and verifies one job's spool (ReadJobSpool) and
// parses its rows, which alias a buffer of their own. The server sends
// a spool as stored instead; the benchmark's unrolled replay and the
// store's tests read rows through this.
func (s *Store) ReadJobRows(id string) ([]JobRow, error) {
	rec, want, err := s.ReadJobSpool(id, nil)
	if err != nil {
		return nil, err
	}
	rows, err := wire.ParseRows(rec)
	if err != nil {
		return nil, fmt.Errorf("store: decoding job spool: %w", err)
	}
	if len(rows) != want {
		return nil, fmt.Errorf("store: job %q spool holds %d rows, record says %d", id, len(rows), want)
	}
	return rows, nil
}

// DeleteJob durably removes a job (the reaper's primitive): the
// deletion record is fsynced before the spool is unlinked, so a crash
// in between leaves only an orphan file for the next Open's sweep.
func (s *Store) DeleteJob(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	je, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("store: unknown job %q", id)
	}
	seq := s.seq + 1
	if err := s.append(&record{Op: opJobDelete, Seq: seq, Job: JobMeta{ID: id}}); err != nil {
		return err
	}
	s.seq = seq
	if je.snapshot != "" {
		os.Remove(filepath.Join(s.dir, jobsDir, je.snapshot))
	}
	delete(s.jobs, id)
	return nil
}
