package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

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

// ReadJobRows loads and verifies one job's spooled result rows. The
// spool is digest-checked on every read — it is consulted lazily, long
// after Open, so verification cannot be front-loaded into recovery. A
// failed job yields its recorded error.
func (s *Store) ReadJobRows(id string) ([]JobRow, error) {
	s.mu.Lock()
	je, ok := s.jobs[id]
	dir := s.dir
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: unknown job %q", id)
	}
	if je.info.Err != "" {
		return nil, fmt.Errorf("store: job %q failed: %s", id, je.info.Err)
	}
	data, err := os.ReadFile(filepath.Join(dir, jobsDir, je.snapshot))
	if err != nil {
		return nil, fmt.Errorf("store: reading job spool: %w", err)
	}
	if sum := sha256.Sum256(data); !bytes.Equal(sum[:], je.digest) {
		return nil, fmt.Errorf("store: job %q spool checksum mismatch", id)
	}
	rows, err := wire.ParseRows(data)
	if err != nil {
		return nil, fmt.Errorf("store: decoding job spool: %w", err)
	}
	if len(rows) != je.info.ResultRows {
		return nil, fmt.Errorf("store: job %q spool holds %d rows, record says %d", id, len(rows), je.info.ResultRows)
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
