package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestJobSpoolRoundTrip: a committed job's rows come back from a
// reopened store exactly, a skipped payload as nil, also after a
// compaction, and a flipped spool byte fails the digest check.
func TestJobSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	rows := []JobRow{
		{RowA: 0, RowB: 3, PayloadA: []byte("sealed-a"), PayloadB: []byte("sealed-b")},
		{RowA: 1, RowB: 4, PayloadA: []byte("sealed-c")},
		{RowA: 70000, RowB: 5, PayloadA: []byte("sealed-d"), PayloadB: []byte("sealed-e")},
	}
	meta := JobMeta{ID: "j1", TableA: "A", TableB: "B", RevealedPairs: 4, FinishedUnix: 1700000000}
	if err := s.CommitJob(meta, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	meta.Rows = len(rows)
	if jobs := s2.Jobs(); len(jobs) != 1 || jobs[0] != meta {
		t.Fatalf("recovered jobs %+v, want %+v", jobs, meta)
	}
	got, err := s2.ReadJobRows("j1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("spooled rows %q, want %q", got, rows)
	}

	// Compaction rewrites the job's record in the current format too.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir)
	assertNoDamage(t, s3)
	if got, err := s3.ReadJobRows("j1"); err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("after compaction: %q, %v", got, err)
	}

	spool := filepath.Join(dir, jobsDir, s3.jobs["j1"].snapshot)
	data, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(spool, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.ReadJobRows("j1"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt spool: got %v, want a checksum mismatch", err)
	}
}

// TestOpenForgetsGobSpooledJobs: a job a v3 server spooled — an opJob
// record and a gob spool — is forgotten at Open and reported once, its
// spool is swept, and neither the tables nor a job spooled in the
// current format are touched.
func TestOpenForgetsGobSpooledJobs(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, dir)
	keep := encTable(t, c, "Keep", true, "k0", "k1")
	mustCommit(t, s, keep)
	current := []JobRow{{RowA: 1, RowB: 2, PayloadA: []byte("p")}}
	if err := s.CommitJob(JobMeta{ID: "current"}, current); err != nil {
		t.Fatal(err)
	}

	// What a v3 server wrote: the rows gob-encoded to jobs/<seq>.spool,
	// then an opJob record naming the spool and its digest.
	var img bytes.Buffer
	if err := gob.NewEncoder(&img).Encode(&struct{ Rows []JobRow }{Rows: current}); err != nil {
		t.Fatal(err)
	}
	spool := fmt.Sprintf("%016x.spool", s.seq+1)
	if err := os.WriteFile(filepath.Join(dir, jobsDir, spool), img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(img.Bytes())
	if err := s.append(&record{
		Seq: s.seq + 1, Op: opJob, Job: "old", JobA: "Keep", JobB: "Keep",
		Snapshot: spool, Digest: digest[:], Rows: 1, Finished: 1700000000,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if jobs := s2.Jobs(); len(jobs) != 1 || jobs[0].ID != "current" {
		t.Fatalf("recovered jobs %+v, want just the current-format one", jobs)
	}
	if d := s2.Damaged(); len(d) != 1 || !strings.Contains(d[0].String(), `job "old"`) {
		t.Fatalf("damage %v, want one report naming job \"old\"", d)
	}
	if _, err := os.Stat(filepath.Join(dir, jobsDir, spool)); !os.IsNotExist(err) {
		t.Fatalf("gob spool survived the sweep: %v", err)
	}
	sameTable(t, tableByName(t, s2, "Keep"), keep)
	if got, err := s2.ReadJobRows("current"); err != nil || !reflect.DeepEqual(got, current) {
		t.Fatalf("current-format job: %q, %v", got, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The record was retired: the next Open is clean.
	s3 := mustOpen(t, dir)
	assertNoDamage(t, s3)
	if jobs := s3.Jobs(); len(jobs) != 1 || jobs[0].ID != "current" {
		t.Fatalf("jobs after the second reopen %+v", jobs)
	}
}
