package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestJobSpoolRoundTrip: a committed job's record (every JobInfo field)
// and rows come back from a reopened store exactly, a skipped payload
// as nil, also after a compaction, and a flipped spool byte fails the
// digest check.
func TestJobSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	rows := []JobRow{
		{RowA: 0, RowB: 3, PayloadA: []byte("sealed-a"), PayloadB: []byte("sealed-b")},
		{RowA: 1, RowB: 4, PayloadA: []byte("sealed-c")},
		{RowA: 70000, RowB: 5, PayloadA: []byte("sealed-d"), PayloadB: []byte("sealed-e")},
	}
	meta := JobMeta{
		ID: "j1", State: "done", TableA: "A", TableB: "B",
		RowsDecrypted: 9, StepsDone: 2, RevealedPairs: 4,
		CreatedUnix: 1699999990, StartedUnix: 1699999995, FinishedUnix: 1700000000,
	}
	if err := s.CommitJob(meta, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	assertNoDamage(t, s2)
	meta.ResultRows = len(rows)
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
	if jobs := s3.Jobs(); len(jobs) != 1 || jobs[0] != meta {
		t.Fatalf("jobs after compaction %+v, want %+v", jobs, meta)
	}
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
