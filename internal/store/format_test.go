package store

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/leakage"
)

// dirFiles maps every path under dir (relative, directories marked with
// a trailing slash) to its contents.
func dirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeFiles creates dir holding files, as dirFiles lists them.
func writeFiles(t testing.TB, dir string, files map[string]string) {
	t.Helper()
	for rel, data := range files {
		path := filepath.Join(dir, rel)
		if strings.HasSuffix(rel, "/") {
			if err := os.MkdirAll(path, 0o755); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// gobEraManifest is a manifest as builds before this format wrote it: a
// commit record, gob-encoded and framed, with no format header.
func gobEraManifest(t testing.TB) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&struct {
		Seq      uint64
		Op       uint8
		Table    string
		Snapshot string
		Digest   []byte
		Rows     int
	}{Seq: 1, Op: 1, Table: "T", Snapshot: "0000000000000001.snap", Digest: make([]byte, 32), Rows: 1}); err != nil {
		t.Fatal(err)
	}
	rec, err := frameRecord(payload.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestOldFormatRefused: a data directory an earlier build wrote — one
// built here with a gob manifest, the litter a crash leaves and no
// tables/ or jobs/ directory, and one the previous sjserver wrote
// (testdata/gob-era: two uploads, a join and a spooled job) — is
// refused by Open with the old-format error, and every file in it is
// byte-identical afterwards, none added or removed.
func TestOldFormatRefused(t *testing.T) {
	built := map[string]string{
		manifestName:                         string(gobEraManifest(t)),
		compactName:                          "half a compaction",
		"0000000000000001.snap":              "stray",
		tablesDir + "/" + tmpPrefix + "x":    "litter", // would be swept
		tablesDir + "/0000000000000009.snap": "orphan",
	}
	parent := dirFiles(t, filepath.Join("testdata", "gob-era"))
	for name, files := range map[string]map[string]string{"built": built, "sjserver": parent} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			writeFiles(t, dir, files)
			before := dirFiles(t, dir)
			s, err := Open(dir)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a gob-era data directory")
			}
			for _, want := range []string{"gob", "move the data directory aside", "re-upload"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
			if !errors.Is(err, errOldFormat) {
				t.Errorf("error %v is not errOldFormat", err)
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("Open changed the directory:\nbefore %q\nafter  %q", sortedKeys(before), sortedKeys(after))
			}
		})
	}
}

// storeState is what a reopened store serves.
type storeState struct {
	tables map[string][]byte
	ledger [][]leakage.RowRef
	jobs   []JobMeta
}

func stateOf(t testing.TB, s *Store) storeState {
	t.Helper()
	tables, ledger := tableState(t, s)
	return storeState{tables: tables, ledger: ledger, jobs: s.Jobs()}
}

// TestManifestTruncatedAtEveryOffset: a real manifest — two commits, a
// ledger delta, a done job and a failed job — cut at every
// byte offset, beside the files the directory held when that record was
// being appended, opens to the state of its longest intact prefix,
// with one Damage for the torn tail and none when the cut falls on a
// record boundary (a cut inside the format header is a header torn
// while the manifest was created: the store is empty, with one
// Damage). Open must never fail or panic.
func TestManifestTruncatedAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	c := newTestClient(t)
	s := mustOpen(t, base)
	var (
		ends   []int64 // manifest size after each step
		states []storeState
		files  []map[string]string // the directory after each step, manifest excluded
	)
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(base, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		f := dirFiles(t, base)
		delete(f, manifestName)
		ends, states, files = append(ends, fi.Size()), append(states, stateOf(t, s)), append(files, f)
	}
	step(nil)
	step(s.Commit(encTable(t, c, "T1", true, "a")))
	step(s.Commit(encTable(t, c, "T2", false, "b")))
	step(s.RecordLedger([][]leakage.RowRef{merge("T1", "T2", 0)}))
	step(s.CommitJob(JobMeta{ID: "done", State: "done", TableA: "T1", TableB: "T2", RevealedPairs: 1, CreatedUnix: 5, StartedUnix: 6, FinishedUnix: 7},
		[]JobRow{{RowA: 0, RowB: 0, PayloadA: []byte("pa"), PayloadB: []byte("pb")}}))
	step(s.CommitJob(JobMeta{ID: "failed", State: "failed", TableA: "T1", TableB: "X", Err: "unknown table", CreatedUnix: 8, FinishedUnix: 9}, nil))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(base, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(manifest)) != ends[len(ends)-1] {
		t.Fatalf("manifest of %d bytes, last step ended at %d", len(manifest), ends[len(ends)-1])
	}

	for off := int64(0); off <= int64(len(manifest)); off++ {
		k := 0 // the last step whose records fit in off bytes
		for k+1 < len(ends) && ends[k+1] <= off {
			k++
		}
		dir := filepath.Join(t.TempDir(), "data")
		writeFiles(t, dir, files[k])
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		want, wantDamage := states[k], 1
		if off == 0 || off == ends[k] {
			wantDamage = 0
		}
		if d := s.Damaged(); len(d) != wantDamage {
			t.Fatalf("cut at %d: damage %v, want %d report(s)", off, d, wantDamage)
		}
		if got := stateOf(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d (after step %d): state %+v, want %+v", off, k, got, want)
		}
		s.Close()
	}
}

// TestRecordRoundTrip: every op's record reads back as itself.
func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range fuzzSeedRecords() {
		b, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := readRecord(bufio.NewReader(bytes.NewReader(b)))
		if err != nil || n != int64(len(b)) {
			t.Fatalf("op %d: read %d of %d bytes: %v", rec.Op, n, len(b), err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("op %d: parsed %+v, want %+v", rec.Op, got, rec)
		}
	}
}

// fuzzSeedRecords is one record of each op.
func fuzzSeedRecords() []*record {
	digest := bytes.Repeat([]byte{0xab}, 32)
	return []*record{
		{Op: opCommit, Seq: 1, Table: "T", Snapshot: "0000000000000001.snap", Digest: digest},
		{Op: opJob, Seq: 2, Snapshot: "0000000000000002.spool", Digest: digest, Job: JobMeta{
			ID: "0123456789abcdef", State: "done", TableA: "A", TableB: "B",
			RowsDecrypted: 4, StepsDone: 2, RevealedPairs: 1, ResultRows: 1,
			CreatedUnix: 1700000000, StartedUnix: 1700000001, FinishedUnix: 1700000002,
		}},
		{Op: opJob, Seq: 3, Job: JobMeta{ID: "failed", State: "failed", Err: "unknown table"}},
		{Op: opJobDelete, Seq: 4, Job: JobMeta{ID: "0123456789abcdef"}},
		{Op: opLedger, Seq: 5, Merges: [][]leakage.RowRef{merge("A", "B", 0), {{Table: "A", Row: 1}, {Table: "B", Row: 7}, {Table: "C", Row: 70000}}}},
	}
}

// FuzzReadRecord: reading framed records off arbitrary bytes never
// panics, and a record it accepts re-encodes to exactly the bytes it
// consumed. The corpus under testdata/fuzz/FuzzReadRecord seeds one
// record of each op, a record of the retired op 2 (delete, now
// malformed), a gob-era record, an oversized length, a bad CRC and a
// payload with trailing bytes.
func FuzzReadRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		off := int64(0)
		for {
			rec, n, err := readRecord(br)
			if err == io.EOF {
				return
			}
			if errors.Is(err, errBadRecord) {
				off += n
				continue
			}
			if err != nil {
				if !errors.Is(err, errTorn) {
					t.Fatalf("error %v is neither torn nor malformed", err)
				}
				return
			}
			b, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("accepted record does not encode: %v", err)
			}
			if !bytes.Equal(b, data[off:off+n]) {
				t.Fatalf("accepted record at %d re-encodes to different bytes", off)
			}
			off += n
		}
	})
}
