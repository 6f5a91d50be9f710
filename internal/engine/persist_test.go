package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/securejoin"
	"repro/internal/wire"
)

func TestSaveLoadTable(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	teams, employees := exampleTables()
	encT, err := client.EncryptTableIndexed("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTable("Employees", employees) // no index
	if err != nil {
		t.Fatal(err)
	}

	var bufT, bufE bytes.Buffer
	if err := SaveTable(&bufT, encT); err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(&bufE, encE); err != nil {
		t.Fatal(err)
	}

	loadedT, err := LoadTable(&bufT)
	if err != nil {
		t.Fatal(err)
	}
	loadedE, err := LoadTable(&bufE)
	if err != nil {
		t.Fatal(err)
	}
	if loadedT.Name != "Teams" || len(loadedT.Rows) != 2 {
		t.Fatalf("loaded table header wrong: %s/%d", loadedT.Name, len(loadedT.Rows))
	}
	if loadedT.Index == nil {
		t.Fatal("index lost in round trip")
	}
	if loadedE.Index != nil {
		t.Fatal("index appeared from nowhere")
	}

	// The reloaded tables must answer queries identically.
	server := NewServer()
	server.Upload(loadedT)
	server.Upload(loadedE)
	q, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("reloaded tables returned %d rows", len(rows))
	}
	payload, err := client.OpenPayload(rows[0].PayloadB)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "kaily" {
		t.Fatalf("payload = %q", payload)
	}

	// Pre-filtered execution also works on a reloaded indexed table.
	pq, err := client.NewPrefilterQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows2, _, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 1 {
		t.Fatalf("prefiltered query on reloaded table returned %d rows", len(rows2))
	}
}

// snapshotFrames frames requests the way SaveTable does, without the
// rules UploadChunks follows, to build snapshots that break them.
func snapshotFrames(t testing.TB, reqs ...*wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	for _, r := range reqs {
		if err := c.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// snapshotCase is one snapshot image and the error LoadTable must give
// on it ("" when it must load).
type snapshotCase struct {
	name string
	data []byte
	want string
}

// snapshotCases returns two valid snapshots, an indexed two-row table
// with shard annotations and an empty table, and one snapshot breaking
// each rule LoadTable holds a snapshot to. They seed FuzzLoadTable's
// corpus.
func snapshotCases(t testing.TB) []snapshotCase {
	t.Helper()
	client, err := NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := client.EncryptTableIndexed("T", []PlainRow{
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("p")},
		{JoinValue: []byte("y"), Attrs: [][]byte{[]byte("b")}, Payload: []byte("q")},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc.Shard, enc.ShardCount = 1, 3
	empty, err := client.EncryptTable("E", nil)
	if err != nil {
		t.Fatal(err)
	}
	var valid, validEmpty bytes.Buffer
	if err := SaveTable(&valid, enc); err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(&validEmpty, empty); err != nil {
		t.Fatal(err)
	}
	chunks, err := UploadChunks(enc)
	if err != nil {
		t.Fatal(err)
	}
	commit := *chunks[0]
	first := &wire.UploadRequest{Table: "T", Rows: commit.Rows[:1]}
	second := commit
	second.Rows, second.Append = commit.Rows[1:], true
	otherTable, notAppend, indexFirst := second, second, *first
	otherTable.Table = "U"
	notAppend.Append = false
	indexFirst.Index = commit.Index

	type gobRow struct{ Join, Payload []byte }
	var gobEra bytes.Buffer
	if err := gob.NewEncoder(&gobEra).Encode(&struct {
		Name string
		Rows []gobRow
	}{Name: "T", Rows: []gobRow{{Join: commit.Rows[0].JoinCiphertext, Payload: []byte("p")}}}); err != nil {
		t.Fatal(err)
	}
	// The second row cut to one element fewer: every element is a valid
	// G1 point, but the rows no longer share one dimension.
	mixed := commit
	short := bytes.Clone(commit.Rows[1].JoinCiphertext[:len(commit.Rows[1].JoinCiphertext)-64])
	binary.BigEndian.PutUint32(short, binary.BigEndian.Uint32(short)-1)
	mixed.Rows = []wire.UploadRow{commit.Rows[0], {JoinCiphertext: short, Payload: commit.Rows[1].Payload}}
	// The first element of the first row's ciphertext, after its
	// 4-byte element count, with its top byte set: x >= p.
	flipped := bytes.Clone(valid.Bytes())
	flipped[bytes.Index(flipped, commit.Rows[0].JoinCiphertext)+4] = 0xff

	return []snapshotCase{
		{"valid_indexed", valid.Bytes(), ""},
		{"valid_empty", validEmpty.Bytes(), ""},
		// The same two rows split into two chunks obey every staging
		// rule, but UploadChunks puts both in one.
		{"two_chunks", snapshotFrames(t, &wire.Request{Upload: first}, &wire.Request{Upload: &second}), "not the [2] UploadChunks writes"},
		{"gob_era", gobEra.Bytes(), "not an upload snapshot, re-upload the table"},
		{"truncated_mid_frame", valid.Bytes()[:valid.Len()/2], "truncated frame"},
		{"frame_after_commit", append(bytes.Clone(valid.Bytes()), snapshotFrames(t, &wire.Request{Upload: first})...), "data after the Commit chunk"},
		{"other_table", snapshotFrames(t, &wire.Request{Upload: first}, &wire.Request{Upload: &otherTable}), `names table "U", not "T"`},
		{"second_not_append", snapshotFrames(t, &wire.Request{Upload: first}, &wire.Request{Upload: &notAppend}), "Append is false"},
		{"carries_join", snapshotFrames(t, &wire.Request{Upload: &commit, Join: &wire.JoinRequest{TableA: "T", TableB: "T"}}), "not a bare upload request"},
		{"request_id", snapshotFrames(t, &wire.Request{ID: 1, Upload: &commit}), "not a bare upload request"},
		{"index_before_commit", snapshotFrames(t, &wire.Request{Upload: &indexFirst}, &wire.Request{Upload: &second}), "Commit fields before the Commit chunk"},
		{"no_commit", snapshotFrames(t, &wire.Request{Upload: first}), "ends before its Commit chunk"},
		{"bit_flip", flipped, "row 0"},
		{"mixed_dimension", snapshotFrames(t, &wire.Request{Upload: &mixed}), "row 1 has dimension 4, row 0 has 5"},
		{"empty_file", nil, "ends before its Commit chunk"},
	}
}

func TestLoadTableRejectsCorruption(t *testing.T) {
	for _, c := range snapshotCases(t) {
		tab, err := LoadTable(bytes.NewReader(c.data))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "":
			var buf bytes.Buffer
			if err := SaveTable(&buf, tab); err != nil || !bytes.Equal(buf.Bytes(), c.data) {
				t.Errorf("%s: does not save back to the same bytes (%v)", c.name, err)
			}
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q, want it to say %q", c.name, err, c.want)
		}
	}
}

// TestLoadTableAllocatesWhatArrives: a 7-byte snapshot whose first
// header announces a frame of wire.MaxFrameSize bytes is refused
// without a buffer of that size.
func TestLoadTableAllocatesWhatArrives(t *testing.T) {
	data := binary.BigEndian.AppendUint32(nil, wire.MaxFrameSize)
	data = append(data, 3, 0, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadTable(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncatedFrame) {
		t.Fatalf("got %v, want wire.ErrTruncatedFrame", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("LoadTable of a 7-byte input allocated %d bytes", n)
	}
}

// TestCommitUploadRefusesMixedDimensions: a table's rows must share one
// dimension, the element count of its join tokens. CommitUpload, which
// installs every wire upload and every loaded snapshot, refuses rows of
// two parameter sets and accepts rows of one.
func TestCommitUploadRefusesMixedDimensions(t *testing.T) {
	rows := func(params securejoin.Params) []*EncryptedRow {
		client, err := NewClient(params, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := client.EncryptTable("T", []PlainRow{{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}}})
		if err != nil {
			t.Fatal(err)
		}
		return enc.Rows
	}
	d5, d6 := rows(securejoin.Params{M: 1, T: 1}), rows(securejoin.Params{M: 1, T: 2})
	up := &wire.UploadRequest{Table: "T", Commit: true}
	if _, err := CommitUpload(up, append(d5, d6...)); err == nil || err.Error() != "row 1 has dimension 6, row 0 has 5" {
		t.Fatalf("rows of dimensions 5 and 6: %v", err)
	}
	tab, err := CommitUpload(up, append(d6, d6...))
	if err != nil || tab.TokenDim(0) != 6 {
		t.Fatalf("two rows of dimension 6: table %+v, %v", tab, err)
	}
	if tab, err := CommitUpload(up, nil); err != nil || tab.TokenDim(7) != 7 {
		t.Fatalf("empty table: %+v, %v; want it to take the other token's count", tab, err)
	}
}

// TestSnapshotIsTheUploadSequence: a snapshot is exactly the frames of
// the table's UploadChunks, for an empty table, one row, 16 rows, rows
// that overflow one chunk and an index that needs its own Commit chunk
// (the last two built from rows with frame-sized payloads), and each
// loads back to the same table.
func TestSnapshotIsTheUploadSequence(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	table := func(name string, n int) *EncryptedTable {
		rows := make([]PlainRow, n)
		for i := range rows {
			rows[i] = PlainRow{JoinValue: []byte{byte(i % 3)}, Attrs: [][]byte{{byte(i % 2)}}, Payload: []byte{byte(i)}}
		}
		enc, err := client.EncryptTableIndexed(name, rows)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	// Two rows whose payloads fill more than half a frame each.
	split := table("split", 2)
	for _, r := range split.Rows {
		r.Payload = make([]byte, wire.FrameByteBudget/2)
	}
	// One row that leaves less room in its chunk than the index needs.
	alone := table("alone", 1)
	idx, err := alone.Index.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	jc, err := alone.Rows[0].Join.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	alone.Rows[0].Payload = make([]byte, wire.FrameByteBudget-rowOverhead-len(jc)-len(idx)+1)

	for _, tc := range []struct {
		t      *EncryptedTable
		chunks int
	}{{table("zero", 0), 1}, {table("one", 1), 1}, {table("sixteen", 16), 1}, {split, 2}, {alone, 2}} {
		chunks, err := UploadChunks(tc.t)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != tc.chunks {
			t.Fatalf("%s: %d chunks, want %d", tc.t.Name, len(chunks), tc.chunks)
		}
		reqs := make([]*wire.Request, len(chunks))
		for i, up := range chunks {
			reqs[i] = &wire.Request{Upload: up}
		}
		want := snapshotFrames(t, reqs...)
		var buf bytes.Buffer
		if err := SaveTable(&buf, tc.t); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: snapshot is not the upload frames", tc.t.Name)
		}
		loaded, err := LoadTable(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", tc.t.Name, err)
		}
		buf.Reset()
		if err := SaveTable(&buf, loaded); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: reloaded table saves different bytes (%v)", tc.t.Name, err)
		}
	}
}

// FuzzLoadTable: no snapshot makes LoadTable panic, and one it accepts
// saves back to the same bytes. The corpus under
// testdata/fuzz/FuzzLoadTable holds snapshotCases' images.
func FuzzLoadTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := LoadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveTable(&buf, tab); err != nil {
			t.Fatalf("accepted snapshot does not save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted snapshot saves back to different bytes")
		}
	})
}
