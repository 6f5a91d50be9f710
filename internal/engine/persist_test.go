package engine

import (
	"bytes"
	"testing"

	"repro/internal/securejoin"
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

func TestLoadTableRejectsCorruption(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := client.EncryptTable("T", []PlainRow{
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("p")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTable(&buf, enc); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt a byte near the middle (inside a ciphertext element).
	data[len(data)/2] ^= 0xff
	if _, err := LoadTable(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted table accepted")
	}
	if _, err := LoadTable(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}
