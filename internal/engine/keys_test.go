package engine

import (
	"bytes"
	"testing"

	"repro/internal/securejoin"
)

// TestKeyExportRoundTrip: a client reconstructed from exported keys
// must be able to (i) decrypt payloads sealed by the original client,
// (ii) issue tokens that match ciphertexts produced by the original
// client, and (iii) use the SSE pre-filter of previously built indexes.
func TestKeyExportRoundTrip(t *testing.T) {
	orig, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	teams, employees := exampleTables()
	encT, err := orig.EncryptTableIndexed("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := orig.EncryptTableIndexed("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	server.Upload(encT)
	server.Upload(encE)

	var buf bytes.Buffer
	if err := orig.ExportKeys(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadClientKeys(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Query with the restored client against tables uploaded by the
	// original client.
	q, err := restored.NewQuery(
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
		t.Fatalf("restored client's query returned %d rows", len(rows))
	}
	payload, err := restored.OpenPayload(rows[0].PayloadB)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "kaily" {
		t.Fatalf("payload = %q", payload)
	}

	// Pre-filtered path with restored SSE keys.
	pq, err := restored.NewPrefilterQuery(
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
		t.Fatalf("restored client's prefiltered query returned %d rows", len(rows2))
	}

	// New rows encrypted by the restored client join against old ones.
	extra, err := restored.EncryptTable("Extra", []PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("anything")}, Payload: []byte("extra")},
	})
	if err != nil {
		t.Fatal(err)
	}
	server.Upload(extra)
	q2, err := restored.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	rows3, _, err := join(server, "Extra", "Teams", JoinSpec{Query: q2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows3) != 1 {
		t.Fatalf("cross-session encryption compatibility broken: %d rows", len(rows3))
	}
}

func TestLoadClientKeysRejectsGarbage(t *testing.T) {
	if _, err := LoadClientKeys(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty key file accepted")
	}
	if _, err := LoadClientKeys(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage key file accepted")
	}
}
