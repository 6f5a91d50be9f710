package engine

import (
	"bytes"
	"os"
	"strings"
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

// TestGobKeyFileRefused: a key file an earlier build wrote (gob; the
// one under testdata was written by that build's sjclient keygen) is
// refused with an error asking for a new keygen.
func TestGobKeyFileRefused(t *testing.T) {
	old, err := os.ReadFile("testdata/gob-era.key")
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadClientKeys(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), "sjclient keygen") {
		t.Fatalf("gob key file: %v, want a refusal asking for sjclient keygen", err)
	}
}

// TestTruncatedKeyFileRefused: every strict prefix of a key file, and
// the file with a byte appended, is refused without a panic.
func TestTruncatedKeyFileRefused(t *testing.T) {
	c, err := NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.ExportKeys(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadClientKeys(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := LoadClientKeys(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("key file cut to %d of %d bytes accepted", n, len(full))
		}
	}
	if _, err := LoadClientKeys(bytes.NewReader(append(full, 0))); err == nil {
		t.Fatal("key file with a trailing byte accepted")
	}
}

// FuzzLoadClientKeys: no key file makes LoadClientKeys panic, and one
// it accepts exports back to the same bytes. The corpus under
// testdata/fuzz/FuzzLoadClientKeys seeds a valid file (M = 1, T = 1,
// so a master key of dimension 5) and its truncation inside each
// field, master key dimensions 0 and 4097, a singular B, a B entry not
// reduced mod q, a dimension that does not match M(T+1)+3 and a
// trailing byte.
func FuzzLoadClientKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadClientKeys(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.ExportKeys(&buf); err != nil {
			t.Fatalf("accepted key file does not export: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted key file exports to different bytes")
		}
	})
}
