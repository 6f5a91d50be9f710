package server

import (
	"bytes"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
)

// TestCrossSessionKeys simulates a client restart: upload in one
// session, export the keys, reconnect with restored keys and query the
// previously uploaded tables.
func TestCrossSessionKeys(t *testing.T) {
	addr := startServer(t)

	// Session 1: fresh keys, upload.
	c1 := dial(t, addr)
	rows := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("left")},
	}
	rowsR := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("b")}, Payload: []byte("right")},
	}
	if err := c1.Upload("L", rows); err != nil {
		t.Fatal(err)
	}
	if err := c1.Upload("R", rowsR); err != nil {
		t.Fatal(err)
	}
	var keyBuf bytes.Buffer
	if err := c1.Keys().ExportKeys(&keyBuf); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Session 2: restored keys.
	keys, err := engine.LoadClientKeys(&keyBuf)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := client.DialWithKeys(addr, keys)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	results, _, err := c2.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("cross-session query returned %d rows", len(results))
	}
	if string(results[0].PayloadA) != "left" || string(results[0].PayloadB) != "right" {
		t.Fatalf("payloads = %q, %q", results[0].PayloadA, results[0].PayloadB)
	}
}

// TestFreshKeysCannotQueryOldTables: a client with NEW keys must find
// nothing in tables uploaded under old keys (and must not be able to
// open their payloads).
func TestFreshKeysCannotQueryOldTables(t *testing.T) {
	addr := startServer(t)
	c1 := dial(t, addr)
	rows := []engine.PlainRow{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("a")}, Payload: []byte("secret")},
	}
	if err := c1.Upload("L", rows); err != nil {
		t.Fatal(err)
	}
	if err := c1.Upload("R", rows); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := dial(t, addr) // fresh keys
	results, _, err := c2.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("fresh-key client matched %d rows of foreign tables", len(results))
	}
}
