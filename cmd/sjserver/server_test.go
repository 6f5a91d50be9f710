package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOldDataDirRefused: a data directory an earlier sjserver wrote
// (gob manifest records) stops startup with an error that says what to
// do, and the server never opens it for writing.
func TestOldDataDirRefused(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "store", "testdata", "gob-era")
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(nil, dir)
	if err == nil {
		srv.Close()
		t.Fatal("sjserver started on a gob-era data directory")
	}
	for _, want := range []string{dir, "gob", "move the data directory aside and re-upload"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if after, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err != nil || string(after) != string(before) {
		t.Fatalf("MANIFEST changed: %v", err)
	}
}
