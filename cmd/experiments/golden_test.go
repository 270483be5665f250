package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"powerchief/internal/harness"
)

// benchArtifacts are the committed results powerbench writes, not this
// command.
var benchArtifacts = map[string]bool{
	"BENCH_arbiter.json":     true,
	"BENCH_benchnet.json":    true,
	"BENCH_multitenant.json": true,
}

// TestFiguresGolden regenerates every experiment with the default seed and
// compares each file byte-for-byte against the committed results: the DES
// engine is exactly deterministic per seed, so any drift here means a code
// change altered the reproduction. The set of files written must equal the
// committed set, apart from powerbench's artifacts. Regenerate intentionally
// with:
//
//	go run ./cmd/experiments -fig N
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates DES experiments; skipped in -short")
	}
	golden := filepath.Join("..", "..", "results")
	dir := t.TempDir()
	if err := writeFigures(dir, "all", 7, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, got := fileNames(t, golden), fileNames(t, dir)
	want = slices.DeleteFunc(want, func(name string) bool { return benchArtifacts[name] })
	if !slices.Equal(got, want) {
		t.Fatalf("wrote %v, committed %v", got, want)
	}
	for _, name := range want {
		t.Run(name, func(t *testing.T) { compareGolden(t, dir, golden, name) })
	}
}

// TestRowsGolden regenerates each row of the table on its own: a row's
// bytes may not depend on which other rows share its runs.
func TestRowsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates DES experiments; skipped in -short")
	}
	golden := filepath.Join("..", "..", "results")
	for _, row := range harness.Table() {
		t.Run(row.Name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeFigures(dir, row.Name, 7, io.Discard); err != nil {
				t.Fatal(err)
			}
			names := fileNames(t, dir)
			if len(names) == 0 {
				t.Fatal("row wrote no file")
			}
			for _, name := range names {
				compareGolden(t, dir, golden, name)
			}
		})
	}
}

// compareGolden checks dir/name byte for byte against golden/name.
func compareGolden(t *testing.T, dir, golden, name string) {
	t.Helper()
	w, err := os.ReadFile(filepath.Join(golden, name))
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s drifted from the committed golden.\n--- got ---\n%s\n--- want ---\n%s", name, g, w)
	}
}

// fileNames lists a directory's file names in sorted order.
func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
