package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
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
		t.Run(name, func(t *testing.T) {
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
		})
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
