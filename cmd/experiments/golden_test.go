package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"powerchief/internal/harness"
)

// TestFiguresGolden regenerates the quick DES figures with the default seed
// and compares them byte-for-byte against the committed results. The DES
// engine is exactly deterministic per seed, so any drift here means a code
// change altered the reproduction — most importantly, it pins that the
// statistics-pipeline refactor (sharded aggregator, merge-on-read windows)
// left every published number untouched. Regenerate intentionally with:
//
//	go run ./cmd/experiments -fig N
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates DES experiments; skipped in -short")
	}
	const seed = 7
	for _, tc := range []struct {
		golden string
		render func(io.Writer) error
	}{
		{"figure2.txt", func(w io.Writer) error {
			res, err := harness.Figure2(seed)
			if err != nil {
				return err
			}
			return harness.WriteFigure2(w, res)
		}},
		{"figure4.txt", func(w io.Writer) error {
			res, err := harness.Figure4(seed)
			if err != nil {
				return err
			}
			return harness.WriteFigure(w, res)
		}},
		{"figure10.txt", func(w io.Writer) error {
			res, err := harness.Figure10(seed)
			if err != nil {
				return err
			}
			return harness.WriteFigure(w, res)
		}},
		// The audit timeline: pins every identify, recycle, withdraw and
		// outcome event, in order, through the one control tick.
		{"decisions.txt", func(w io.Writer) error { return writeDecisions(w, seed) }},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.golden))
			if err != nil {
				t.Fatalf("missing golden (run `go run ./cmd/experiments` first): %v", err)
			}
			var got bytes.Buffer
			if err := tc.render(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s drifted from the committed golden.\n--- got ---\n%s\n--- want ---\n%s",
					tc.golden, got.Bytes(), want)
			}
		})
	}
}
