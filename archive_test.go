package adpm

import (
	"os"
	"strings"
	"testing"

	"repro/internal/figures"
)

// archivePath is the checked-in output of
// `go run ./cmd/repro -fig all -runs 60 -seed 1`, the numbers
// EXPERIMENTS.md quotes.
const archivePath = "docs/results-fig-all.txt"

// TestFig9MatchesArchive regenerates Fig. 9 at the archive's settings
// and requires its rendering to match the archive's Fig. 9 section byte
// for byte, so the engine cannot drift away from the published numbers
// unnoticed. After an intended change, regenerate the archive with the
// command above and explain every moved number in EXPERIMENTS.md.
func TestFig9MatchesArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	data, err := os.ReadFile(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	archive := string(data)
	start := strings.Index(archive, "Fig. 9(a)")
	if start < 0 {
		t.Fatalf("%s: no Fig. 9 section", archivePath)
	}
	n := strings.Index(archive[start:], "Fig. 10 ")
	if n < 0 {
		t.Fatalf("%s: no Fig. 10 section after Fig. 9", archivePath)
	}
	want := archive[start : start+n]

	f, err := figures.Fig9(figures.Options{Runs: 60, Seed: 1, MaxOps: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// cmd/repro prints the rendering with Println.
	got := f.Render() + "\n"
	if got != want {
		t.Errorf("Fig. 9 differs from %s\n--- got\n%s--- want\n%s", archivePath, got, want)
	}
}
