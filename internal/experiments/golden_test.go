package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/service"
)

// update regenerates the golden files: go test ./internal/experiments
// -run Golden -update. List every regeneration in CHANGES.md with the
// apps that moved and why.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenVerdicts pins every per-app verdict at seed 2016, scale 0.02:
// one line per app with its index, package and the SHA-256 of its served
// record. The record's digest is blanked, so a change of verdict identity
// does not churn the file; any change to what an app is found to do does.
// The run at the default worker count and the run at four workers must
// both match the one committed file.
func TestGoldenVerdicts(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("golden verdicts pin outputs, not concurrency; skipped under the race detector")
	}
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			goldenVerdicts(t, workers, *update && workers == 0)
		})
	}
}

// goldenVerdicts runs the scale-0.02 store at the given worker count and
// compares its verdict lines with the committed file, first rewriting the
// file when rewrite is set.
func goldenVerdicts(t *testing.T, workers int, rewrite bool) {
	res, err := Run(Config{Seed: 2016, Scale: 0.02, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	records := make([][]byte, len(res.Records))
	for i, rec := range res.Records {
		raw, err := service.NewRecord("", rec.Result, nil).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		records[i] = raw
		fmt.Fprintf(&lines, "%d %s %x\n", i, rec.Meta.Package, sha256.Sum256(raw))
	}
	path := filepath.Join("testdata", "verdicts-2016-0.02.txt")
	want := golden(t, path, lines.Bytes(), rewrite)
	if bytes.Equal(want, lines.Bytes()) {
		return
	}
	// Dump every current record, one JSON line per app, for diffing
	// against a run of the parent revision. The directory outlives the
	// test (t.TempDir would be removed with it).
	dir, err := os.MkdirTemp("", "golden-verdicts-")
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(dir, "records.jsonl")
	if err := os.WriteFile(dump, append(bytes.Join(records, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	i, gotLine, wantLine := firstDiff(lines.String(), string(want))
	t.Fatalf("verdict of app %d changed (records in %s):\n got: %s\nwant: %s\nrecord: %s",
		i, dump, gotLine, wantLine, records[min(i, len(records)-1)])
}

// TestGoldenReport pins the rendered scale-0.05 report below its
// elapsed-time header.
func TestGoldenReport(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("golden report pins outputs, not concurrency; skipped under the race detector")
	}
	res, err := Run(Config{Seed: 2016, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(res.Report(), "\n")
	path := filepath.Join("testdata", "report-2016-0.05.txt")
	if want := golden(t, path, []byte(body), *update); string(want) != body {
		i, gotLine, wantLine := firstDiff(body, string(want))
		t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", path, i+2, gotLine, wantLine)
	}
}

// firstDiff returns the index of the first line where got and want
// differ, and the two lines there ("<missing>" past either's end).
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<missing>"
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return i, line(g, i), line(w, i)
}

// golden returns the committed contents of path, first rewriting it with
// got when rewrite is set.
func golden(t *testing.T, path string, got []byte, rewrite bool) []byte {
	t.Helper()
	if rewrite {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	return want
}
