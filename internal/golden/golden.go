// Package golden is the golden-file flow shared by the tests that pin
// outputs: the -update flag that rewrites the committed files, and the
// comparisons that report the first line where a run departs from them.
// Only tests import it.
package golden

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Update rewrites the golden files instead of checking them, e.g. go test
// ./internal/experiments -run Golden -update. List every regeneration in
// CHANGES.md with the apps that moved and why.
var Update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// Text fails t when got differs from the committed file at path, naming
// the first differing line. With rewrite set the file is first rewritten
// with got.
func Text(t testing.TB, path string, got []byte, rewrite bool) {
	t.Helper()
	want := read(t, path, got, rewrite)
	if !bytes.Equal(want, got) {
		i, gotLine, wantLine := firstDiff(string(got), string(want))
		t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLine, wantLine)
	}
}

// Verdicts pins one line per app: its index, its package and the SHA-256
// of its record. When the lines differ from the committed file at path,
// every record is dumped as one JSON line per app to a directory that
// outlives the test, for diffing against a run of the parent revision,
// and t fails naming the first app that moved. With rewrite set the file
// is first rewritten.
func Verdicts(t testing.TB, path string, pkgs []string, records [][]byte, rewrite bool) {
	t.Helper()
	var lines bytes.Buffer
	for i, raw := range records {
		fmt.Fprintf(&lines, "%d %s %x\n", i, pkgs[i], sha256.Sum256(raw))
	}
	want := read(t, path, lines.Bytes(), rewrite)
	if bytes.Equal(want, lines.Bytes()) {
		return
	}
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

// read returns the committed contents of path, first rewriting it with
// got when rewrite is set.
func read(t testing.TB, path string, got []byte, rewrite bool) []byte {
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
