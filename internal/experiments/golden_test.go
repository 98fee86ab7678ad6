package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/golden"
	"github.com/dydroid/dydroid/internal/service"
)

// TestGoldenVerdicts pins every per-app verdict at seed 2016, scale 0.02:
// one line per app with its index, package and the SHA-256 of its served
// record. The record's digest is blanked, so a change of verdict identity
// does not churn the file; any change to what an app is found to do does.
// The run at the default worker count and the run at four workers must
// both match the one committed file. go test ./internal/experiments -run
// Golden -update regenerates testdata/.
func TestGoldenVerdicts(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("golden verdicts pin outputs, not concurrency; skipped under the race detector")
	}
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			goldenVerdicts(t, workers, *golden.Update && workers == 0)
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
	pkgs := make([]string, len(res.Records))
	records := make([][]byte, len(res.Records))
	for i, rec := range res.Records {
		raw, err := service.NewRecord("", rec.Result, nil).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		pkgs[i], records[i] = rec.Meta.Package, raw
	}
	golden.Verdicts(t, filepath.Join("testdata", "verdicts-2016-0.02.txt"), pkgs, records, rewrite)
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
	golden.Text(t, filepath.Join("testdata", "report-2016-0.05.txt"), []byte(body), *golden.Update)
}
