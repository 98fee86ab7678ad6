package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/golden"
)

// raceDetectorEnabled is flipped by race_test.go under `go test -race`.
var raceDetectorEnabled bool

// TestGoldenServedVerdicts pins what the daemon serves: a Server built as
// cmd/dydroidd builds it (the seed-7, scale-0.001 marketplace, its
// classifier, the Bouncer review and the default monkey budget) is sent
// every distinct archive of the seed-2016, scale-0.005 store over POST
// /v1/scan. One line per app holds its index, its package and the SHA-256
// of the served record with the digest blanked and the review verdict and
// reason included. The run at the default worker count and the run at
// four workers must both match the one committed file. go test
// ./internal/service -run Golden -update regenerates it.
func TestGoldenServedVerdicts(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("golden verdicts pin outputs, not concurrency; skipped under the race detector")
	}
	market, err := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := market.TrainingSet(3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := corpus.Generate(corpus.Config{Seed: 2016, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	var apks [][]byte
	seen := make(map[string]bool)
	for _, app := range src.Apps {
		data, err := src.BuildAPK(app)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[digest] {
			seen[digest] = true
			pkgs = append(pkgs, app.Meta.Package)
			apks = append(apks, data)
		}
	}
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newStubServer(t, Config{
				Analyzer: core.NewAnalyzer(core.Options{
					Seed: 7, Classifier: clf, Network: market.Network, SetupDevice: market.SetupDevice,
				}),
				Reviewer: &bouncer.Reviewer{Classifier: clf, Network: market.Network},
				Workers:  workers,
			}, nil)
			records := serveAll(t, ts.URL, apks)
			golden.Verdicts(t, filepath.Join("testdata", "served-2016-0.005.txt"),
				pkgs, records, *golden.Update && workers == 0)
		})
	}
}

// serveAll submits every archive over POST /v1/scan, eight at a time so
// the queue never refuses one, and returns each served record with its
// digest blanked.
func serveAll(t *testing.T, url string, apks [][]byte) [][]byte {
	records := make([][]byte, len(apks))
	errs := make([]error, len(apks))
	next := make(chan int)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				digest, err := submit(url, apks[i])
				if err == nil {
					records[i], err = awaitResult(url, digest)
				}
				if err == nil {
					records[i] = bytes.Replace(records[i], []byte(`"digest":"`+digest+`"`), []byte(`"digest":""`), 1)
				}
				errs[i] = err
			}
		}()
	}
	for i := range apks {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}
	return records
}

// awaitResult polls GET /v1/result until the verdict is served.
func awaitResult(url, digest string) ([]byte, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/result/" + digest)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return nil, err
		case resp.StatusCode == http.StatusOK:
			return body, nil
		case resp.StatusCode != http.StatusAccepted:
			return nil, fmt.Errorf("result poll: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("verdict of %s never arrived", digest)
}
