package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/metrics"
)

// TestConcurrentScansMatchDirectRuns submits 32 distinct corpus APKs at
// once to a four-worker server whose analyzer provisions every device
// from one Store. Each served record must equal the record of a direct
// bouncer review plus core run of the same bytes: a verdict depends
// neither on the worker count nor on what the other workers analyze.
func TestConcurrentScansMatchDirectRuns(t *testing.T) {
	const n = 32
	st, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	// Apps spread over the whole store, so the sample spans the
	// archetypes; archives that repeat an earlier one's bytes are skipped.
	var apks [][]byte
	seen := make(map[string]bool)
	step := max(1, len(st.Apps)/40)
	for i := 0; i < len(st.Apps) && len(apks) < n; i += step {
		data, err := st.BuildAPK(st.Apps[i])
		if err != nil {
			t.Fatal(err)
		}
		digest, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[digest] {
			seen[digest] = true
			apks = append(apks, data)
		}
	}
	if len(apks) < n {
		t.Fatalf("only %d distinct archives at this scale", len(apks))
	}

	newAnalyzer := func() *core.Analyzer {
		return core.NewAnalyzer(core.Options{Seed: 3, Classifier: clf, Network: st.Network, SetupDevice: st.SetupDevice})
	}
	_, ts := newStubServer(t, Config{
		Analyzer: newAnalyzer(),
		Reviewer: &bouncer.Reviewer{Classifier: clf, Network: st.Network},
		Workers:  4,
	}, nil)

	digests := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, data := range apks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digests[i], errs[i] = submit(ts.URL, data)
		}()
	}
	wg.Wait()

	direct := newAnalyzer()
	reviewer := &bouncer.Reviewer{Classifier: clf, Network: st.Network}
	for i, data := range apks {
		if errs[i] != nil {
			t.Fatalf("scan %d: %v", i, errs[i])
		}
		served := pollResult(t, ts, digests[i])
		v, err := reviewer.Review(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := direct.AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewRecord(digests[i], res, &v).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) {
			t.Fatalf("scan %d: served verdict differs from a direct run:\nserved: %s\ndirect: %s", i, served, want)
		}
	}
}

// submit posts one scan and returns its digest; anything but 202 is an
// error.
func submit(url string, data []byte) (string, error) {
	resp, err := http.Post(url+"/v1/scan", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("%d %s", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return "", err
	}
	return sr.Digest, nil
}

// TestOneParsePerScan is the scan-path twin of
// experiments.TestOneParsePerApp: with the review on, each first-time
// scan parses the submitted archive exactly once, and the review and the
// pipeline both run on that parse.
func TestOneParsePerScan(t *testing.T) {
	st, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	var apks [][]byte
	seen := make(map[string]bool)
	for _, app := range st.Apps {
		data, err := st.BuildAPK(app)
		if err != nil {
			t.Fatal(err)
		}
		if digest, err := apk.SigningDigest(data); err != nil {
			t.Fatal(err)
		} else if !seen[digest] {
			seen[digest] = true
			apks = append(apks, data)
		}
	}
	reg := metrics.New()
	_, ts := newStubServer(t, Config{
		Analyzer: core.NewAnalyzer(core.Options{Seed: 3, Classifier: clf, Network: st.Network, SetupDevice: st.SetupDevice, Metrics: reg}),
		Reviewer: &bouncer.Reviewer{Classifier: clf, Network: st.Network, Metrics: reg},
		Metrics:  reg,
	}, nil)

	before := apk.ParseCalls()
	serveAll(t, ts.URL, apks)
	if parses, scans := apk.ParseCalls()-before, int64(len(apks)); parses != scans {
		t.Fatalf("%d parses for %d scans, want exactly one parse per scan", parses, scans)
	}
	reviewed := reg.Counter("bouncer.approved") + reg.Counter("bouncer.rejected")
	if reviewed != int64(len(apks)) || reg.Counter("status."+string(core.StatusExercised)) == 0 {
		t.Fatalf("%d of %d scans reviewed, %d exercised: one-parse check is vacuous",
			reviewed, len(apks), reg.Counter("status."+string(core.StatusExercised)))
	}
}
