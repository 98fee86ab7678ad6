package service

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/resultstore"
	"github.com/dydroid/dydroid/internal/trace"
)

// tinyAPK builds a minimal distinct archive per package name (no DCL, so
// the pipeline finishes instantly when a real analyzer runs).
func tinyAPK(t *testing.T, pkg string) []byte {
	t.Helper()
	b := dex.NewBuilder()
	b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	data, err := apk.Build(&apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newStubServer builds a server whose analyze function is replaced; the
// zero-value analyzer satisfies New but never runs.
func newStubServer(t *testing.T, cfg Config, analyze func(string, []byte) (*Record, error)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Analyzer == nil {
		cfg.Analyzer = core.NewAnalyzer(core.Options{})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if analyze != nil {
		s.analyze = func(j *job) (*Record, error) { return analyze(j.digest, j.data) }
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postScan(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getResult(t *testing.T, ts *httptest.Server, digest string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/result/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// pollResult polls until the verdict lands (or the deadline passes).
func pollResult(t *testing.T, ts *httptest.Server, digest string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getResult(t, ts, digest)
		switch resp.StatusCode {
		case http.StatusOK:
			return body
		case http.StatusAccepted:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("result poll: %d %s", resp.StatusCode, body)
		}
	}
	t.Fatal("verdict never arrived")
	return nil
}

// TestServiceEndToEnd is the acceptance scenario: a malware APK from the
// corpus submitted twice. The first submission analyzes and the verdict
// is byte-identical to a fresh direct pipeline run; the second submission
// is served from the result store without re-analysis.
func TestServiceEndToEnd(t *testing.T) {
	st, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	// Prefer a packed malware sample (the packer-evasion shape); any
	// malware app exercises the full verdict surface.
	var target *corpus.StoreApp
	for _, app := range st.Apps {
		if app.Spec.MalwareFamily == "" {
			continue
		}
		if target == nil || (app.Spec.Packed && !target.Spec.Packed) {
			target = app
		}
	}
	if target == nil {
		t.Fatal("no malware app in the store")
	}
	apkBytes, err := st.BuildAPK(target)
	if err != nil {
		t.Fatal(err)
	}

	const seed = 3
	reg := metrics.New()
	store, err := resultstore.Open(resultstore.Options{Dir: t.TempDir(), Version: RecordVersion})
	if err != nil {
		t.Fatal(err)
	}
	newAnalyzer := func(m *metrics.Registry) *core.Analyzer {
		return core.NewAnalyzer(core.Options{
			Seed: seed, Classifier: clf, Network: st.Network, SetupDevice: st.SetupDevice, Metrics: m,
		})
	}
	s, err := New(Config{
		Analyzer: newAnalyzer(reg),
		Reviewer: &bouncer.Reviewer{Classifier: clf, Network: st.Network, Metrics: reg},
		Store:    store,
		Workers:  2,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First submission: queued, then analyzed.
	resp, body := postScan(t, ts, apkBytes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first scan: %d %s", resp.StatusCode, body)
	}
	var sub scanResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	wantDigest, err := apk.SigningDigest(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Digest != wantDigest || sub.Status != "queued" {
		t.Fatalf("submission = %+v", sub)
	}
	served := pollResult(t, ts, sub.Digest)

	// The served verdict is byte-identical to a fresh direct run with the
	// same configuration.
	directReviewer := &bouncer.Reviewer{Classifier: clf, Network: st.Network}
	v, err := directReviewer.Review(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newAnalyzer(nil).AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRecord(wantDigest, res, &v).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served verdict differs from direct run:\nserved: %s\ndirect: %s", served, want)
	}
	var rec Record
	if err := json.Unmarshal(served, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Malware) == 0 {
		t.Fatalf("malware sample produced no detections: %s", served)
	}
	if rec.Review == nil {
		t.Fatal("record carries no review verdict")
	}
	if got := reg.Counter("service.analyzed"); got != 1 {
		t.Fatalf("service.analyzed = %d", got)
	}

	// Second submission: cached verdict, byte-identical, no re-analysis.
	resp, body = postScan(t, ts, apkBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second scan: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cached verdict differs:\ncached: %s\nwant: %s", body, want)
	}
	if got := reg.Counter("service.analyzed"); got != 1 {
		t.Fatalf("re-analysis happened: service.analyzed = %d", got)
	}
	if got := reg.Counter("service.scan.cached"); got != 1 {
		t.Fatalf("service.scan.cached = %d", got)
	}

	// healthz and metricz respond.
	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if !bytes.Contains(mbody, []byte("service.analyzed")) || !bytes.Contains(mbody, []byte("resultstore")) {
		t.Fatalf("metricz missing sections:\n%s", mbody)
	}

	// Drain cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullRejectsWith429 fills the bounded queue behind a blocked
// worker and checks backpressure.
func TestQueueFullRejectsWith429(t *testing.T) {
	started := make(chan string, 8)
	unblock := make(chan struct{})
	reg := metrics.New()
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg},
		func(digest string, data []byte) (*Record, error) {
			started <- digest
			<-unblock
			return &Record{Digest: digest, Status: "exercised"}, nil
		})
	defer close(unblock)

	// First job: picked up by the lone worker (blocked in analyze).
	resp, body := postScan(t, ts, tinyAPK(t, "com.q.one"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan 1: %d %s", resp.StatusCode, body)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started")
	}

	// Second job: sits in the queue (depth 1).
	resp, body = postScan(t, ts, tinyAPK(t, "com.q.two"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan 2: %d %s", resp.StatusCode, body)
	}

	// Third job: queue full → 429 with Retry-After.
	resp, body = postScan(t, ts, tinyAPK(t, "com.q.three"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("scan 3: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := reg.Counter("service.scan.rejected"); got != 1 {
		t.Fatalf("service.scan.rejected = %d", got)
	}
}

// TestRetryAfterScalesWithBacklog: the 429 backoff derives from queue
// length × recent mean analyze latency ÷ workers, instead of a
// hard-coded 1s regardless of how deep the backlog actually is.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	started := make(chan string, 8)
	unblock := make(chan struct{})
	reg := metrics.New()
	// Recent history: analyses take 4s on average.
	for i := 0; i < 8; i++ {
		reg.Observe("service.job", 4*time.Second)
	}
	_, ts := newStubServer(t, Config{Workers: 2, QueueDepth: 4, Metrics: reg},
		func(digest string, data []byte) (*Record, error) {
			started <- digest
			<-unblock
			return &Record{Digest: digest, Status: "exercised"}, nil
		})
	defer close(unblock)

	// Two jobs occupy the workers (both observed blocked in analyze), four
	// more fill the queue, so the rejected seventh sees a full queue.
	for i := 0; i < 6; i++ {
		resp, body := postScan(t, ts, tinyAPK(t, fmt.Sprintf("com.backlog.app%d", i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 1 {
			for w := 0; w < 2; w++ {
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					t.Fatal("workers never started")
				}
			}
		}
	}
	resp, body := postScan(t, ts, tinyAPK(t, "com.backlog.rejected"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated scan: %d %s", resp.StatusCode, body)
	}
	// Full queue (4) × 4s mean ÷ 2 workers = 8s to drain.
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if got != 8 {
		t.Fatalf("Retry-After = %d, want 8 (queue 4 × mean 4s / 2 workers)", got)
	}
}

// TestRetryAfterColdStart: with zero completed analyses there is no mean
// latency yet; the very first 429 must still scale with the backlog (a
// nominal 1s/job stands in) instead of answering the 1s clamp floor.
func TestRetryAfterColdStart(t *testing.T) {
	started := make(chan string, 8)
	unblock := make(chan struct{})
	reg := metrics.New()
	_, ts := newStubServer(t, Config{Workers: 2, QueueDepth: 4, Metrics: reg},
		func(digest string, data []byte) (*Record, error) {
			started <- digest
			<-unblock
			return &Record{Digest: digest, Status: "exercised"}, nil
		})
	defer close(unblock)

	// Two jobs occupy the workers, four fill the queue; nothing has ever
	// completed, so the job histogram is empty.
	for i := 0; i < 6; i++ {
		resp, body := postScan(t, ts, tinyAPK(t, fmt.Sprintf("com.cold.app%d", i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 1 {
			for w := 0; w < 2; w++ {
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					t.Fatal("workers never started")
				}
			}
		}
	}
	resp, body := postScan(t, ts, tinyAPK(t, "com.cold.rejected"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated scan: %d %s", resp.StatusCode, body)
	}
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	// Full queue (4) × nominal 1s ÷ 2 workers = 2s — backlog-shaped even
	// with zero latency history, not the misleading 1s floor.
	if got != 2 {
		t.Fatalf("cold-start Retry-After = %d, want 2 (queue 4 × 1s nominal / 2 workers)", got)
	}
}

// healthzBody fetches and decodes /v1/healthz.
func healthzBody(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHealthzReportsQueueSaturation: the degraded field flips to true at
// ≥80% queue occupancy while the endpoint keeps answering 200, so a
// coordinator's prober can deprioritize the node before it 429s.
func TestHealthzReportsQueueSaturation(t *testing.T) {
	started := make(chan string, 8)
	unblock := make(chan struct{})
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 5},
		func(digest string, data []byte) (*Record, error) {
			started <- digest
			<-unblock
			return &Record{Digest: digest, Status: "exercised"}, nil
		})
	defer close(unblock)

	if h := healthzBody(t, ts); h["degraded"] != false {
		t.Fatalf("idle healthz degraded = %v, want false", h["degraded"])
	}

	// One job blocks the worker, four more sit in the queue: 4/5 = 80%.
	for i := 0; i < 5; i++ {
		resp, body := postScan(t, ts, tinyAPK(t, fmt.Sprintf("com.sat.app%d", i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Fatal("worker never started")
			}
		}
	}
	h := healthzBody(t, ts)
	if h["degraded"] != true {
		t.Fatalf("saturated healthz = %v, want degraded=true", h)
	}
	if h["status"] != "ok" {
		t.Fatalf("saturated healthz status = %v, want ok (degraded is not down)", h["status"])
	}
}

// TestSingleflightDedup submits the same digest twice while the first
// copy is still in flight: no second job is enqueued.
func TestSingleflightDedup(t *testing.T) {
	started := make(chan string, 8)
	unblock := make(chan struct{})
	reg := metrics.New()
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 4, Metrics: reg},
		func(digest string, data []byte) (*Record, error) {
			started <- digest
			<-unblock
			return &Record{Digest: digest, Status: "exercised"}, nil
		})

	apkBytes := tinyAPK(t, "com.dedup")
	resp, _ := postScan(t, ts, apkBytes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan 1: %d", resp.StatusCode)
	}
	<-started
	resp, body := postScan(t, ts, apkBytes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan 2: %d %s", resp.StatusCode, body)
	}
	var sub scanResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Status != "pending" {
		t.Fatalf("twin submission status = %q", sub.Status)
	}
	if got := reg.Counter("service.scan.deduped"); got != 1 {
		t.Fatalf("service.scan.deduped = %d", got)
	}
	if got := reg.Counter("service.scan.queued"); got != 1 {
		t.Fatalf("service.scan.queued = %d", got)
	}
	close(unblock)
	dg, err := apk.SigningDigest(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	pollResult(t, ts, dg)
}

// TestShutdownDrainsQueuedJobs checks graceful shutdown: queued work
// completes, new submissions are refused.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	reg := metrics.New()
	s, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: reg},
		func(digest string, data []byte) (*Record, error) {
			time.Sleep(20 * time.Millisecond)
			return &Record{Digest: digest, Status: "exercised"}, nil
		})

	var digests []string
	for i := 0; i < 4; i++ {
		data := tinyAPK(t, fmt.Sprintf("com.drain.a%d", i))
		dg, err := apk.SigningDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, dg)
		if resp, body := postScan(t, ts, data); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan %d: %d %s", i, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Every queued job finished before Shutdown returned.
	for _, dg := range digests {
		if resp, body := getResult(t, ts, dg); resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s after drain: %d %s", dg, resp.StatusCode, body)
		}
	}
	if got := reg.Counter("service.analyzed"); got != 4 {
		t.Fatalf("service.analyzed = %d", got)
	}
	// The drained daemon refuses new work.
	if resp, _ := postScan(t, ts, tinyAPK(t, "com.drain.late")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown scan: %d", resp.StatusCode)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFailedAnalysisReportsAndRetries pins a pipeline failure to the
// digest (502 on poll) and lets a resubmission retry it.
func TestFailedAnalysisReportsAndRetries(t *testing.T) {
	fail := true
	reg := metrics.New()
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 4, Metrics: reg},
		func(digest string, data []byte) (*Record, error) {
			if fail {
				return nil, fmt.Errorf("injected pipeline failure")
			}
			return &Record{Digest: digest, Status: "exercised"}, nil
		})

	data := tinyAPK(t, "com.flaky")
	dg, err := apk.SigningDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postScan(t, ts, data); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getResult(t, ts, dg)
		if resp.StatusCode == http.StatusBadGateway {
			var sr scanResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Status != "failed" || sr.Error == "" {
				t.Fatalf("failure body = %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failure never surfaced: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("service.analyze.errors"); got != 1 {
		t.Fatalf("service.analyze.errors = %d", got)
	}

	// Resubmission clears the failure pin and retries.
	fail = false
	if resp, _ := postScan(t, ts, data); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rescan: %d", resp.StatusCode)
	}
	pollResult(t, ts, dg)
}

func TestScanRejectsGarbageAndUnknownResult(t *testing.T) {
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, nil)
	if resp, _ := postScan(t, ts, []byte("not an apk")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage scan: %d", resp.StatusCode)
	}
	if resp, _ := getResult(t, ts, "deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: %d", resp.StatusCode)
	}
}

func TestOversizedSubmissionRejected(t *testing.T) {
	_, ts := newStubServer(t, Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: 128}, nil)
	resp, _ := postScan(t, ts, bytes.Repeat([]byte{0x50}, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized scan: %d", resp.StatusCode)
	}
}

func TestNewRequiresAnalyzer(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
}

// TestWorkerRecoversAnalysisPanic: a panic inside one analysis fails
// only that job — pinned to its digest as "analysis panic: …" and
// counted in service.analyze.errors — and the same single worker then
// serves a correct verdict for a clean submission.
func TestWorkerRecoversAnalysisPanic(t *testing.T) {
	reg := metrics.New()
	s, ts := newStubServer(t, Config{Analyzer: core.NewAnalyzer(core.Options{Seed: 1}), Workers: 1, Metrics: reg}, nil)
	bad := tinyAPK(t, "com.panics")
	badDigest, err := apk.SigningDigest(bad)
	if err != nil {
		t.Fatal(err)
	}
	real := s.analyze
	s.analyze = func(j *job) (*Record, error) {
		if j.digest == badDigest {
			panic("injected analysis bug")
		}
		return real(j)
	}

	if resp, body := postScan(t, ts, bad); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getResult(t, ts, badDigest)
		if resp.StatusCode == http.StatusBadGateway {
			var sr scanResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Status != "failed" || sr.Error != "analysis panic: injected analysis bug" {
				t.Fatalf("failure body = %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("panic never surfaced as a failure: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("service.analyze.errors"); got != 1 {
		t.Fatalf("service.analyze.errors = %d, want 1", got)
	}

	good := tinyAPK(t, "com.clean")
	goodDigest, err := apk.SigningDigest(good)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postScan(t, ts, good); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean scan: %d %s", resp.StatusCode, body)
	}
	served := pollResult(t, ts, goodDigest)
	res, err := core.NewAnalyzer(core.Options{Seed: 1}).AnalyzeAPK(good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRecord(goodDigest, res, nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("verdict after a panic differs from a direct run:\nserved: %s\ndirect: %s", served, want)
	}
}

// TestPipelinePanicTakesFailurePath: a panic inside the pipeline (here a
// device-setup hook) fails the scan the ordinary way. The verdict poll
// answers 502 "analysis panic", the stored trace has an errored root
// carrying the stack, the slow-analysis watchdog is disarmed, the fleet
// counts one error, and the next clean APK gets its verdict.
func TestPipelinePanicTakesFailurePath(t *testing.T) {
	var boom atomic.Bool
	boom.Store(true)
	opts := core.Options{Seed: 1, RunDynamicWithoutDCL: true, SetupDevice: func(*android.Device) error {
		if boom.Load() {
			panic("injected device bug")
		}
		return nil
	}}
	traces, err := trace.OpenStore(trace.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	const deadline = 200 * time.Millisecond
	s, ts := newStubServer(t, Config{Analyzer: core.NewAnalyzer(opts), Workers: 1, Metrics: reg,
		Traces: traces, SlowDeadline: deadline}, nil)

	bad := tinyAPK(t, "com.panics")
	badDigest, err := apk.SigningDigest(bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postScan(t, ts, bad); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d %s", resp.StatusCode, body)
	}
	until := time.Now().Add(10 * time.Second)
	for {
		resp, body := getResult(t, ts, badDigest)
		if resp.StatusCode == http.StatusBadGateway {
			var sr scanResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Status != "failed" || !strings.HasPrefix(sr.Error, "analysis panic: injected device bug") {
				t.Fatalf("failure body = %s", body)
			}
			break
		}
		if time.Now().After(until) {
			t.Fatalf("panic never surfaced as a failure: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/trace/" + badDigest)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of the panicked scan: %d %s", resp.StatusCode, body)
	}
	var tr trace.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Root == nil || !strings.HasPrefix(tr.Root.Err, "analysis panic") || tr.Root.EndAt.IsZero() {
		t.Fatalf("trace root = %+v, want an ended root with the panic error", tr.Root)
	}
	if !strings.Contains(tr.Root.Attr("panic.stack"), "goroutine") {
		t.Fatalf("root span carries no stack: %q", tr.Root.Attr("panic.stack"))
	}

	time.Sleep(2 * deadline)
	if got := reg.Counter("service.slow.analyses"); got != 0 {
		t.Fatalf("service.slow.analyses = %d after the deadline, want 0 (watchdog left armed)", got)
	}
	if got := s.cfg.Fleet.Snapshot().Errors; got != 1 {
		t.Fatalf("fleet errors = %d, want 1", got)
	}

	boom.Store(false)
	good := tinyAPK(t, "com.clean")
	goodDigest, err := apk.SigningDigest(good)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postScan(t, ts, good); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean scan: %d %s", resp.StatusCode, body)
	}
	served := pollResult(t, ts, goodDigest)
	res, err := core.NewAnalyzer(opts).AnalyzeAPK(good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRecord(goodDigest, res, nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("verdict after a panic differs from a direct run:\nserved: %s\ndirect: %s", served, want)
	}
}

// submitDistinct posts n distinct minimal archives and returns their
// digests, then waits until the server has finished every job.
func submitDistinct(t *testing.T, s *Server, ts *httptest.Server, n int) []string {
	t.Helper()
	digests := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		zw := zip.NewWriter(&buf)
		if _, err := zw.Create(strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		resp, body := postScan(t, ts, buf.Bytes())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan %d: %d %s", i, resp.StatusCode, body)
		}
		var sr scanResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, sr.Digest)
	}
	until := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		pending := len(s.inflight)
		s.mu.Unlock()
		if pending == 0 {
			return digests
		}
		if time.Now().After(until) {
			t.Fatalf("%d jobs still in flight", pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countResults GETs every digest and counts the answers with status
// kept and with 404; any other status fails the test.
func countResults(t *testing.T, ts *httptest.Server, digests []string, kept int) (nKept, nGone int) {
	t.Helper()
	for _, d := range digests {
		switch resp, body := getResult(t, ts, d); resp.StatusCode {
		case http.StatusNotFound:
			nGone++
		case kept:
			nKept++
		default:
			t.Fatalf("result of %s: %d %s", d, resp.StatusCode, body)
		}
	}
	return nKept, nGone
}

// TestFailedDigestsBounded: failures of more distinct digests than
// maxFailed keep the failed map at the cap, and an evicted digest answers
// 404 like one never seen.
func TestFailedDigestsBounded(t *testing.T) {
	s, ts := newStubServer(t, Config{Workers: 2, QueueDepth: maxFailed + 16},
		func(string, []byte) (*Record, error) { return nil, fmt.Errorf("injected failure") })
	digests := submitDistinct(t, s, ts, maxFailed+10)
	s.mu.Lock()
	failed := len(s.failed)
	s.mu.Unlock()
	if failed != maxFailed {
		t.Fatalf("failed map holds %d digests, want the cap %d", failed, maxFailed)
	}
	if kept, gone := countResults(t, ts, digests, http.StatusBadGateway); kept != maxFailed || gone != len(digests)-maxFailed {
		t.Fatalf("%d digests answer 502 and %d answer 404, want %d and %d", kept, gone, maxFailed, len(digests)-maxFailed)
	}
}

// TestNoStoreKeepsBoundedVerdicts: without a configured store the
// daemon keeps verdicts in its default in-memory store, which holds at
// most its cache size; an evicted digest answers 404.
func TestNoStoreKeepsBoundedVerdicts(t *testing.T) {
	const cacheSize = 512 // resultstore's default CacheSize
	s, ts := newStubServer(t, Config{Workers: 2, QueueDepth: cacheSize + 16},
		func(digest string, _ []byte) (*Record, error) {
			return &Record{Digest: digest, Status: "exercised"}, nil
		})
	digests := submitDistinct(t, s, ts, cacheSize+10)
	if n, err := s.cfg.Store.Len(); err != nil || n != cacheSize {
		t.Fatalf("store holds %d verdicts (%v), want the cache size %d", n, err, cacheSize)
	}
	if kept, gone := countResults(t, ts, digests, http.StatusOK); kept != cacheSize || gone != len(digests)-cacheSize {
		t.Fatalf("%d digests answer 200 and %d answer 404, want %d and %d", kept, gone, cacheSize, len(digests)-cacheSize)
	}
}

// swapEntry rewrites an archive with one entry's content replaced and
// every other entry copied byte for byte.
func swapEntry(t *testing.T, data []byte, name string, content []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		if f.Name != name {
			if err := zw.Copy(f); err != nil {
				t.Fatal(err)
			}
			continue
		}
		w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(content); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTamperedResubmissionIsAnalyzed: an archive that keeps a benign
// app's META-INF/MANIFEST.MF but swaps its classes.dex is a different
// submission. It is analyzed, not answered with the benign verdict, and
// its served verdict equals a direct run on the tampered bytes.
func TestTamperedResubmissionIsAnalyzed(t *testing.T) {
	const pkg = "com.tamper"
	b := dex.NewBuilder()
	b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	benignDex, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	benign, err := apk.Build(&apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex:   benignDex,
		Extra: map[string][]byte{"META-INF/MANIFEST.MF": []byte("Manifest-Version: 1.0\n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	loadLibrary := dex.MethodRef{Class: "java.lang.System", Name: "loadLibrary", Sig: "(Ljava/lang/String;)V"}
	e := dex.NewBuilder()
	e.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;").
		ConstString(0, "payload").InvokeStatic(loadLibrary, 0).ReturnVoid().Done()
	evilDex, err := dex.Encode(e.File())
	if err != nil {
		t.Fatal(err)
	}
	tampered := swapEntry(t, benign, apk.DexEntry, evilDex)

	reg := metrics.New()
	newAnalyzer := func() *core.Analyzer { return core.NewAnalyzer(core.Options{Seed: 1}) }
	_, ts := newStubServer(t, Config{Analyzer: newAnalyzer(), Workers: 1, Metrics: reg}, nil)
	var digests []string
	for _, body := range [][]byte{benign, tampered} {
		resp, out := postScan(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan: %d %s", resp.StatusCode, out)
		}
		var sr scanResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, sr.Digest)
		pollResult(t, ts, sr.Digest)
	}
	if digests[0] == digests[1] {
		t.Fatal("tampered archive shares the benign digest")
	}
	if got := reg.Counter("service.analyzed"); got != 2 {
		t.Fatalf("service.analyzed = %d, want 2", got)
	}
	res, err := newAnalyzer().AnalyzeAPK(tampered)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRecord(digests[1], res, nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if served := pollResult(t, ts, digests[1]); !bytes.Equal(served, want) {
		t.Fatalf("tampered verdict differs from a direct run:\nserved: %s\ndirect: %s", served, want)
	}
	if !res.PreFilter.HasNativeDCL {
		t.Fatalf("the tampered dex's loadLibrary went unseen: %s", want)
	}
}
