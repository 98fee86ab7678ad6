package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/resultstore"
	"github.com/dydroid/dydroid/internal/trace"
)

// TestTraceHeaderAndEndpoint: every digest-resolving response carries a
// deterministic X-Dydroid-Trace header, and once the analysis lands the
// span tree is served at /v1/trace/{digest} with scan/review/analyze
// spans in one tree.
func TestTraceHeaderAndEndpoint(t *testing.T) {
	traces, err := trace.OpenStore(trace.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newStubServer(t, Config{
		Analyzer: core.NewAnalyzer(core.Options{Seed: 1}),
		Workers:  1,
		Traces:   traces,
	}, nil)

	apkBytes := tinyAPK(t, "com.trace.app")
	digest, err := apk.SigningDigest(apkBytes)
	if err != nil {
		t.Fatal(err)
	}

	// Trace endpoint 404s before any submission.
	resp, err := http.Get(ts.URL + "/v1/trace/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace before scan: %d, want 404", resp.StatusCode)
	}

	resp, _ = postScan(t, ts, apkBytes)
	if got := resp.Header.Get("X-Dydroid-Trace"); got != TraceID(digest) {
		t.Fatalf("scan trace header = %q, want %q", got, TraceID(digest))
	}
	pollResult(t, ts, digest)
	resp, _ = getResult(t, ts, digest)
	if got := resp.Header.Get("X-Dydroid-Trace"); got != TraceID(digest) {
		t.Fatalf("result trace header = %q, want %q", got, TraceID(digest))
	}

	resp, err = http.Get(ts.URL + "/v1/trace/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace after scan: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("trace content-type = %q", ct)
	}
	var tr trace.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace body not a trace: %v\n%s", err, body)
	}
	if tr.ID != TraceID(digest) || tr.Digest != digest {
		t.Fatalf("trace identity = %q/%q, want %q/%q", tr.ID, tr.Digest, TraceID(digest), digest)
	}
	if tr.Root == nil || tr.Root.Name != "scan" {
		t.Fatalf("trace root = %+v, want scan", tr.Root)
	}
	an := tr.Root.Find("analyze")
	if an == nil {
		t.Fatal("scan trace does not cover the analysis")
	}
	// A DCL-free app short-circuits after unpack; that executed stage
	// must still be in the tree, with the outcome on the analyze span.
	if tr.Root.Find("unpack") == nil {
		t.Fatal("scan trace missing the unpack stage span")
	}
	if got := an.Attr("status"); got != "no-dcl" {
		t.Fatalf("analyze span status attr = %q, want no-dcl", got)
	}

	// Unknown digest still 404s.
	resp, err = http.Get(ts.URL + "/v1/trace/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", resp.StatusCode)
	}
}

// TestTraceEndpointDisabled: without a trace store the endpoint 404s
// instead of crashing.
func TestTraceEndpointDisabled(t *testing.T) {
	_, ts := newStubServer(t, Config{Workers: 1}, nil)
	resp, err := http.Get(ts.URL + "/v1/trace/aabbccdd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with no store: %d, want 404", resp.StatusCode)
	}
}

// TestPprofMounted: the runtime profiling index responds under
// /debug/pprof/.
func TestPprofMounted(t *testing.T) {
	_, ts := newStubServer(t, Config{Workers: 1}, nil)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index unexpected body:\n%.400s", body)
	}
}

// TestMetriczPrometheus: ?format=prom switches the exposition to the
// Prometheus text format with dydroid_-prefixed families.
func TestMetriczPrometheus(t *testing.T) {
	reg := metrics.New()
	reg.Add("service.analyzed", 3)
	reg.Observe("service.job", 2048*1e3) // ~2ms
	store, err := resultstore.Open(resultstore.Options{Dir: t.TempDir(), Version: RecordVersion})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newStubServer(t, Config{Workers: 1, Metrics: reg, Store: store}, nil)

	resp, err := http.Get(ts.URL + "/v1/metricz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz prom: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE dydroid_service_analyzed_total counter",
		"dydroid_service_analyzed_total 3",
		"# TYPE dydroid_service_job_seconds histogram",
		"dydroid_service_job_seconds_count 1",
		"dydroid_resultstore_hits_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, body)
		}
	}
	// Default format stays the human table.
	resp, err = http.Get(ts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("service.analyzed")) {
		t.Fatalf("default metricz lost the table:\n%s", body)
	}
}

// syncBuffer guards the log buffer: handler goroutines write while the
// test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogging: with a Logger configured every request emits one
// structured line carrying method, path, status, latency, and — when the
// request resolves a digest — digest and trace ID.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	traces, err := trace.OpenStore(trace.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newStubServer(t, Config{
		Analyzer: core.NewAnalyzer(core.Options{Seed: 1}),
		Workers:  1,
		Traces:   traces,
		Logger:   logger,
	}, nil)

	apkBytes := tinyAPK(t, "com.log.app")
	digest, err := apk.SigningDigest(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	postScan(t, ts, apkBytes)
	pollResult(t, ts, digest)

	type line struct {
		Msg     string  `json:"msg"`
		Method  string  `json:"method"`
		Path    string  `json:"path"`
		Status  int     `json:"status"`
		Digest  string  `json:"digest"`
		Trace   string  `json:"trace"`
		Latency float64 `json:"latency_ms"`
	}
	var scanLine, resultLine *line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, raw)
		}
		if l.Msg != "request" {
			continue
		}
		switch {
		case l.Method == "POST" && l.Path == "/v1/scan":
			scanLine = &l
		case l.Method == "GET" && l.Status == http.StatusOK && strings.HasPrefix(l.Path, "/v1/result/"):
			resultLine = &l
		}
	}
	if scanLine == nil {
		t.Fatalf("no scan request logged:\n%s", buf.String())
	}
	if scanLine.Status != http.StatusAccepted || scanLine.Digest != digest || scanLine.Trace != TraceID(digest) {
		t.Fatalf("scan log line = %+v", scanLine)
	}
	if scanLine.Latency < 0 {
		t.Fatalf("scan latency = %v", scanLine.Latency)
	}
	if resultLine == nil {
		t.Fatalf("no 200 result request logged:\n%s", buf.String())
	}
	if resultLine.Digest != digest || resultLine.Trace != TraceID(digest) {
		t.Fatalf("result log line = %+v", resultLine)
	}
}

// TestMetriczSpanHistograms: /v1/metricz?format=prom exposes stage
// latency as one dydroid_span_seconds histogram series per span name of
// the scan's trace — scan, review, analyze and every executed pipeline
// stage — next to the registry's service.job histogram.
func TestMetriczSpanHistograms(t *testing.T) {
	st, err := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	// A malware app runs the whole pipeline, not just unpack.
	var target *corpus.StoreApp
	for _, app := range st.Apps {
		if app.Spec.MalwareFamily != "" {
			target = app
			break
		}
	}
	if target == nil {
		t.Fatal("no malware app in the store")
	}
	apkBytes, err := st.BuildAPK(target)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := apk.SigningDigest(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := trace.OpenStore(trace.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newStubServer(t, Config{
		Analyzer: core.NewAnalyzer(core.Options{Seed: 3, Classifier: clf, Network: st.Network, SetupDevice: st.SetupDevice}),
		Reviewer: &bouncer.Reviewer{Classifier: clf, Network: st.Network},
		Workers:  1,
		Traces:   traces,
	}, nil)
	postScan(t, ts, apkBytes)
	pollResult(t, ts, digest)
	tr, err := traces.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	tr.Root.Walk(func(sp *trace.Span) { spans[sp.Name]++ })
	for _, name := range []string{"scan", "review", "analyze", "unpack", "dynamic", "static"} {
		if spans[name] == 0 {
			t.Fatalf("scan trace has no %q span: %v", name, spans)
		}
	}

	// The job histogram lands just after the verdict is served.
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(body, "dydroid_service_job_seconds_count 1") {
		if time.Now().After(deadline) {
			t.Fatalf("prom exposition never showed the finished job:\n%s", body)
		}
		resp, err := http.Get(ts.URL + "/v1/metricz?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(raw)
	}
	if n := strings.Count(body, "# TYPE dydroid_span_seconds histogram"); n != 1 {
		t.Fatalf("span family declared %d times, want once:\n%s", n, body)
	}
	for name, n := range spans {
		for _, want := range []string{
			fmt.Sprintf("dydroid_span_seconds_count{span=%q} %d\n", name, n),
			fmt.Sprintf("dydroid_span_seconds_bucket{span=%q,le=\"+Inf\"} %d\n", name, n),
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("prom exposition missing %q:\n%s", want, body)
			}
		}
	}
}
