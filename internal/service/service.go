// Package service is the online vetting daemon: an HTTP front over the
// DyDroid pipeline (core.Analyzer) and the marketplace review
// (bouncer.Reviewer), backed by the content-addressed result store. It is
// the store-operator deployment shape of the paper's measurement —
// submissions are deduplicated by the SHA-256 of their bytes, analyzed
// once by a bounded worker pool, and every verdict is served from the
// store thereafter.
//
// Endpoints:
//
//	POST /v1/scan            submit APK bytes; 200 + cached verdict,
//	                         or 202 + job id (the digest), or 429 when
//	                         the queue is full
//	GET  /v1/result/{digest} fetch a verdict; 202 while in flight
//	GET  /v1/trace/{digest}  fetch the analysis span tree of a digest
//	GET  /v1/healthz         liveness + queue occupancy
//	GET  /v1/metricz         text rendering of the metrics registry
//	                         (?format=prom for Prometheus exposition)
//	GET  /debug/pprof/       runtime profiling (net/http/pprof)
//
// Every response that resolves a digest carries an X-Dydroid-Trace
// header naming the trace of its analysis run, servable from the trace
// endpoint once the run completes.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/resultstore"
	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Analyzer runs the DyDroid pipeline on each submission (required).
	Analyzer *core.Analyzer
	// Reviewer, when non-nil, runs the store-side Bouncer review before
	// the pipeline; its verdict travels in the served record.
	Reviewer *bouncer.Reviewer
	// Store is the verdict authority. A store with a directory persists
	// verdicts across restarts; nil gets a fresh in-memory store holding
	// the newest 512.
	Store *resultstore.Store
	// Workers is the analysis parallelism (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submission queue; full queues answer 429
	// (default 64).
	QueueDepth int
	// Metrics receives service counters and job timings; the analyzer and
	// reviewer keep their own wiring. Optional.
	Metrics *metrics.Registry
	// MaxBodyBytes bounds one submission (default 64 MiB).
	MaxBodyBytes int64
	// Traces, when non-nil, stores each submission's analysis span tree
	// keyed by digest, served at GET /v1/trace/{digest}. Optional.
	Traces *trace.Store
	// Fleet aggregates every completed analysis into the mergeable
	// snapshot served at GET /v1/fleet and rendered at GET /v1/dashboard.
	// Nil gets a fresh default aggregator.
	Fleet *telemetry.Aggregator
	// SlowDeadline arms the slow-analysis watchdog: any analysis running
	// past it is logged while still in flight, and its span tree is
	// rendered to the log once it completes. Zero disables the watchdog.
	SlowDeadline time.Duration
	// Journal records ops lifecycle events (queue saturation, drain,
	// slow analyses), served as JSONL at GET /v1/events and folded into
	// the /v1/fleet snapshot. Nil gets a fresh default journal.
	Journal *events.Journal
	// Profiles, when non-nil, is the continuous-profiling recorder: its
	// ring is served at GET /v1/profiles[/{id}], the slow-analysis
	// watchdog and SLO burn-rate alerts trigger captures on it, and its
	// newest window headlines the dashboard. Optional.
	Profiles *profile.Recorder
	// Node names this daemon in journal events (typically its listen
	// address). Optional.
	Node string
	// Logger, when non-nil, receives one structured line per HTTP request
	// (method, path, digest, status, latency, trace ID). Optional.
	Logger *slog.Logger
}

// Server is the vetting daemon. Create with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	cfg Config
	reg *metrics.Registry

	jobs chan *job
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// drainLogged dedups the drain-finished journal event across
	// repeated Shutdown calls.
	drainLogged bool
	inflight    map[string]*job
	// queueDegraded tracks the saturation state so the journal records
	// only the degraded/recovered transitions, not every sample.
	queueDegraded bool
	// failed pins pipeline errors so GETs can distinguish "analysis
	// failed" from "never seen". It holds at most maxFailed digests; an
	// evicted one answers 404 like a digest never seen.
	failed map[string]string

	// analyze is the per-submission work function; tests replace it to
	// block workers or inject failures.
	analyze func(j *job) (*Record, error)
	// now is the clock; tests replace it to pin watchdog elapsed times.
	now func() time.Time
}

// maxFailed bounds Server.failed, so a stream of distinct failing
// submissions cannot grow the daemon's memory without limit.
const maxFailed = 1024

type job struct {
	digest string
	data   []byte
	// parent is the upstream span reference from the X-Dydroid-Parent
	// submission header ("" when the scan arrived directly).
	parent string
}

// New validates the config and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Analyzer == nil {
		return nil, errors.New("service: Config.Analyzer is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Fleet == nil {
		cfg.Fleet = telemetry.New(telemetry.Options{})
	}
	if cfg.Journal == nil {
		cfg.Journal = events.NewJournal(0)
	}
	if cfg.Store == nil {
		st, err := resultstore.Open(resultstore.Options{Version: RecordVersion})
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Metrics,
		jobs:     make(chan *job, cfg.QueueDepth),
		inflight: make(map[string]*job),
		failed:   make(map[string]string),
	}
	s.analyze = s.analyzeAPK
	s.now = time.Now
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP routes (wrapped in the request
// logger when Config.Logger is set).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	mux.HandleFunc("GET /v1/result/{digest}", s.handleResult)
	mux.HandleFunc("GET /v1/trace/{digest}", s.handleTrace)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metricz", s.handleMetricz)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/dashboard", s.handleDashboard)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/profiles", s.handleProfiles)
	mux.HandleFunc("GET /v1/profiles/{id}", s.handleProfile)
	// Runtime introspection: profiles, heap, goroutines, execution traces.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s.logging(mux)
}

// TraceID derives the deterministic trace ID of a digest's analysis run
// (its leading 16 hex chars), so clients can compute it from a digest
// without waiting for the X-Dydroid-Trace header.
func TraceID(digest string) string { return trace.IDFromDigest(digest) }

// HeaderParent is the submission header carrying the upstream span
// reference ("traceID:spanID"): a coordinator forwarding a scan stamps
// it so the worker's analysis trace records which routing attempt it
// belongs to, and the coordinator can stitch the trees back together.
const HeaderParent = "X-Dydroid-Parent"

// requestMeta is filled by handlers as they resolve a digest, so the
// logging middleware can report it without re-parsing bodies.
type requestMeta struct {
	digest string
}

type metaKey struct{}

// noteDigest records the request's digest for the access log and stamps
// the X-Dydroid-Trace response header.
func noteDigest(w http.ResponseWriter, r *http.Request, digest string) {
	w.Header().Set("X-Dydroid-Trace", TraceID(digest))
	if m, ok := r.Context().Value(metaKey{}).(*requestMeta); ok {
		m.digest = digest
	}
}

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// logging wraps next with structured request logging; without a
// configured logger the handler chain is untouched.
func (s *Server) logging(next http.Handler) http.Handler {
	if s.cfg.Logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		meta := &requestMeta{}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), metaKey{}, meta)))
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"latency_ms", float64(time.Since(start)) / float64(time.Millisecond),
		}
		if meta.digest != "" {
			attrs = append(attrs, "digest", meta.digest, "trace", TraceID(meta.digest))
		}
		s.cfg.Logger.Info("request", attrs...)
	})
}

// Shutdown stops accepting submissions, drains every queued and in-flight
// job, and returns once the workers exit (or the context expires).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobs)
		s.cfg.Journal.Record(events.Event{
			Type: events.DrainStarted, Node: s.cfg.Node,
			Detail: fmt.Sprintf("%d queued, %d in flight", len(s.jobs), len(s.inflight)),
		})
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		drained := !s.drainLogged
		s.drainLogged = true
		s.mu.Unlock()
		if drained {
			s.cfg.Journal.Record(events.Event{Type: events.DrainFinished, Node: s.cfg.Node})
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}

// scanResponse is the body of non-cached submission answers and pending
// result polls.
type scanResponse struct {
	Digest string `json:"digest"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("service.scan.requests", 1)
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.reg.Add("service.scan.invalid", 1)
		httpError(w, http.StatusRequestEntityTooLarge, "submission exceeds size limit")
		return
	}
	digest, err := apk.SigningDigest(body)
	if err != nil {
		s.reg.Add("service.scan.invalid", 1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	noteDigest(w, r, digest)

	// Fast path: an in-flight twin (singleflight) or a cached verdict.
	s.mu.Lock()
	_, pending := s.inflight[digest]
	s.mu.Unlock()
	if pending {
		s.reg.Add("service.scan.deduped", 1)
		writeJSON(w, http.StatusAccepted, scanResponse{Digest: digest, Status: "pending"})
		return
	}
	if raw, ok := s.lookup(digest); ok {
		s.reg.Add("service.scan.cached", 1)
		writeRaw(w, http.StatusOK, raw)
		return
	}

	// Slow path: enqueue, unless a twin won the race, the queue is full,
	// or the daemon is draining.
	j := &job{digest: digest, data: body, parent: r.Header.Get(HeaderParent)}
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case s.inflight[digest] != nil:
		s.mu.Unlock()
		s.reg.Add("service.scan.deduped", 1)
		writeJSON(w, http.StatusAccepted, scanResponse{Digest: digest, Status: "pending"})
		return
	}
	select {
	case s.jobs <- j:
		s.inflight[digest] = j
		delete(s.failed, digest) // a resubmission retries a failed digest
		s.mu.Unlock()
		s.reg.Add("service.scan.queued", 1)
		s.noteQueueLevel()
		writeJSON(w, http.StatusAccepted, scanResponse{Digest: digest, Status: "queued"})
	default:
		s.mu.Unlock()
		s.reg.Add("service.scan.rejected", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "submission queue is full")
	}
}

// Retry-After bounds: at least 1s (the HTTP-friendly minimum), at most
// 5 minutes so a momentary latency spike cannot park clients for hours.
const (
	minRetryAfter = 1
	maxRetryAfter = 300
)

// coldStartJobLatency stands in for the mean analyze latency before any
// analysis has completed, so even the very first 429 scales with the
// queue that produced it instead of answering the clamp floor.
const coldStartJobLatency = time.Second

// retryAfterSeconds sizes the 429 backoff to the actual backlog: the
// time for the worker pool to drain the current queue, estimated as
// queue length × recent mean analyze latency ÷ workers. Before the first
// completed analysis (or without a metrics registry) the mean is unknown
// and a nominal per-job second stands in.
func (s *Server) retryAfterSeconds() int {
	mean := s.reg.HistSnapshot("service.job").Mean()
	if mean <= 0 {
		mean = coldStartJobLatency
	}
	backlog := time.Duration(len(s.jobs)) * mean / time.Duration(s.cfg.Workers)
	secs := int((backlog + time.Second - 1) / time.Second) // ceiling
	if secs < minRetryAfter {
		return minRetryAfter
	}
	if secs > maxRetryAfter {
		return maxRetryAfter
	}
	return secs
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	noteDigest(w, r, digest)
	s.mu.Lock()
	_, pending := s.inflight[digest]
	failMsg, failedOnce := s.failed[digest]
	s.mu.Unlock()
	if pending {
		writeJSON(w, http.StatusAccepted, scanResponse{Digest: digest, Status: "pending"})
		return
	}
	if raw, ok := s.lookup(digest); ok {
		writeRaw(w, http.StatusOK, raw)
		return
	}
	if failedOnce {
		writeJSON(w, http.StatusBadGateway, scanResponse{Digest: digest, Status: "failed", Error: failMsg})
		return
	}
	httpError(w, http.StatusNotFound, "unknown digest")
}

// handleTrace serves the stored analysis span tree of a digest. 404
// covers "tracing disabled", "never analyzed" and "evicted" alike — the
// trace store is bounded, so absence is an expected state.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	noteDigest(w, r, digest)
	if s.cfg.Traces == nil {
		httpError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	raw, err := s.cfg.Traces.GetRaw(digest)
	if err != nil {
		httpError(w, http.StatusNotFound, "no trace for digest")
		return
	}
	writeRaw(w, http.StatusOK, raw)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	inflight := len(s.inflight)
	s.mu.Unlock()
	status := "ok"
	if closed {
		status = "draining"
	}
	// Degraded flags queue saturation (≥80% full) while the node still
	// answers 200: a cluster coordinator deprioritizes a degraded node
	// for new scans before it starts returning 429s.
	queueLen := len(s.jobs)
	degraded := s.queueSaturated(queueLen)
	// The histogram point-read keeps this endpoint cheap enough for tight
	// liveness-probe intervals (no full registry snapshot).
	job := s.reg.HistSnapshot("service.job")
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"degraded":    degraded,
		"queue_len":   queueLen,
		"queue_depth": cap(s.jobs),
		"inflight":    inflight,
		"workers":     s.cfg.Workers,
		"jobs_done":   job.Count,
		"job_p50_ms":  float64(job.Quantile(0.50)) / float64(time.Millisecond),
		"job_p99_ms":  float64(job.Quantile(0.99)) / float64(time.Millisecond),
	})
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
		st := s.cfg.Store.Stats()
		for _, c := range []struct {
			name  string
			value int64
		}{
			{"dydroid_resultstore_hits_total", st.Hits},
			{"dydroid_resultstore_misses_total", st.Misses},
			{"dydroid_resultstore_cache_hits_total", st.CacheHits},
			{"dydroid_resultstore_puts_total", st.Puts},
			{"dydroid_resultstore_stale_total", st.Stale},
			{"dydroid_resultstore_quarantined_total", st.Quarantined},
		} {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.value)
		}
		snap := s.cfg.Fleet.Snapshot()
		writeSpanProm(w, snap)
		s.writeSLOProm(w, snap)
		writeCostProm(w, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.reg.Snapshot().String())
	st := s.cfg.Store.Stats()
	fmt.Fprintf(w, "\nresultstore\thits=%d misses=%d cache-hits=%d puts=%d stale=%d quarantined=%d\n",
		st.Hits, st.Misses, st.CacheHits, st.Puts, st.Stale, st.Quarantined)
}

// queueSaturated is the shared degradation predicate: the submission
// queue is ≥80% full.
func (s *Server) queueSaturated(queueLen int) bool {
	return cap(s.jobs) > 0 && queueLen*5 >= cap(s.jobs)*4
}

// noteQueueLevel samples the queue depth into the gauge and journals the
// degraded/recovered transitions (only the edges — a saturated queue
// sampled twice records one event).
func (s *Server) noteQueueLevel() {
	queueLen := len(s.jobs)
	s.reg.SetGauge("service.queue.len", int64(queueLen))
	degraded := s.queueSaturated(queueLen)
	s.mu.Lock()
	changed := degraded != s.queueDegraded
	s.queueDegraded = degraded
	s.mu.Unlock()
	if !changed {
		return
	}
	typ := events.QueueRecovered
	if degraded {
		typ = events.QueueDegraded
	}
	s.cfg.Journal.Record(events.Event{
		Type: typ, Node: s.cfg.Node,
		Detail: fmt.Sprintf("queue %d/%d", queueLen, cap(s.jobs)),
	})
}

// lookup finds a completed verdict in the store.
func (s *Server) lookup(digest string) (json.RawMessage, bool) {
	raw, err := s.cfg.Store.Get(digest)
	return raw, err == nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.noteQueueLevel()
		stop := s.reg.Time("service.job")
		rec, err := s.runJob(j)
		var raw json.RawMessage
		if err == nil {
			raw, err = rec.Marshal()
		}
		if err == nil {
			err = s.cfg.Store.Put(j.digest, raw)
		}
		s.mu.Lock()
		delete(s.inflight, j.digest)
		if err != nil {
			if len(s.failed) >= maxFailed {
				for d := range s.failed { // evict an arbitrary older failure
					delete(s.failed, d)
					break
				}
			}
			s.failed[j.digest] = err.Error()
		}
		s.mu.Unlock()
		if err != nil {
			s.reg.Add("service.analyze.errors", 1)
		} else {
			s.reg.Add("service.analyzed", 1)
		}
		stop()
	}
}

// runJob runs one submission's analysis, turning a panic into that job's
// error: the failure is pinned to the digest and counted like any other,
// and the daemon keeps serving every other job.
func (s *Server) runJob(j *job) (rec *Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("analysis panic: %v", p)
		}
	}()
	return s.analyze(j)
}

// analyzeAPK is the real work function: optional Bouncer review, then the
// full pipeline. Both phases join one trace rooted at a "scan" span
// (ID derived from the digest), stored in the trace store even when the
// run fails — failed scans are exactly the ones worth inspecting. A
// forwarded submission's X-Dydroid-Parent reference is recorded on the
// root span, so the upstream coordinator can graft this tree under its
// routing span. Every completed analysis feeds the fleet aggregator, and
// the slow-analysis watchdog flags runs that blow past
// Config.SlowDeadline.
func (s *Server) analyzeAPK(j *job) (*Record, error) {
	digest, data := j.digest, j.data
	tr := trace.New("scan", trace.WithID(TraceID(digest)), trace.WithDigest(digest))
	if j.parent != "" {
		tr.Root.SetParent(j.parent)
	}
	ctx := trace.ContextWith(context.Background(), tr)
	disarm := s.armWatchdog(digest)
	res, verdict, err := s.analyzeTraced(ctx, data)
	tr.Root.EndErr(err)
	disarm(tr)
	if s.cfg.Traces != nil {
		if perr := s.cfg.Traces.Put(tr); perr != nil {
			s.reg.Add("service.trace.errors", 1)
		}
	}
	if err != nil {
		s.cfg.Fleet.ObserveError(digest, err, tr)
		s.sloTriggers(digest)
		return nil, err
	}
	s.cfg.Fleet.ObserveApp(res, tr)
	if verdict != nil {
		s.cfg.Fleet.ObserveVerdict(verdict.Approved)
	}
	// With this analysis folded in, a burning SLO captures a profile
	// window tagged with the digest that tipped the burn rate.
	s.sloTriggers(digest)
	return NewRecord(digest, res, verdict), nil
}

// analyzeTraced prepares the submission once (one parse, one bytecode
// decode) and runs the review and the pipeline on that one PreparedApp;
// each keeps its own device. A panic in either becomes the returned
// error, with its stack on the trace's root span, so analyzeAPK still
// ends the span, disarms the watchdog, stores the trace and counts the
// failure.
func (s *Server) analyzeTraced(ctx context.Context, data []byte) (res *core.AppResult, verdict *bouncer.Verdict, err error) {
	defer func() {
		if p := recover(); p != nil {
			if tr := trace.FromContext(ctx); tr != nil {
				tr.Root.SetAttr("panic.stack", string(debug.Stack()))
			}
			res, verdict, err = nil, nil, fmt.Errorf("analysis panic: %v", p)
		}
	}()
	prep, err := core.Prepare(data)
	if err != nil {
		return nil, nil, fmt.Errorf("service: prepare: %w", err)
	}
	if s.cfg.Reviewer != nil {
		v, err := s.cfg.Reviewer.ReviewPreparedContext(ctx, prep)
		if err != nil {
			return nil, nil, fmt.Errorf("service: review: %w", err)
		}
		verdict = &v
	}
	res, err = s.cfg.Analyzer.AnalyzePreparedContext(ctx, prep)
	if err != nil {
		return nil, nil, fmt.Errorf("service: analyze: %w", err)
	}
	return res, verdict, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeRaw serves a stored verdict verbatim — the byte-identical
// contract with a fresh pipeline run.
func writeRaw(w http.ResponseWriter, code int, raw json.RawMessage) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(raw)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
