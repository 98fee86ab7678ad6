// Package profile is the continuous-profiling layer of the vetting
// fleet: short CPU-profile windows plus runtime-metrics deltas captured
// on a cadence — and immediately when an SLO burn-rate alert or the
// slow-analysis watchdog fires — into a bounded, time-indexed ring of
// windows. Every window carries the raw pprof bytes *and* a parsed
// top-functions summary (flat/cum self-time per function), so two
// windows from different nodes or different days are comparable with
// nothing but the JSON: the dashboard, `apkinspect profile top|diff`
// and the coordinator's federated /v1/profiles all read the same
// summaries.
//
// The package also owns per-stage resource attribution: MeterSpan wraps
// a pipeline stage span and stamps cpu.ns / alloc.bytes / alloc.objects
// attrs from process-scoped deltas, which telemetry folds into the
// mergeable cost-per-stage table.
package profile

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	runtimemetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
)

// Trigger values recorded on captured windows.
const (
	// TriggerSampler marks cadence windows from the background loop.
	TriggerSampler = "sampler"
	// TriggerWatchdog marks windows captured because an analysis outlived
	// the -slow-deadline watchdog.
	TriggerWatchdog = "watchdog"
	// TriggerSLOPrefix prefixes windows captured on an SLO burn-rate
	// alert; the objective name follows ("slo:scan-availability").
	TriggerSLOPrefix = "slo:"
)

// RuntimeDelta is the runtime/metrics view of one window: allocation
// pressure and GC activity across exactly the profiled interval, plus
// the process CPU time consumed (getrusage deltas).
type RuntimeDelta struct {
	CPUNS        int64 `json:"cpu_ns"`
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
	GCCycles     int64 `json:"gc_cycles"`
	// HeapLiveBytes is the end-of-window live heap (a level, not a delta).
	HeapLiveBytes int64 `json:"heap_live_bytes"`
	// Goroutines is the end-of-window goroutine count.
	Goroutines int `json:"goroutines"`
}

// Window is one captured profile: identity, what triggered it, the raw
// (gzipped pprof) profile and the parsed summary. Raw bytes serialize as
// base64 in JSON; the index form (Meta) omits them.
type Window struct {
	ID      string    `json:"id"`
	Node    string    `json:"node,omitempty"`
	Trigger string    `json:"trigger"`
	Digest  string    `json:"digest,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	StartAt time.Time `json:"start"`
	EndAt   time.Time `json:"end"`

	Runtime RuntimeDelta `json:"runtime"`
	Summary *Summary     `json:"summary,omitempty"`
	// Err records a capture that produced no usable pprof bytes (the
	// process-global CPU profiler was busy, or parsing failed); the
	// runtime deltas are still valid.
	Err   string `json:"err,omitempty"`
	Pprof []byte `json:"pprof,omitempty"`
}

// Meta is the index row of a window — everything but the raw bytes and
// the full function table.
type Meta struct {
	ID         string    `json:"id"`
	Node       string    `json:"node,omitempty"`
	Trigger    string    `json:"trigger"`
	Digest     string    `json:"digest,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	StartAt    time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Samples    int64     `json:"samples"`
	CPUNS      int64     `json:"cpu_ns"`
	TopFunc    string    `json:"top_func,omitempty"`
	Bytes      int       `json:"bytes"`
	Err        string    `json:"err,omitempty"`
}

// Meta projects the window's index row.
func (w *Window) Meta() Meta {
	m := Meta{
		ID: w.ID, Node: w.Node, Trigger: w.Trigger, Digest: w.Digest,
		TraceID: w.TraceID, StartAt: w.StartAt,
		DurationNS: w.EndAt.Sub(w.StartAt).Nanoseconds(),
		CPUNS:      w.Runtime.CPUNS, Bytes: len(w.Pprof), Err: w.Err,
	}
	if w.Summary != nil {
		m.Samples = w.Summary.Samples
		m.TopFunc = w.Summary.TopFunc()
	}
	return m
}

// topFuncs bounds each captured window's parsed function table.
const topFuncs = 20

// Options configures a Recorder. The zero value works: 250ms windows,
// 30s cadence, 32 retained windows, 30s trigger cooldown.
type Options struct {
	// Node names the owning fleet member, stamped on every window.
	Node string
	// WindowDur is how long each CPU-profile window records.
	WindowDur time.Duration
	// Interval is the background sampler cadence (Run's tick).
	Interval time.Duration
	// Cap bounds the ring; the oldest window is evicted past it.
	Cap int
	// Cooldown is the minimum spacing between alert-triggered captures
	// sharing a trigger key, so a burning SLO doesn't turn the ring into
	// 32 copies of the same incident.
	Cooldown time.Duration
	// Journal, when set, receives a profile-captured event per
	// alert-triggered window (sampler cadence windows are not journaled).
	Journal *events.Journal
	// Metrics, when set, receives capture counters and ring gauges.
	Metrics *metrics.Registry
	Logger  *slog.Logger
}

// Recorder owns the profile ring: cadence sampling, alert-triggered
// capture and the read API. All methods are safe for concurrent use; a
// nil Recorder is inert, so callers thread an optional *Recorder without
// nil checks.
type Recorder struct {
	opts Options

	// captureMu serializes windows: runtime/pprof CPU profiling is
	// process-global, so overlapping captures cannot both succeed.
	captureMu sync.Mutex

	mu   sync.Mutex // guards ring, seq, lastTrig
	ring []*Window  // oldest first
	seq  int64
	last map[string]time.Time // trigger key -> last capture start

	// now and profiler are injectable for tests (fake clocks, canned
	// pprof bytes instead of a live 250ms window).
	now      func() time.Time
	profiler func(d time.Duration) ([]byte, error)
}

// New creates a Recorder. It does not start the background sampler —
// call Run for that; alert-triggered and manual captures work without it.
func New(opts Options) *Recorder {
	if opts.WindowDur <= 0 {
		opts.WindowDur = 250 * time.Millisecond
	}
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.Cap <= 0 {
		opts.Cap = 32
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 30 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	r := &Recorder{
		opts: opts,
		last: map[string]time.Time{},
		now:  time.Now,
	}
	r.profiler = r.cpuWindow
	return r
}

// cpuWindow records one live CPU-profile window of duration d.
func (r *Recorder) cpuWindow(d time.Duration) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another profiler holds the global slot (e.g. a /debug/pprof
		// client); the window degrades to runtime deltas only.
		return nil, fmt.Errorf("profile: cpu profiler busy: %w", err)
	}
	time.Sleep(d)
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// runtime/metrics sample names read around each window.
var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

func readRuntimeSamples() [4]uint64 {
	samples := make([]runtimemetrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	runtimemetrics.Read(samples)
	var out [4]uint64
	for i, s := range samples {
		if s.Value.Kind() == runtimemetrics.KindUint64 {
			out[i] = s.Value.Uint64()
		}
	}
	return out
}

// Capture records one window synchronously and stores it. trigger is
// TriggerSampler, TriggerWatchdog or an SLO trigger; digest/traceID tag
// the offending analysis when the capture is alert-driven. Alert-driven
// windows journal a profile-captured event.
func (r *Recorder) Capture(trigger, digest, traceID string) *Window {
	if r == nil {
		return nil
	}
	r.captureMu.Lock()
	defer r.captureMu.Unlock()

	w := &Window{
		Node: r.opts.Node, Trigger: trigger,
		Digest: digest, TraceID: traceID,
		StartAt: r.now(),
	}
	before := readRuntimeSamples()
	beforeCPU := processCPUNanos()
	raw, err := r.profiler(r.opts.WindowDur)
	afterCPU := processCPUNanos()
	after := readRuntimeSamples()
	w.EndAt = r.now()

	w.Runtime = RuntimeDelta{
		CPUNS:         maxInt64(0, afterCPU-beforeCPU),
		AllocBytes:    int64(after[0] - before[0]),
		AllocObjects:  int64(after[1] - before[1]),
		GCCycles:      int64(after[2] - before[2]),
		HeapLiveBytes: int64(after[3]),
		Goroutines:    runtime.NumGoroutine(),
	}
	if err != nil {
		w.Err = err.Error()
		r.count("profile.capture.errors", 1)
	} else {
		w.Pprof = raw
		if sum, perr := ParseCPUProfile(raw, topFuncs); perr != nil {
			w.Err = perr.Error()
			r.count("profile.capture.errors", 1)
		} else {
			w.Summary = sum
		}
	}

	r.mu.Lock()
	r.seq++
	w.ID = fmt.Sprintf("w%06d", r.seq)
	r.ring = append(r.ring, w)
	evicted := 0
	if len(r.ring) > r.opts.Cap {
		evicted = len(r.ring) - r.opts.Cap
		r.ring = append(r.ring[:0], r.ring[evicted:]...)
	}
	ringLen := len(r.ring)
	r.mu.Unlock()

	r.count("profile.captures", 1)
	if evicted > 0 {
		r.count("profile.evictions", int64(evicted))
	}
	r.gauge("profile.windows", int64(ringLen))

	if trigger != TriggerSampler {
		r.opts.Journal.Record(events.Event{
			Type: events.ProfileCaptured, Node: r.opts.Node, Digest: digest,
			Detail: fmt.Sprintf("trigger=%s window=%s top=%s", trigger, w.ID, w.Summary.TopFunc()),
		})
		r.opts.Logger.Info("profile captured",
			"trigger", trigger, "window", w.ID, "digest", digest, "top", w.Summary.TopFunc())
	}
	return w
}

// TryTrigger requests an alert-driven capture. It enforces the
// per-trigger-key cooldown and runs the window on its own goroutine so
// the caller (a worker finishing an analysis, a watchdog callback) never
// waits out a profile window. Reports whether a capture was started.
func (r *Recorder) TryTrigger(trigger, digest, traceID string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	now := r.now()
	if last, ok := r.last[trigger]; ok && now.Sub(last) < r.opts.Cooldown {
		r.mu.Unlock()
		r.count("profile.triggers.suppressed", 1)
		return false
	}
	r.last[trigger] = now
	r.mu.Unlock()
	r.count("profile.triggers", 1)
	go r.Capture(trigger, digest, traceID)
	return true
}

// Run drives the background sampler until ctx is done: one cadence
// window per Interval. Blocks; run it on its own goroutine.
func (r *Recorder) Run(ctx context.Context) {
	if r == nil {
		return
	}
	t := time.NewTicker(r.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Capture(TriggerSampler, "", "")
		}
	}
}

// Index returns the ring's index rows, newest first.
func (r *Recorder) Index() []Meta {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Meta, 0, len(r.ring))
	for i := len(r.ring) - 1; i >= 0; i-- {
		out = append(out, r.ring[i].Meta())
	}
	return out
}

// Get returns the window with the given ID, or nil.
func (r *Recorder) Get(id string) *Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.ring {
		if w.ID == id {
			return w
		}
	}
	return nil
}

// Len reports the number of retained windows.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

func (r *Recorder) count(name string, n int64) {
	if r.opts.Metrics != nil {
		r.opts.Metrics.Add(name, n)
	}
}

func (r *Recorder) gauge(name string, v int64) {
	if r.opts.Metrics != nil {
		r.opts.Metrics.SetGauge(name, v)
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
