// Package bench is the recorded-trajectory benchmark harness for the
// measurement pipeline. It runs a fixed-seed corpus through
// experiments.Run, collects throughput (apps/sec, apps/sec-per-core),
// allocation pressure (allocs and bytes per app) and exact per-stage
// latency percentiles, and serializes everything as a schema-versioned
// JSON document (BENCH_<n>.json at the repo root). Committed trajectory
// files plus the Diff comparator give the repo a recorded performance
// history: CI reruns the harness at smoke scale, warns on drift beyond
// the Diff threshold, and fails outright when FoldGate sees a headline
// metric collapse by 2x or more against the committed baseline.
//
// Record the next committed trajectory point (auto-numbered, diffed
// against the previous one) with:
//
//	go run ./cmd/bench run
//
// and compare two trajectories with:
//
//	go run ./cmd/bench diff BENCH_6.json BENCH_7.json
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/dydroid/dydroid/internal/experiments"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/stats"
	"github.com/dydroid/dydroid/internal/trace"
)

// SchemaVersion identifies the Result JSON layout. Bump it when a field
// is renamed, removed, or changes meaning; adding fields is
// backward-compatible and does not require a bump.
const SchemaVersion = 1

// DefaultRegressionPct is the comparator threshold used when the caller
// does not supply one: a metric moving more than this percentage in the
// unfavourable direction is flagged.
const DefaultRegressionPct = 15.0

// Config controls one harness run.
type Config struct {
	// Name labels the run (e.g. "trajectory" or "ci-smoke").
	Name string
	// Seed drives corpus generation; fixed seeds make the non-timing
	// portion of the Result reproducible.
	Seed int64
	// Scale shrinks the marketplace exactly as experiments.Config.Scale
	// does (1.0 = the paper's 58,739 apps).
	Scale float64
	// Workers is the pipeline parallelism (default GOMAXPROCS).
	Workers int
	// Stream selects the streaming corpus path (experiments.Config.Stream).
	// The streamed and materialized runs are result-equivalent, so
	// trajectory points taken either way share a fingerprint; the timing
	// sections measure the path that was actually run.
	Stream bool
}

// Result is one recorded benchmark trajectory point. All durations are
// serialized as explicit *_ns integer fields so the JSON schema is
// stable across Go versions and does not depend on time.Duration's
// encoding.
type Result struct {
	Schema  int     `json:"schema"`
	Name    string  `json:"name"`
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	Cores   int     `json:"cores"`

	// Apps and Statuses describe the measured corpus: deterministic for
	// a fixed seed and scale.
	Apps     int            `json:"apps"`
	Statuses map[string]int `json:"statuses"`

	// Timing section.
	ElapsedNS         int64   `json:"elapsed_ns"`
	AppsPerSec        float64 `json:"apps_per_sec"`
	AppsPerSecPerCore float64 `json:"apps_per_sec_per_core"`
	AllocsPerApp      int64   `json:"allocs_per_app"`
	AllocBytesPerApp  int64   `json:"alloc_bytes_per_app"`

	// Stages are the exact per-stage latency percentiles from the run's
	// span trees, sorted by name.
	Stages []StageResult `json:"stages"`
}

// StageResult is one pipeline stage's latency summary.
type StageResult struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P95NS int64  `json:"p95_ns"`
	P99NS int64  `json:"p99_ns"`
}

// Fingerprint is the deterministic (non-timing) portion of a Result:
// two runs with the same seed, scale and schema must produce equal
// fingerprints regardless of machine speed or worker count scheduling.
type Fingerprint struct {
	Schema   int
	Seed     int64
	Scale    float64
	Apps     int
	Statuses map[string]int
	// StageCounts maps stage name to span count; which spans exist (and
	// how many) depends only on the corpus, not on timing.
	StageCounts map[string]int
}

// Fingerprint extracts the deterministic portion of the result.
func (r *Result) Fingerprint() Fingerprint {
	fp := Fingerprint{
		Schema:      r.Schema,
		Seed:        r.Seed,
		Scale:       r.Scale,
		Apps:        r.Apps,
		Statuses:    make(map[string]int, len(r.Statuses)),
		StageCounts: make(map[string]int, len(r.Stages)),
	}
	for k, v := range r.Statuses {
		fp.Statuses[k] = v
	}
	for _, s := range r.Stages {
		fp.StageCounts[s.Name] = s.Count
	}
	return fp
}

// Run executes the harness: one experiments.Run under the given config,
// with allocation deltas sampled around it.
func Run(cfg Config) (*Result, error) {
	if cfg.Name == "" {
		cfg.Name = "bench"
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("bench: scale must be positive, got %v", cfg.Scale)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := experiments.Run(experiments.Config{
		Seed:    cfg.Seed,
		Scale:   cfg.Scale,
		Workers: workers,
		Stream:  cfg.Stream,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	runtime.ReadMemStats(&after)

	cores := runtime.GOMAXPROCS(0)
	out := &Result{
		Schema:     SchemaVersion,
		Name:       cfg.Name,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		Workers:    workers,
		Cores:      cores,
		Apps:       res.RunStats.Apps,
		Statuses:   make(map[string]int, len(res.RunStats.StatusCounts)),
		ElapsedNS:  res.RunStats.Elapsed.Nanoseconds(),
		AppsPerSec: res.RunStats.AppsPerSec,
	}
	if cores > 0 {
		out.AppsPerSecPerCore = res.RunStats.AppsPerSec / float64(cores)
	}
	if apps := int64(res.RunStats.Apps); apps > 0 {
		out.AllocsPerApp = int64(after.Mallocs-before.Mallocs) / apps
		out.AllocBytesPerApp = int64(after.TotalAlloc-before.TotalAlloc) / apps
	}
	for st, n := range res.RunStats.StatusCounts {
		out.Statuses[string(st)] = n
	}
	out.Stages = spanQuantiles(res.Records)
	return out, nil
}

// spanQuantiles computes exact nearest-rank p50/p95/p99 per span name
// over the retained span trees of records, sorted by name. It runs after
// the measured run, so the exact order statistics cost the production
// path nothing. Every span of a tree counts (an app's four replays are
// four samples); records without a trace (failed analyses) contribute
// none.
func spanQuantiles(records []*experiments.AppRecord) []StageResult {
	durs := make(map[string][]time.Duration)
	for _, rec := range records {
		if rec == nil || rec.Result == nil || rec.Result.Trace == nil {
			continue
		}
		rec.Result.Trace.Root.Walk(func(sp *trace.Span) {
			durs[sp.Name] = append(durs[sp.Name], sp.Duration())
		})
	}
	out := make([]StageResult, 0, len(durs))
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		at := func(q float64) int64 { return d[metrics.NearestRank(int64(len(d)), q)-1].Nanoseconds() }
		out = append(out, StageResult{Name: name, Count: len(d), P50NS: at(0.50), P95NS: at(0.95), P99NS: at(0.99)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table renders the result as an aligned human-readable report.
func (r *Result) Table() string {
	t := stats.NewTable(
		fmt.Sprintf("bench %s (schema %d): seed=%d scale=%v workers=%d cores=%d",
			r.Name, r.Schema, r.Seed, r.Scale, r.Workers, r.Cores),
		"metric", "value")
	t.Row("apps", r.Apps)
	t.Row("elapsed", time.Duration(r.ElapsedNS).Round(time.Millisecond).String())
	t.Row("apps/sec", r.AppsPerSec)
	t.Row("apps/sec/core", r.AppsPerSecPerCore)
	t.Row("allocs/app", int(r.AllocsPerApp))
	t.Row("alloc bytes/app", int(r.AllocBytesPerApp))
	out := t.String()

	if len(r.Stages) > 0 {
		st := stats.NewTable("stage latency (exact quantiles)", "stage", "count", "p50", "p95", "p99")
		for _, s := range r.Stages {
			st.Row(s.Name, s.Count,
				time.Duration(s.P50NS).Round(time.Microsecond).String(),
				time.Duration(s.P95NS).Round(time.Microsecond).String(),
				time.Duration(s.P99NS).Round(time.Microsecond).String())
		}
		out += "\n" + st.String()
	}
	return out
}

// Regression is one metric that moved beyond the threshold in the
// unfavourable direction between two trajectory points.
type Regression struct {
	// Metric names the value, e.g. "apps_per_sec" or "stage.dynamic.p95".
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaPct is the signed percent change from Old to New.
	DeltaPct float64 `json:"delta_pct"`
}

func (g Regression) String() string {
	return fmt.Sprintf("%s: %.4g -> %.4g (%+.1f%%)", g.Metric, g.Old, g.New, g.DeltaPct)
}

// Diff compares two trajectory points and returns every metric that
// regressed by more than thresholdPct percent (pass <= 0 for
// DefaultRegressionPct). Direction matters: throughput metrics regress
// when they fall, latency and allocation metrics regress when they
// rise. Stages present in only one result are skipped — the comparator
// flags movement, not corpus shape changes (Fingerprint covers those).
func Diff(base, head *Result, thresholdPct float64) []Regression {
	if thresholdPct <= 0 {
		thresholdPct = DefaultRegressionPct
	}
	var out []Regression
	// lowerIsBetter=false: regression when the metric falls.
	check := func(metric string, oldV, newV float64, lowerIsBetter bool) {
		if oldV == 0 {
			return // no baseline to compare against
		}
		delta := (newV - oldV) / oldV * 100
		bad := delta > thresholdPct
		if !lowerIsBetter {
			bad = delta < -thresholdPct
		}
		if bad {
			out = append(out, Regression{Metric: metric, Old: oldV, New: newV, DeltaPct: delta})
		}
	}
	check("apps_per_sec", base.AppsPerSec, head.AppsPerSec, false)
	check("apps_per_sec_per_core", base.AppsPerSecPerCore, head.AppsPerSecPerCore, false)
	check("allocs_per_app", float64(base.AllocsPerApp), float64(head.AllocsPerApp), true)
	check("alloc_bytes_per_app", float64(base.AllocBytesPerApp), float64(head.AllocBytesPerApp), true)

	oldStages := make(map[string]StageResult, len(base.Stages))
	for _, s := range base.Stages {
		oldStages[s.Name] = s
	}
	for _, s := range head.Stages {
		o, ok := oldStages[s.Name]
		if !ok {
			continue
		}
		check("stage."+s.Name+".p50", float64(o.P50NS), float64(s.P50NS), true)
		check("stage."+s.Name+".p95", float64(o.P95NS), float64(s.P95NS), true)
		check("stage."+s.Name+".p99", float64(o.P99NS), float64(s.P99NS), true)
	}
	return out
}

// headlineMetrics are the summary metrics FoldGate and Compare report
// on, with their improvement direction.
var headlineMetrics = []struct {
	name          string
	lowerIsBetter bool
	get           func(*Result) float64
}{
	{"apps_per_sec", false, func(r *Result) float64 { return r.AppsPerSec }},
	{"apps_per_sec_per_core", false, func(r *Result) float64 { return r.AppsPerSecPerCore }},
	{"allocs_per_app", true, func(r *Result) float64 { return float64(r.AllocsPerApp) }},
	{"alloc_bytes_per_app", true, func(r *Result) float64 { return float64(r.AllocBytesPerApp) }},
}

// Compare renders the headline-metric deltas between two trajectory
// points as an aligned table (informational; Diff and FoldGate decide
// what counts as a regression).
func Compare(base, head *Result) string {
	t := stats.NewTable(
		fmt.Sprintf("bench delta: %s -> %s", base.Name, head.Name),
		"metric", "old", "new", "delta")
	for _, m := range headlineMetrics {
		oldV, newV := m.get(base), m.get(head)
		delta := "n/a"
		if oldV != 0 {
			delta = fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
		}
		t.Row(m.name, fmt.Sprintf("%.4g", oldV), fmt.Sprintf("%.4g", newV), delta)
	}
	return t.String()
}

// FoldGate flags headline metrics that regressed by at least fold times
// between two points: throughput fails when it drops below base/fold,
// allocation pressure when it rises above base*fold. A percent
// threshold cannot express "2x worse" symmetrically (throughput halves
// at -50%, allocations double at +100%), so the blocking CI gate is
// fold-based and restricted to the headline metrics; sub-fold drift is
// Diff's warn-only territory. fold <= 1 means every unfavourable move
// fails; the conventional CI value is 2.
func FoldGate(base, head *Result, fold float64) []Regression {
	if fold < 1 {
		fold = 1
	}
	var out []Regression
	for _, m := range headlineMetrics {
		oldV, newV := m.get(base), m.get(head)
		if oldV == 0 {
			continue // no baseline to compare against
		}
		bad := m.lowerIsBetter && newV >= oldV*fold ||
			!m.lowerIsBetter && newV <= oldV/fold
		if bad {
			out = append(out, Regression{
				Metric: m.name, Old: oldV, New: newV,
				DeltaPct: (newV - oldV) / oldV * 100,
			})
		}
	}
	return out
}

// trajectoryRE matches committed trajectory file names.
var trajectoryRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// NextTrajectory scans dir for committed BENCH_<n>.json points and
// returns the path of the next point to record plus the path of the
// latest existing one (empty when the trajectory is empty).
func NextTrajectory(dir string) (next, prev string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", fmt.Errorf("bench: %w", err)
	}
	maxN := -1
	for _, e := range entries {
		m := trajectoryRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= maxN {
			continue
		}
		maxN = n
		prev = filepath.Join(dir, e.Name())
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", maxN+1)), prev, nil
}

// WriteFile serializes the result as indented JSON with a trailing
// newline (diff-friendly for a committed artifact).
func (r *Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a trajectory point, rejecting unknown schema versions
// so the comparator never silently misreads an old layout.
func ReadFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema > SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %d, newer than supported %d", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}
