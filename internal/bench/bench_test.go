package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/experiments"
	"github.com/dydroid/dydroid/internal/trace"
)

func sampleResult() *Result {
	return &Result{
		Schema:            SchemaVersion,
		Name:              "sample",
		Seed:              2016,
		Scale:             0.02,
		Workers:           4,
		Cores:             8,
		Apps:              1183,
		Statuses:          map[string]int{"exercised": 909, "no-dcl": 254},
		ElapsedNS:         689411240,
		AppsPerSec:        1715.95,
		AppsPerSecPerCore: 214.49,
		AllocsPerApp:      1602,
		AllocBytesPerApp:  264448,
		Stages: []StageResult{
			{Name: "dynamic", Count: 916, P50NS: 216000, P95NS: 1022000, P99NS: 1342000},
			{Name: "unpack", Count: 1183, P50NS: 58000, P95NS: 220000, P99NS: 292000},
		},
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	want := sampleResult()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := want.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadFileRejectsNewerSchema(t *testing.T) {
	r := sampleResult()
	r.Schema = SchemaVersion + 1
	path := filepath.Join(t.TempDir(), "BENCH_future.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("ReadFile accepted a result with a newer schema version")
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	base := sampleResult()
	head := sampleResult()
	// Throughput down 50%, dynamic p95 up 2x, allocs up 2x: all regressions.
	head.AppsPerSec = base.AppsPerSec / 2
	head.AllocsPerApp = base.AllocsPerApp * 2
	head.Stages[0].P95NS = base.Stages[0].P95NS * 2

	regs := Diff(base, head, 15)
	got := make(map[string]bool, len(regs))
	for _, g := range regs {
		got[g.Metric] = true
	}
	for _, want := range []string{"apps_per_sec", "allocs_per_app", "stage.dynamic.p95"} {
		if !got[want] {
			t.Errorf("Diff missed regression %q (got %v)", want, regs)
		}
	}
	// Unchanged metrics must not be flagged.
	for _, never := range []string{"stage.unpack.p95", "stage.dynamic.p50", "alloc_bytes_per_app"} {
		if got[never] {
			t.Errorf("Diff flagged unchanged metric %q", never)
		}
	}
}

func TestDiffDirectionAware(t *testing.T) {
	base := sampleResult()
	head := sampleResult()
	// Improvements in both directions: throughput up, latency and allocs
	// down. None may be flagged.
	head.AppsPerSec = base.AppsPerSec * 2
	head.AllocsPerApp = base.AllocsPerApp / 2
	head.Stages[0].P95NS = base.Stages[0].P95NS / 2
	if regs := Diff(base, head, 15); len(regs) != 0 {
		t.Errorf("Diff flagged improvements as regressions: %v", regs)
	}
}

func TestDiffRespectsThreshold(t *testing.T) {
	base := sampleResult()
	head := sampleResult()
	head.AppsPerSec = base.AppsPerSec * 0.90 // -10%
	if regs := Diff(base, head, 15); len(regs) != 0 {
		t.Errorf("-10%% flagged under a 15%% threshold: %v", regs)
	}
	if regs := Diff(base, head, 5); len(regs) != 1 {
		t.Errorf("-10%% not flagged under a 5%% threshold: %v", regs)
	}
}

func TestDiffSkipsUnmatchedStages(t *testing.T) {
	base := sampleResult()
	head := sampleResult()
	head.Stages = append(head.Stages, StageResult{Name: "brand-new", Count: 1, P95NS: 1 << 40})
	if regs := Diff(base, head, 15); len(regs) != 0 {
		t.Errorf("Diff flagged a stage absent from the baseline: %v", regs)
	}
}

// TestRunDeterministicFingerprint runs the harness twice at smoke scale:
// everything except wall-clock timing must be identical for a fixed seed.
func TestRunDeterministicFingerprint(t *testing.T) {
	cfg := Config{Name: "determinism", Seed: 2016, Scale: 0.002, Workers: 4}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a.Fingerprint(), b.Fingerprint()) {
		t.Errorf("fingerprints differ for identical config:\n first %+v\nsecond %+v",
			a.Fingerprint(), b.Fingerprint())
	}
	if a.Apps == 0 || len(a.Stages) == 0 {
		t.Errorf("smoke run produced an empty result: %+v", a)
	}
}

// TestFoldGate: the blocking gate fires only on fold-scale collapses of
// headline metrics, in the right direction for each.
func TestFoldGate(t *testing.T) {
	base := sampleResult()

	// A 40% throughput drop and a 60% allocation rise are bad, but under
	// 2x: warn-only territory.
	drift := sampleResult()
	drift.AppsPerSec = base.AppsPerSec * 0.6
	drift.AppsPerSecPerCore = base.AppsPerSecPerCore * 0.6
	drift.AllocsPerApp = base.AllocsPerApp * 16 / 10
	if regs := FoldGate(base, drift, 2); len(regs) != 0 {
		t.Errorf("FoldGate fired on sub-2x drift: %v", regs)
	}

	// Halved throughput and doubled allocations both cross the 2x gate.
	collapse := sampleResult()
	collapse.AppsPerSec = base.AppsPerSec / 2
	collapse.AllocsPerApp = base.AllocsPerApp * 2
	regs := FoldGate(base, collapse, 2)
	names := map[string]bool{}
	for _, g := range regs {
		names[g.Metric] = true
	}
	if !names["apps_per_sec"] || !names["allocs_per_app"] {
		t.Errorf("FoldGate missed a 2x collapse: %v", regs)
	}
	if names["alloc_bytes_per_app"] || names["apps_per_sec_per_core"] {
		t.Errorf("FoldGate flagged unmoved metrics: %v", regs)
	}

	// Improvements never fire the gate, however large.
	better := sampleResult()
	better.AppsPerSec = base.AppsPerSec * 10
	better.AllocsPerApp = base.AllocsPerApp / 10
	if regs := FoldGate(base, better, 2); len(regs) != 0 {
		t.Errorf("FoldGate flagged improvements: %v", regs)
	}
}

// TestNextTrajectory: auto-numbering picks max+1 and reports the latest
// existing point.
func TestNextTrajectory(t *testing.T) {
	dir := t.TempDir()
	next, prev, err := NextTrajectory(dir)
	if err != nil {
		t.Fatalf("NextTrajectory: %v", err)
	}
	if want := filepath.Join(dir, "BENCH_0.json"); next != want || prev != "" {
		t.Fatalf("empty dir: next=%q prev=%q, want next=%q prev empty", next, prev, want)
	}
	for _, n := range []string{"BENCH_3.json", "BENCH_10.json", "BENCH_2.json", "bench-smoke.json", "BENCH_x.json"} {
		if err := sampleResult().WriteFile(filepath.Join(dir, n)); err != nil {
			t.Fatal(err)
		}
	}
	next, prev, err = NextTrajectory(dir)
	if err != nil {
		t.Fatalf("NextTrajectory: %v", err)
	}
	if want := filepath.Join(dir, "BENCH_11.json"); next != want {
		t.Errorf("next = %q, want %q", next, want)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); prev != want {
		t.Errorf("prev = %q, want %q", prev, want)
	}
}

// TestCompare renders every headline metric with a signed delta.
func TestCompare(t *testing.T) {
	base := sampleResult()
	head := sampleResult()
	head.AppsPerSec = base.AppsPerSec * 2
	out := Compare(base, head)
	for _, want := range []string{"apps_per_sec", "allocs_per_app", "+100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Compare output missing %q:\n%s", want, out)
		}
	}
}

// TestSpanQuantilesOrderIndependent: the exact per-span quantiles depend
// only on the set of retained traces, not on record order (workers
// finish apps in any order), every span of a tree counts, and records
// without a trace (failed analyses) contribute nothing.
func TestSpanQuantilesOrderIndependent(t *testing.T) {
	base := time.Unix(0, 0)
	rec := func(d time.Duration) *experiments.AppRecord {
		root := &trace.Span{Name: "app", StartAt: base, EndAt: base.Add(d)}
		root.Children = []*trace.Span{
			{Name: "replay", StartAt: base, EndAt: base.Add(d / 2)},
			{Name: "replay", StartAt: base, EndAt: base.Add(d / 2)},
		}
		return &experiments.AppRecord{Result: &core.AppResult{Trace: &trace.Trace{ID: "t", Root: root}}}
	}
	failed := &experiments.AppRecord{Result: &core.AppResult{Status: core.StatusAnalysisError}}
	var desc, asc []*experiments.AppRecord
	for _, d := range []time.Duration{50, 40, 30, 20, 10} {
		desc = append(desc, rec(d))
	}
	for i := len(desc) - 1; i >= 0; i-- {
		asc = append(asc, desc[i])
	}
	desc = append(desc, failed, nil)
	got, other := spanQuantiles(desc), spanQuantiles(asc)
	if !reflect.DeepEqual(got, other) {
		t.Fatalf("quantiles depend on record order:\n%+v\n%+v", got, other)
	}
	want := []StageResult{
		{Name: "app", Count: 5, P50NS: 30, P95NS: 50, P99NS: 50},
		{Name: "replay", Count: 10, P50NS: 15, P95NS: 25, P99NS: 25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spanQuantiles = %+v, want %+v", got, want)
	}
	// The records' traces are read, never reordered.
	if d := desc[0].Result.Trace.Root.Duration(); d != 50 {
		t.Fatalf("first record's trace changed: root %v", d)
	}
}
