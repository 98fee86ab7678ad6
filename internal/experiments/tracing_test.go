package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/trace"
)

// TestRunStageQuantilesFromTraces: a healthy run folds every app's span
// tree into the fleet's per-span histograms, one "app" root per app, and
// the run's latency report renders them with the slowest apps.
func TestRunStageQuantilesFromTraces(t *testing.T) {
	res := small(t)
	stages := res.Fleet.Stages
	for _, span := range []string{"app", "analyze", "unpack", "dynamic", "static", "replay"} {
		h, ok := stages[span]
		if !ok || h.Count == 0 {
			t.Fatalf("span %q missing from the fleet histograms: %v", span, stages)
		}
		p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		if p50 <= 0 || p50 > p95 || p95 > p99 {
			t.Fatalf("span %q quantiles not monotone: %v %v %v", span, p50, p95, p99)
		}
	}
	if got, want := stages["app"].Count, int64(res.RunStats.Apps); got != want {
		t.Fatalf("app span count = %d, want %d", got, want)
	}
	// Four replay configs per malware-flagged app.
	if got := stages["replay"].Count; got%4 != 0 || got <= 0 || got > 4*int64(res.RunStats.Apps) {
		t.Fatalf("replay span count = %d, want positive multiple of 4 <= %d", got, 4*res.RunStats.Apps)
	}
	out := res.Fleet.LatencyReport()
	for _, want := range []string{"Stage latency", "Slowest analyses", "replay"} {
		if !strings.Contains(out, want) {
			t.Fatalf("latency report missing %q:\n%s", want, out)
		}
	}
}

// TestRunKeepsSlowestTraces: the fleet's slowest-apps list is the one
// ranking, sorted slowest first, and each entry resolves to the retained
// span tree of its record, rooted at a span covering the whole app.
func TestRunKeepsSlowestTraces(t *testing.T) {
	res := small(t)
	slow := res.Fleet.SlowestApps.Entries
	if len(slow) == 0 {
		t.Fatal("no slowest apps ranked")
	}
	traces := res.slowTraces()
	if len(traces) != len(slow) {
		t.Fatalf("resolved %d traces for %d slowest apps", len(traces), len(slow))
	}
	for i, s := range slow {
		tr := traces[i]
		if tr.Root == nil || tr.Root.Name != "app" {
			t.Fatalf("slow entry %d root span = %+v, want app", i, tr.Root)
		}
		// Unpack failures never learn their package name, so the fleet
		// ranks them under "".
		if got := tr.Root.Attr("package"); s.Package != "" && got != s.Package {
			t.Fatalf("slow entry %d trace is for %q, want %q", i, got, s.Package)
		}
		if int64(tr.Root.Duration()) != s.NS {
			t.Fatalf("slow entry %d total %d != root duration %s", i, s.NS, tr.Root.Duration())
		}
		if i > 0 && s.NS > slow[i-1].NS {
			t.Fatalf("slowest apps not sorted: %d > %d at %d", s.NS, slow[i-1].NS, i)
		}
	}
}

// TestRunWritesTraceDir: with TraceDir set, the run persists the traces
// of the fleet's slowest apps as JSONL, in ranking order, and the
// RunStats block as JSON, both round-trippable.
func TestRunWritesTraceDir(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{Seed: 17, Scale: 0.002, Workers: 2, TraceDir: dir})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	slow := res.Fleet.SlowestApps.Entries
	if len(slow) == 0 {
		t.Fatal("no slowest apps ranked")
	}

	f, err := os.Open(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		t.Fatalf("traces.jsonl: %v", err)
	}
	defer f.Close()
	traces, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	if len(traces) != len(slow) {
		t.Fatalf("persisted %d traces, want %d", len(traces), len(slow))
	}
	want := res.slowTraces()
	for i, tr := range traces {
		if tr.Root == nil || tr.Root.Name != "app" {
			t.Fatalf("trace %d has no app root", i)
		}
		if tr.ID != want[i].ID {
			t.Fatalf("trace %d is %s, want slowest entry %d's trace %s", i, tr.ID, i, want[i].ID)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "runstats.json"))
	if err != nil {
		t.Fatalf("runstats.json: %v", err)
	}
	var st RunStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("runstats.json decode: %v", err)
	}
	if st.Apps != res.RunStats.Apps || len(st.StatusCounts) == 0 || len(st.Counters) == 0 {
		t.Fatalf("persisted RunStats incomplete: apps=%d statuses=%d counters=%d",
			st.Apps, len(st.StatusCounts), len(st.Counters))
	}
}
