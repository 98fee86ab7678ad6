package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/service"
	"github.com/dydroid/dydroid/internal/trace"
)

func appIndex(st *corpus.Store, app *corpus.StoreApp) int {
	for i, a := range st.Apps {
		if a == app {
			return i
		}
	}
	return -1
}

// TestRunRecordsPerAppFailures: under the default FailRecord policy a
// failing app yields a StatusAnalysisError record, every other record is
// preserved, no error is lost, and progress still reaches the total.
func TestRunRecordsPerAppFailures(t *testing.T) {
	errBoom := errors.New("boom")
	var maxDone int
	var progressMu sync.Mutex
	cfg := Config{
		Seed: 11, Scale: 0.002, Workers: 4, MaxAttempts: 1,
		Progress: func(done, total int) {
			progressMu.Lock()
			if done > maxDone {
				maxDone = done
			}
			progressMu.Unlock()
		},
	}
	cfg.analyze = func(ctx context.Context, an *core.Analyzer, st *corpus.Store, app *corpus.StoreApp) (*AppRecord, error) {
		if appIndex(st, app)%5 == 0 {
			return nil, fmt.Errorf("injected: %w", errBoom)
		}
		return analyzeOne(ctx, an, st, app)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := len(res.Records)
	if total == 0 {
		t.Fatal("no records")
	}
	wantFailed := (total + 4) / 5 // indices 0, 5, 10, ...
	failed := 0
	for i, rec := range res.Records {
		if rec == nil || rec.Result == nil {
			t.Fatalf("record %d is nil", i)
		}
		if i%5 == 0 {
			failed++
			if rec.Result.Status != core.StatusAnalysisError {
				t.Fatalf("record %d status = %s, want %s", i, rec.Result.Status, core.StatusAnalysisError)
			}
			if !errors.Is(rec.Err, errBoom) {
				t.Fatalf("record %d error lost: %v", i, rec.Err)
			}
		} else {
			if rec.Err != nil || rec.Result.Status == core.StatusAnalysisError {
				t.Fatalf("healthy record %d marked failed: %v", i, rec.Err)
			}
		}
	}
	if failed != wantFailed {
		t.Fatalf("failed = %d, want %d", failed, wantFailed)
	}
	if res.RunStats.Failed != wantFailed || res.RunStats.Succeeded != total-wantFailed {
		t.Fatalf("RunStats failed/succeeded = %d/%d, want %d/%d",
			res.RunStats.Failed, res.RunStats.Succeeded, wantFailed, total-wantFailed)
	}
	if res.RunStats.StatusCounts[core.StatusAnalysisError] != wantFailed {
		t.Fatalf("StatusCounts[analysis-error] = %d, want %d",
			res.RunStats.StatusCounts[core.StatusAnalysisError], wantFailed)
	}
	if maxDone != total {
		t.Fatalf("final progress = %d, want %d (callback must fire for failed apps too)", maxDone, total)
	}
	failedRecs := 0
	for _, rec := range res.Records {
		if rec != nil && rec.Err != nil {
			failedRecs++
		}
	}
	if failedRecs != wantFailed {
		t.Fatalf("%d records carry an error, want %d", failedRecs, wantFailed)
	}
	// The aggregated error names every failing package.
	agg := res.Err()
	if agg == nil {
		t.Fatal("Results.Err() = nil with failures present")
	}
	for i, rec := range res.Records {
		if i%5 == 0 && !strings.Contains(agg.Error(), rec.Meta.Package) {
			t.Fatalf("aggregated error missing package %s", rec.Meta.Package)
		}
	}
}

// TestRunRecoversAnalysisPanic: a panic in one app's analysis becomes
// that app's analysis-error record with an errored root span, and every
// other app's record equals a clean run's.
func TestRunRecoversAnalysisPanic(t *testing.T) {
	cfg := Config{Seed: 13, Scale: 0.002, Workers: 2}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 3
	var (
		mu    sync.Mutex
		roots []*trace.Span
	)
	cfg.analyze = func(ctx context.Context, an *core.Analyzer, st *corpus.Store, app *corpus.StoreApp) (*AppRecord, error) {
		if app.Index == victim {
			mu.Lock()
			roots = append(roots, trace.FromContext(ctx).Root)
			mu.Unlock()
			panic("injected")
		}
		return analyzeOne(ctx, an, st, app)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec := res.Records[victim]
	if rec.Result.Status != core.StatusAnalysisError || rec.Err == nil ||
		!strings.Contains(rec.Err.Error(), "analysis panic: injected") {
		t.Fatalf("panicking app: status %s, err %v", rec.Result.Status, rec.Err)
	}
	if len(roots) != 2 {
		t.Fatalf("panicking app ran %d attempts, want 2 (retried once)", len(roots))
	}
	for _, root := range roots {
		if !strings.Contains(root.Err, "analysis panic: injected") {
			t.Fatalf("root span error = %q", root.Err)
		}
	}
	if res.RunStats.Failed != 1 || res.RunStats.Retried != 1 {
		t.Fatalf("RunStats failed/retried = %d/%d, want 1/1", res.RunStats.Failed, res.RunStats.Retried)
	}
	for i, rec := range res.Records {
		if i == victim {
			continue
		}
		got, err := service.NewRecord("", rec.Result, nil).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := service.NewRecord("", clean.Records[i].Result, nil).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("app %d differs from a clean run:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestRunRetryRecoversTransientFailure: a failure on the first attempt
// only is retried and leaves a clean record.
func TestRunRetryRecoversTransientFailure(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int]int{}
	cfg := Config{Seed: 13, Scale: 0.002, Workers: 2} // MaxAttempts default: 2
	cfg.analyze = func(ctx context.Context, an *core.Analyzer, st *corpus.Store, app *corpus.StoreApp) (*AppRecord, error) {
		i := appIndex(st, app)
		mu.Lock()
		attempts[i]++
		n := attempts[i]
		mu.Unlock()
		if i == 1 && n == 1 {
			return nil, errors.New("transient")
		}
		return analyzeOne(ctx, an, st, app)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.RunStats.Retried != 1 {
		t.Fatalf("Retried = %d, want 1", res.RunStats.Retried)
	}
	if res.RunStats.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", res.RunStats.Failed)
	}
	if rec := res.Records[1]; rec.Err != nil || rec.Result.Status == core.StatusAnalysisError {
		t.Fatalf("retried record not clean: %+v", rec.Result.Status)
	}
	if res.Err() != nil {
		t.Fatalf("Results.Err() = %v, want nil", res.Err())
	}
}

// TestRunFailFastStopsDispatch: the first error cancels the run instead
// of burning CPU on the rest of the corpus.
func TestRunFailFastStopsDispatch(t *testing.T) {
	var calls int32
	cfg := Config{
		Seed: 11, Scale: 0.004, Workers: 1,
		OnFailure: FailFast, MaxAttempts: 1,
	}
	cfg.analyze = func(ctx context.Context, an *core.Analyzer, st *corpus.Store, app *corpus.StoreApp) (*AppRecord, error) {
		atomic.AddInt32(&calls, 1)
		return nil, fmt.Errorf("fatal for %s", app.Spec.Pkg)
	}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("Run returned nil error under FailFast")
	}
	if res != nil {
		t.Fatal("Run returned results alongside a FailFast error")
	}
	if !strings.Contains(err.Error(), "experiments:") {
		t.Fatalf("error not wrapped: %v", err)
	}
	// One worker: the first failure cancels dispatch; at most the job
	// already queued slips through.
	if n := atomic.LoadInt32(&calls); n > 2 {
		t.Fatalf("analyzed %d apps after fatal error, want dispatch to stop", n)
	}
}

// TestRunContextCancellation: an externally cancelled context aborts the
// run with the context error.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{Seed: 11, Scale: 0.002, Workers: 2, Context: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancellationMidRun cancels from inside the analysis loop and
// checks the run winds down instead of draining the corpus.
func TestRunCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int32
	cfg := Config{Seed: 11, Scale: 0.004, Workers: 1, Context: ctx}
	cfg.analyze = func(ctx context.Context, an *core.Analyzer, st *corpus.Store, app *corpus.StoreApp) (*AppRecord, error) {
		if atomic.AddInt32(&calls, 1) == 2 {
			cancel()
		}
		return analyzeOne(ctx, an, st, app)
	}
	_, err := Run(cfg)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&calls); n > 3 {
		t.Fatalf("analyzed %d apps after cancellation", n)
	}
}

// TestRunStatsSnapshot: a healthy run exposes throughput and status
// counts in RunStats, and non-zero per-span timings in its fleet
// snapshot — the one place stage latency is aggregated.
func TestRunStatsSnapshot(t *testing.T) {
	res := small(t)
	st := res.RunStats
	if st.Apps != len(res.Records) || st.Apps == 0 {
		t.Fatalf("stats apps = %d, records = %d", st.Apps, len(res.Records))
	}
	if st.AppsPerSec <= 0 {
		t.Fatalf("throughput = %f", st.AppsPerSec)
	}
	if st.Failed != 0 || st.Succeeded != st.Apps {
		t.Fatalf("failed/succeeded = %d/%d", st.Failed, st.Succeeded)
	}
	for _, span := range []string{"unpack", "dynamic", "static", "replay", "analyze"} {
		h, ok := res.Fleet.Stages[span]
		if !ok || h.Count == 0 {
			t.Fatalf("span %s missing from the fleet histograms: %v", span, res.Fleet.Stages)
		}
		if h.SumNS <= 0 || h.MaxNS <= 0 {
			t.Fatalf("span %s has zero timings: %+v", span, h)
		}
	}
	if got := res.Fleet.Stages["analyze"].Count; got != int64(st.Apps) {
		t.Fatalf("analyze span count = %d, want %d", got, st.Apps)
	}
	if len(st.StatusCounts) == 0 || st.StatusCounts[core.StatusAnalysisError] != 0 {
		t.Fatalf("status counts = %+v", st.StatusCounts)
	}
	// The pipeline's status counters reach RunStats; its stage timings do
	// not pass through the registry any more.
	if got := st.Counters["status."+string(core.StatusExercised)]; got != int64(st.StatusCounts[core.StatusExercised]) {
		t.Fatalf("status.exercised counter = %d, want %d", got, st.StatusCounts[core.StatusExercised])
	}
	out := st.String()
	for _, want := range []string{"apps/sec", "status.exercised", "status"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunStats rendering missing %q:\n%s", want, out)
		}
	}
}
