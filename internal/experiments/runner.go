// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): it generates the calibrated marketplace, runs the full
// DyDroid pipeline over every app (in parallel), replays the malware apps
// under the four Table VIII device configurations, and renders each
// table with the paper-reported values alongside the measured ones.
//
// The runner is built for marketplace scale: per-app failures are retried
// once and then recorded as StatusAnalysisError records instead of
// aborting a multi-hour run (FailRecord, the default), or aggregated and
// returned after cancelling dispatch (FailFast). Every app runs under one
// span tree (AppResult.Trace); the run folds each tree into its fleet
// snapshot (Results.Fleet), whose span histograms and slowest-apps list
// are the run's latency report. Status and retry counters land in
// Results.RunStats.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/resultstore"
	"github.com/dydroid/dydroid/internal/stats"
	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

// FailurePolicy selects how Run reacts to a per-app pipeline failure.
type FailurePolicy int

const (
	// FailRecord (the default) retries the failing app and, when it still
	// fails, records a StatusAnalysisError AppRecord carrying the error,
	// then keeps going. Run returns nil error; Results.Err() aggregates
	// the per-app failures.
	FailRecord FailurePolicy = iota
	// FailFast cancels dispatch on the first failure (no retry of other
	// queued apps) and returns every error gathered from in-flight
	// workers, joined.
	FailFast
)

// Config controls a measurement run.
type Config struct {
	// Seed drives corpus generation and fuzzing.
	Seed int64
	// Scale shrinks the marketplace (1.0 = the paper's 58,739 apps).
	Scale float64
	// Workers is the pipeline parallelism (default: GOMAXPROCS).
	Workers int
	// TrainPerFamily sets DroidNative training samples per family
	// (default 3; the paper used ~65).
	TrainPerFamily int
	// MonkeyEvents is the per-app fuzz budget (default 25).
	MonkeyEvents int
	// Stream, when true, consumes the corpus through corpus.Stream
	// instead of a materialized store: workers analyze apps as the
	// bounded producer yields them and each spec is released once its
	// record lands, so marketplace-scale runs never hold the whole
	// population. Results are byte-identical to a materialized run at
	// the same Seed/Scale.
	Stream bool
	// Progress, when non-nil, receives periodic progress callbacks. It
	// fires every 500 completed apps and once at done == total; failed
	// apps count as completed.
	Progress func(done, total int)
	// Context, when non-nil, cancels the run externally: dispatch stops
	// and Run returns the context error once in-flight apps drain.
	Context context.Context
	// OnFailure is the per-app failure policy (default FailRecord).
	OnFailure FailurePolicy
	// MaxAttempts is the per-app attempt budget (default 2: the paper-era
	// runner's retry-once-then-record behaviour; 1 disables retries).
	MaxAttempts int
	// Metrics, when non-nil, is the registry the run records into;
	// otherwise Run creates a private one. Either way the snapshot lands
	// in Results.RunStats.
	Metrics *metrics.Registry
	// Warm, when non-nil, is a resultstore-backed warm-start: apps whose
	// content digest already has a record from a previous run (same Seed
	// and MonkeyEvents) skip analysis, and fresh results are stored for
	// the next run. Counters warm.hits/warm.misses/warm.stores/warm.errors
	// land in RunStats. Open the store with Version experiments.WarmVersion.
	Warm *resultstore.Store
	// TraceDir, when non-empty, is created if missing and receives the
	// run's observability artifacts: traces.jsonl (the span trees of the
	// apps Results.Fleet ranks slowest, one per line), runstats.json (the
	// RunStats block) and fleet.json (the shard's mergeable measurement
	// snapshot).
	TraceDir string

	// analyze is the per-app analysis function, replaceable in tests to
	// inject failures. It receives a context carrying the app's trace.
	analyze func(context.Context, *core.Analyzer, *corpus.Store, *corpus.StoreApp) (*AppRecord, error)
}

// AppRecord pairs store metadata with the pipeline's findings for one app.
type AppRecord struct {
	Meta   corpus.Metadata
	Result *core.AppResult
	// ReplayLoaded maps each Table VIII configuration to the set of
	// malicious file paths still loaded under it (malware apps only).
	ReplayLoaded map[core.ReplayConfig]map[string]bool
	// MalwarePaths is the set of paths DroidNative flagged for this app.
	MalwarePaths map[string]bool
	// Err is the pipeline failure for this app after retries (FailRecord
	// policy); Result then carries StatusAnalysisError.
	Err error
}

// RunStats is the observability block of a measurement run.
type RunStats struct {
	// Elapsed is the wall-clock measurement time.
	Elapsed time.Duration
	// Apps is the number of records produced (equals the corpus size on a
	// completed run).
	Apps int
	// Succeeded / Failed split Apps by pipeline outcome; Retried counts
	// extra attempts made under the retry policy.
	Succeeded int
	Failed    int
	Retried   int
	// AppsPerSec is the end-to-end throughput.
	AppsPerSec float64
	// StatusCounts tallies the per-app Table II statuses (including
	// analysis-error records).
	StatusCounts map[core.Status]int
	// Counters is the raw counter section of the metrics snapshot. Stage
	// latency is not here: it is Results.Fleet's span histograms.
	Counters map[string]int64
}

// String renders the stats block as an aligned report section.
func (s RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %d apps in %s (%.1f apps/sec), %d failed, %d retried\n",
		s.Apps, s.Elapsed.Round(time.Millisecond), s.AppsPerSec, s.Failed, s.Retried)
	if len(s.StatusCounts) > 0 {
		t := stats.NewTable("status counts", "status", "apps")
		for _, st := range []core.Status{
			core.StatusExercised, core.StatusNoDCL, core.StatusUnpackFailure,
			core.StatusRewriteFailure, core.StatusNoActivity, core.StatusCrash,
			core.StatusAnalysisError,
		} {
			if n := s.StatusCounts[st]; n > 0 {
				t.Row(string(st), n)
			}
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString(metrics.Snapshot{Counters: s.Counters}.String())
	return b.String()
}

// Results is the complete measurement output.
type Results struct {
	Config  Config
	Scale   float64
	Records []*AppRecord
	// Elapsed is the wall-clock measurement time.
	Elapsed time.Duration
	// RunStats carries throughput, failure and status counts.
	RunStats RunStats
	// Fleet is the run's mergeable measurement snapshot — the same shape
	// dydroidd serves at /v1/fleet. Its span histograms and slowest-apps
	// list (Fleet.LatencyReport) are the run's latency figures. With
	// Config.TraceDir set it is also written as fleet.json, so sharded
	// runs can be combined with `apkinspect fleet merge`.
	Fleet *telemetry.Snapshot
}

// Err aggregates the per-app failures recorded under the FailRecord
// policy (nil when every app analyzed cleanly).
func (r *Results) Err() error {
	var errs []error
	for _, rec := range r.Records {
		if rec != nil && rec.Err != nil {
			errs = append(errs, fmt.Errorf("experiments: %s: %w", rec.Meta.Package, rec.Err))
		}
	}
	return errors.Join(errs...)
}

// Run executes the measurement.
func Run(cfg Config) (*Results, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2
	}
	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	analyze := cfg.analyze
	if analyze == nil {
		analyze = analyzeOne
	}

	start := time.Now()
	// Pre-worker phase: corpus generation and classifier training both
	// honour cfg.Context, so a cancelled run returns before any worker
	// starts instead of planning a marketplace first.
	ccfg := corpus.Config{Seed: cfg.Seed, Scale: cfg.Scale}
	var (
		store  *corpus.Store
		stream *corpus.AppStream
		total  int
		err    error
	)
	if cfg.Stream {
		stream, err = corpus.Stream(ctx, ccfg, 2*cfg.Workers)
		if err == nil {
			store, total = stream.Store, stream.Total
		}
	} else {
		store, err = corpus.GenerateContext(ctx, ccfg)
		if err == nil {
			total = len(store.Apps)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: run cancelled before training: %w", err)
	}
	clf, err := store.TrainingSet(cfg.TrainPerFamily)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	records := make([]*AppRecord, total)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex // guards done, errs, failed, retried
		done    int
		failed  int
		retried int
		errs    []error
	)
	// Workers drain one unified app channel whichever way the corpus
	// arrives: the streaming producer's own channel, or an inline
	// dispatcher over the materialized list.
	var jobs <-chan *corpus.StoreApp
	if stream != nil {
		jobs = stream.Apps()
	} else {
		ch := make(chan *corpus.StoreApp)
		jobs = ch
		go func() {
			defer close(ch)
			for _, app := range store.Apps {
				select {
				case ch <- app:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	fleet := telemetry.New(telemetry.Options{})

	// runTraced wraps one analysis attempt in a fresh per-app trace whose
	// root "app" span covers the pipeline plus any replays; successful
	// attempts feed the fleet aggregator. A panic becomes the attempt's
	// error, so it takes the retry and failure-record path of any other
	// failure instead of killing the run.
	runTraced := func(an *core.Analyzer, app *corpus.StoreApp, digest string) (*AppRecord, error) {
		actx, root := trace.Start(ctx, "app")
		if digest != "" {
			trace.FromContext(actx).Digest = digest
		}
		rec, err := func() (rec *AppRecord, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("analysis panic: %v", p)
				}
			}()
			return analyze(actx, an, store, app)
		}()
		root.SetAttr("package", app.Spec.Pkg)
		root.EndErr(err)
		if err == nil {
			fleet.ObserveApp(rec.Result, trace.FromContext(actx))
		}
		return rec, err
	}

	worker := func() {
		defer wg.Done()
		an := newAnalyzer(cfg, store, clf, reg)
		for app := range jobs {
			if ctx.Err() != nil {
				continue // drain without analyzing once cancelled
			}
			var (
				rec    *AppRecord
				digest string
			)
			if cfg.Warm != nil {
				rec, digest = warmLookup(cfg.Warm, cfg, store, app, reg)
			}
			if rec == nil {
				var err error
				rec, err = runTraced(an, app, digest)
				for attempt := 2; err != nil && attempt <= cfg.MaxAttempts && ctx.Err() == nil; attempt++ {
					reg.Add("apps.retried", 1)
					mu.Lock()
					retried++
					mu.Unlock()
					rec, err = runTraced(an, app, digest)
				}
				if err != nil {
					reg.Add("apps.failed", 1)
					mu.Lock()
					failed++
					errs = append(errs, fmt.Errorf("experiments: %s: %w", app.Spec.Pkg, err))
					mu.Unlock()
					if cfg.OnFailure == FailFast {
						cancel()
					} else {
						rec = failureRecord(app, err)
						fleet.ObserveError(app.Spec.Pkg, err, nil)
						fleet.ObserveApp(rec.Result, nil)
					}
				} else if cfg.Warm != nil {
					warmSave(cfg.Warm, cfg, digest, rec, reg)
				}
			} else {
				// Warm hit: the cached result still counts in this shard's
				// measurement aggregate (no trace — analysis was skipped).
				fleet.ObserveApp(rec.Result, nil)
			}
			records[app.Index] = rec
			mu.Lock()
			done++
			d := done
			mu.Unlock()
			if cfg.Progress != nil && (d%500 == 0 || d == total) {
				cfg.Progress(d, total)
			}
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()

	if cfg.OnFailure == FailFast {
		mu.Lock()
		joined := errors.Join(errs...)
		mu.Unlock()
		if joined != nil {
			return nil, joined
		}
	}
	if err := parent.Err(); err != nil {
		return nil, fmt.Errorf("experiments: run cancelled after %d/%d apps: %w", done, total, err)
	}

	elapsed := time.Since(start)
	res := &Results{
		Config:  cfg,
		Scale:   cfg.Scale,
		Records: records,
		Elapsed: elapsed,
	}
	res.RunStats = buildStats(reg, records, elapsed, failed, retried)
	res.Fleet = fleet.Snapshot()
	if cfg.TraceDir != "" {
		if err := writeTraceDir(cfg.TraceDir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// failureRecord is the placeholder stored for an app whose analysis
// failed after retries: the run keeps its slot (no nil records) and the
// error travels with the record.
func failureRecord(app *corpus.StoreApp, err error) *AppRecord {
	return &AppRecord{
		Meta: app.Meta,
		Result: &core.AppResult{
			Package: app.Spec.Pkg,
			Status:  core.StatusAnalysisError,
			Crash:   err,
		},
		Err: err,
	}
}

func buildStats(reg *metrics.Registry, records []*AppRecord, elapsed time.Duration, failed, retried int) RunStats {
	snap := reg.Snapshot()
	st := RunStats{
		Elapsed:      elapsed,
		Apps:         len(records),
		Succeeded:    len(records) - failed,
		Failed:       failed,
		Retried:      retried,
		StatusCounts: make(map[core.Status]int),
		Counters:     snap.Counters,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		st.AppsPerSec = float64(len(records)) / secs
	}
	for _, rec := range records {
		if rec != nil && rec.Result != nil {
			st.StatusCounts[rec.Result.Status]++
		}
	}
	return st
}

func newAnalyzer(cfg Config, store *corpus.Store, clf *droidnative.Classifier, reg *metrics.Registry) *core.Analyzer {
	return core.NewAnalyzer(core.Options{
		Seed:         cfg.Seed,
		MonkeyEvents: cfg.MonkeyEvents,
		Classifier:   clf,
		Network:      store.Network,
		SetupDevice:  store.SetupDevice,
		Metrics:      reg,
	})
}

// analyzeOne runs the pipeline for one app and, when malware is found,
// the four replay configurations; everything joins the trace carried by
// ctx, so the app's span tree covers analysis and replays alike.
func analyzeOne(ctx context.Context, an *core.Analyzer, store *corpus.Store, app *corpus.StoreApp) (*AppRecord, error) {
	data, err := store.BuildAPK(app)
	if err != nil {
		return nil, err
	}
	res, err := an.AnalyzeAPKContext(ctx, data)
	if err != nil {
		return nil, err
	}
	rec := &AppRecord{Meta: app.Meta, Result: res}
	if len(res.Malware) > 0 {
		rec.MalwarePaths = make(map[string]bool, len(res.Malware))
		for _, hit := range res.Malware {
			rec.MalwarePaths[hit.Path] = true
		}
		rec.ReplayLoaded = make(map[core.ReplayConfig]map[string]bool, len(core.AllReplayConfigs))
		for _, rc := range core.AllReplayConfigs {
			// Replays reuse the analysis run's parse (res.Prepared): the
			// archive is never parsed or decoded again.
			loaded, err := an.ReplayPreparedContext(ctx, res.Prepared, rc, app.Meta.ReleaseDate)
			if err != nil {
				return nil, err
			}
			rec.ReplayLoaded[rc] = loaded
		}
	}
	// Drop intercepted binaries and the parsed archive after static
	// analysis and replays to keep full-scale runs memory-light; the
	// measurement only needs the annotations.
	res.Prepared = nil
	for _, ev := range res.Events {
		ev.Intercepted = nil
	}
	return rec, nil
}
