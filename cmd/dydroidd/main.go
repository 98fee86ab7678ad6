// Command dydroidd is the online vetting daemon: an always-on HTTP
// service that accepts APK submissions, runs the marketplace Bouncer
// review plus the full DyDroid pipeline over each one, and serves
// verdicts from a content-addressed result store (durable with -store) —
// the store-operator deployment of the paper's measurement.
//
// Usage:
//
//	dydroidd [-addr :8437] [-workers N] [-queue 64] [-store DIR]
//	         [-cache 512] [-seed 7] [-events 25] [-no-train] [-no-review]
//	         [-traces DIR] [-slow-deadline 0] [-logjson]
//	         [-profile-interval 30s] [-profile-window 250ms] [-profile-cap 32]
//	dydroidd -coordinator -nodes host1:8437,host2:8437[,...]
//	         [-addr :8437] [-probe-interval 2s] [-probe-failures 3]
//
// Endpoints: POST /v1/scan, GET /v1/result/{digest}, GET /v1/trace/{digest},
// GET /v1/healthz, GET /v1/metricz (?format=prom for Prometheus text
// exposition, including SLO burn-rate gauges), GET /v1/fleet (mergeable
// measurement snapshot with SLO state and ops events),
// GET /v1/events (lifecycle event journal as JSONL),
// GET /v1/dashboard (self-refreshing HTML fleet dashboard, ?refresh=N),
// GET /v1/version (build + format versions), runtime profiling under
// /debug/pprof/, and the continuous-profiling ring at GET /v1/profiles
// (index) and GET /v1/profiles/{id} (full window; ?format=pprof for the
// raw bytes). A background sampler captures short CPU-profile windows on
// the -profile-interval cadence; an SLO burn-rate alert or a
// -slow-deadline watchdog trip captures one immediately, tagged with the
// offending digest. Submit with curl:
//
//	curl --data-binary @app.apk http://localhost:8437/v1/scan
//	curl http://localhost:8437/v1/result/<digest>
//
// Served verdicts are byte-identical to a fresh `dydroid -json` run on
// the same APK with the same seed (with -no-review; otherwise the record
// additionally carries the Bouncer "review" block, which the CLI does
// not run). Every scan's analysis span tree is retained (in memory by
// default, on disk with -traces) and served at /v1/trace/{digest};
// responses that resolve a digest carry an X-Dydroid-Trace header. With
// -logjson the daemon emits one structured JSON log line per request.
// SIGINT/SIGTERM drain in-flight jobs before exit.
//
// With -coordinator the daemon analyzes nothing itself: it consistent-
// hash-routes scans across the worker daemons named by -nodes, proxies
// result reads to the owning node, serves stitched cross-node span trees
// at /v1/trace/{digest} (its own routing/failover spans with the owning
// worker's analysis tree grafted underneath), federates /v1/fleet and
// the /v1/events ops timeline across the whole ring, and serves per-node
// health at /v1/cluster/status.
// Workers that fail -probe-failures consecutive health probes are
// ejected from the ring (their keys fail over to ring successors) and
// rejoin automatically when probes recover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/cluster"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/resultstore"
	"github.com/dydroid/dydroid/internal/service"
	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "analysis worker pool size")
	queue := flag.Int("queue", 64, "submission queue depth (full queues answer 429)")
	storeDir := flag.String("store", "", "result store directory (empty = keep only the newest -cache verdicts, in memory)")
	cacheSize := flag.Int("cache", 512, "result store in-memory LRU entries (the whole store without -store)")
	seed := flag.Int64("seed", 7, "fuzzing seed (verdicts are deterministic per seed)")
	events := flag.Int("events", 25, "monkey event budget per app")
	noTrain := flag.Bool("no-train", false, "skip DroidNative training (disables malware detection)")
	noReview := flag.Bool("no-review", false, "skip the Bouncer review phase")
	traceDir := flag.String("traces", "", "trace store directory (empty = in-memory traces only)")
	slowDeadline := flag.Duration("slow-deadline", 0, "log analyses exceeding this duration with their span tree (0 disables)")
	profileInterval := flag.Duration("profile-interval", 30*time.Second, "continuous-profiling sampler cadence (0 disables the background sampler; alert-triggered capture stays on)")
	profileWindow := flag.Duration("profile-window", 250*time.Millisecond, "CPU-profile window duration per capture")
	profileCap := flag.Int("profile-cap", 32, "retained profile windows (oldest evicted past this)")
	logJSON := flag.Bool("logjson", false, "structured JSON request logging on stderr")
	coordinator := flag.Bool("coordinator", false, "run as cluster coordinator instead of a worker (requires -nodes)")
	nodes := flag.String("nodes", "", "comma-separated worker daemon addresses the coordinator routes across")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "coordinator health-probe period")
	probeFailures := flag.Int("probe-failures", 3, "consecutive probe failures before a worker is ejected from the ring")
	flag.Parse()

	opts := daemonOptions{
		Addr: *addr, Workers: *workers, Queue: *queue, StoreDir: *storeDir,
		CacheSize: *cacheSize, Seed: *seed, Events: *events,
		NoTrain: *noTrain, NoReview: *noReview,
		TraceDir: *traceDir, SlowDeadline: *slowDeadline, LogJSON: *logJSON,
		ProfileInterval: *profileInterval, ProfileWindow: *profileWindow, ProfileCap: *profileCap,
		Coordinator: *coordinator, ProbeInterval: *probeInterval, ProbeFailures: *probeFailures,
	}
	if *nodes != "" {
		opts.Nodes = strings.Split(*nodes, ",")
	}
	if err := run(context.Background(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "dydroidd:", err)
		os.Exit(1)
	}
}

// daemonOptions carries the flag set; tests drive run directly.
type daemonOptions struct {
	Addr      string
	Workers   int
	Queue     int
	StoreDir  string
	CacheSize int
	Seed      int64
	Events    int
	NoTrain   bool
	NoReview  bool
	TraceDir  string
	// SlowDeadline arms the service's slow-analysis watchdog (0 = off).
	SlowDeadline time.Duration
	// ProfileInterval is the continuous-profiling sampler cadence; 0
	// disables the cadence loop while alert-triggered capture stays on.
	ProfileInterval time.Duration
	// ProfileWindow is the CPU-profile duration per captured window.
	ProfileWindow time.Duration
	// ProfileCap bounds the retained window ring.
	ProfileCap int
	LogJSON    bool
	// LogWriter overrides the -logjson destination (default os.Stderr);
	// tests capture the access log here.
	LogWriter io.Writer
	// Ready, when non-nil, receives the bound listen address once the
	// daemon is serving.
	Ready func(addr string)

	// Coordinator mode: route scans across Nodes instead of analyzing.
	Coordinator   bool
	Nodes         []string
	ProbeInterval time.Duration
	ProbeFailures int
}

// run serves until the parent context is cancelled or a signal arrives,
// then drains.
func run(parent context.Context, o daemonOptions) error {
	if o.Coordinator {
		return runCoordinator(parent, o)
	}
	// The same minimal marketplace cmd/dydroid uses: training families,
	// the remote-payload network and companion apps.
	store, err := corpus.Generate(corpus.Config{Seed: o.Seed, Scale: 0.001})
	if err != nil {
		return err
	}
	var clf *droidnative.Classifier
	if !o.NoTrain {
		if clf, err = store.TrainingSet(3); err != nil {
			return err
		}
	}
	reg := metrics.New()
	rs, err := resultstore.Open(resultstore.Options{
		Dir: o.StoreDir, Version: service.RecordVersion, CacheSize: o.CacheSize,
	})
	if err != nil {
		return err
	}
	var reviewer *bouncer.Reviewer
	if !o.NoReview {
		reviewer = &bouncer.Reviewer{Classifier: clf, Network: store.Network, Metrics: reg}
	}
	traces, err := trace.OpenStore(trace.StoreOptions{Dir: o.TraceDir, Metrics: reg})
	if err != nil {
		return err
	}
	var logger *slog.Logger
	if o.LogJSON {
		w := o.LogWriter
		if w == nil {
			w = os.Stderr
		}
		logger = slog.New(slog.NewJSONHandler(w, nil))
	}
	journal := events.NewJournal(0)
	profiles := profile.New(profile.Options{
		Node:      nodeName(o.Addr),
		WindowDur: o.ProfileWindow,
		Interval:  o.ProfileInterval,
		Cap:       o.ProfileCap,
		Journal:   journal,
		Metrics:   reg,
		Logger:    logger,
	})
	svc, err := service.New(service.Config{
		Analyzer: core.NewAnalyzer(core.Options{
			Seed: o.Seed, MonkeyEvents: o.Events, Classifier: clf,
			Network: store.Network, SetupDevice: store.SetupDevice, Metrics: reg,
		}),
		Reviewer:     reviewer,
		Store:        rs,
		Workers:      o.Workers,
		QueueDepth:   o.Queue,
		Metrics:      reg,
		Traces:       traces,
		Fleet:        telemetry.New(telemetry.Options{}),
		SlowDeadline: o.SlowDeadline,
		Journal:      journal,
		Profiles:     profiles,
		Logger:       logger,
		Node:         nodeName(o.Addr),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The runtime sampler keeps the dashboard's goroutine/heap gauges live.
	stopSampler := telemetry.StartRuntimeSampler(ctx, reg, telemetry.DefaultSampleInterval)
	defer stopSampler()
	// The continuous-profiling sampler captures cadence windows; alert-
	// triggered captures work either way.
	if o.ProfileInterval > 0 {
		go profiles.Run(ctx)
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dydroidd: listening on %s (workers=%d queue=%d store=%q)\n",
			ln.Addr(), o.Workers, o.Queue, o.StoreDir)
		if o.Ready != nil {
			o.Ready(ln.Addr().String())
		}
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "dydroidd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "dydroidd: drained, bye")
	return nil
}

// nodeName labels this daemon's journal events. The listen address is
// the name the coordinator's member list knows the node by; a bare
// ":port" address is qualified with the hostname so multi-host
// timelines stay readable.
func nodeName(addr string) string {
	if strings.HasPrefix(addr, ":") {
		if host, err := os.Hostname(); err == nil {
			return host + addr
		}
	}
	return addr
}

// runCoordinator serves the routing front-end: no analyzer, no result
// store of its own — every verdict lives on the worker that owns its
// digest, and the coordinator only places, proxies, and federates.
func runCoordinator(parent context.Context, o daemonOptions) error {
	reg := metrics.New()
	var logger *slog.Logger
	if o.LogJSON {
		w := o.LogWriter
		if w == nil {
			w = os.Stderr
		}
		logger = slog.New(slog.NewJSONHandler(w, nil))
	}
	// Route span trees land in the same -traces location workers use for
	// their analysis trees (in-memory when unset).
	traces, err := trace.OpenStore(trace.StoreOptions{Dir: o.TraceDir, Metrics: reg})
	if err != nil {
		return err
	}
	// The coordinator profiles itself too: its windows join the federated
	// /v1/profiles index under its own node name.
	profiles := profile.New(profile.Options{
		Node:      nodeName(o.Addr),
		WindowDur: o.ProfileWindow,
		Interval:  o.ProfileInterval,
		Cap:       o.ProfileCap,
		Metrics:   reg,
		Logger:    logger,
	})
	coord, err := cluster.New(cluster.Config{
		Nodes:         o.Nodes,
		ProbeInterval: o.ProbeInterval,
		ProbeFailures: o.ProbeFailures,
		Metrics:       reg,
		Traces:        traces,
		Profiles:      profiles,
		Node:          nodeName(o.Addr),
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.ProfileInterval > 0 {
		go profiles.Run(ctx)
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dydroidd: coordinating %d nodes on %s (probe=%s eject-after=%d)\n",
			len(o.Nodes), ln.Addr(), o.ProbeInterval, o.ProbeFailures)
		if o.Ready != nil {
			o.Ready(ln.Addr().String())
		}
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "dydroidd: coordinator draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "dydroidd: coordinator stopped")
	return nil
}
