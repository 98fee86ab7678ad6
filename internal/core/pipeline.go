package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/apktool"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/monkey"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
	"github.com/dydroid/dydroid/internal/obfuscation"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/taint"
	"github.com/dydroid/dydroid/internal/trace"
	"github.com/dydroid/dydroid/internal/vm"
)

// Options configure an Analyzer.
type Options struct {
	// MonkeyEvents is the fuzzing budget per app (default 25).
	MonkeyEvents int
	// Seed drives the fuzzer deterministically.
	Seed int64
	// Tool is the apktool installation (zero value = the buggy
	// measurement-era version).
	Tool apktool.Tool
	// Classifier is the trained DroidNative detector; nil disables
	// malware detection.
	Classifier *droidnative.Classifier
	// Network is the marketplace network serving remote payloads; it is
	// cloned per app run. Nil means no connectivity.
	Network *netsim.Network
	// SetupDevice provisions companion apps (ad-target apps, Adobe AIR,
	// chat apps) on the fresh per-run device.
	SetupDevice func(*android.Device) error
	// StorageQuota bounds device storage (0 = unlimited); exercises the
	// storage-exhaustion exception handling.
	StorageQuota int64
	// RunDynamicWithoutDCL forces dynamic analysis even when the
	// pre-filter finds no DCL code (ablation; the paper skips such apps).
	RunDynamicWithoutDCL bool
	// DisableDeleteBlocking turns off the interception queue's
	// delete/rename blocking (ablation: temporary loaded files vanish
	// before the dump phase).
	DisableDeleteBlocking bool
	// StepBudget overrides the per-invocation VM budget (0 = default).
	StepBudget int
	// Metrics, when non-nil, receives the status.* and
	// dynamic.nospace-retries counters. Stage timings are not recorded
	// here: each stage is a span of AppResult.Trace. A nil registry
	// disables the counters at zero cost.
	Metrics *metrics.Registry
}

// Analyzer is the DyDroid pipeline.
type Analyzer struct {
	opts Options
}

// NewAnalyzer creates a pipeline with the given options.
func NewAnalyzer(opts Options) *Analyzer {
	if opts.MonkeyEvents == 0 {
		opts.MonkeyEvents = 25
	}
	return &Analyzer{opts: opts}
}

// AnalyzeAPK runs the full pipeline (Fig. 1) on one application archive:
// decompile, static pre-filter and obfuscation analysis, rewrite, dynamic
// exercise with DCL logging/interception/tracking, then static malware,
// vulnerability and privacy analysis of the intercepted code. Every
// executed stage is a span of AppResult.Trace; when Options.Metrics is
// set, the final status is counted into the registry.
func (a *Analyzer) AnalyzeAPK(apkBytes []byte) (*AppResult, error) {
	return a.AnalyzeAPKContext(context.Background(), apkBytes)
}

// AnalyzeAPKContext is AnalyzeAPK joining the trace carried by ctx: it
// opens an "analyze" span (the root of a fresh trace when ctx carries
// none) with one child span per executed pipeline stage, and stores the
// resulting span tree in AppResult.Trace. It prepares the archive and
// runs AnalyzePreparedContext's pipeline on it.
func (a *Analyzer) AnalyzeAPKContext(ctx context.Context, apkBytes []byte) (*AppResult, error) {
	ctx, span := trace.Start(ctx, "analyze")
	prep, err := Prepare(apkBytes)
	if err != nil {
		return a.finish(ctx, span, nil, fmt.Errorf("core: %w", err))
	}
	res, err := a.analyze(ctx, prep)
	return a.finish(ctx, span, res, err)
}

// AnalyzePreparedContext is AnalyzeAPKContext over an archive already
// prepared by Prepare: the vetting daemon prepares each submission once
// and hands the same PreparedApp to the Bouncer review and the pipeline.
func (a *Analyzer) AnalyzePreparedContext(ctx context.Context, prep *PreparedApp) (*AppResult, error) {
	ctx, span := trace.Start(ctx, "analyze")
	res, err := a.analyze(ctx, prep)
	return a.finish(ctx, span, res, err)
}

// finish ends the analyze span and counts the run's status.
func (a *Analyzer) finish(ctx context.Context, span *trace.Span, res *AppResult, err error) (*AppResult, error) {
	if err != nil {
		span.EndErr(err)
		a.opts.Metrics.Add("status."+string(StatusAnalysisError), 1)
		return nil, err
	}
	span.SetAttr("package", res.Package)
	span.SetAttr("status", string(res.Status))
	span.End()
	res.Trace = trace.FromContext(ctx)
	a.opts.Metrics.Add("status."+string(res.Status), 1)
	return res, nil
}

func (a *Analyzer) analyze(ctx context.Context, prep *PreparedApp) (*AppResult, error) {
	res := &AppResult{}

	// The archive is already parsed and its bytecode decoded: the unpack
	// stage decompiles, and a bytecode decode failure is a decompiler
	// crash like the anti-decompilation class names.
	_, sUnpack := trace.Start(ctx, "unpack")
	mUnpack := profile.MeterSpan(sUnpack)
	u, err := a.opts.Tool.Decompile(prep.APK, prep.Dex, prep.DexErr)
	if err != nil {
		mUnpack()
		sUnpack.SetAttr("anti-decompile", "true")
		sUnpack.End()
		res.Status = StatusUnpackFailure
		res.Obfuscation.AntiDecompile = true
		return res, nil
	}
	res.Package = u.APK.Manifest.Package
	res.PreFilter = obfuscation.PreFilter(u)
	det := obfuscation.Detector{Tool: a.opts.Tool}
	res.Obfuscation = det.AnalyzeUnpacked(u, res.PreFilter)
	sUnpack.SetAttr("dex-dcl", strconv.FormatBool(res.PreFilter.HasDexDCL))
	sUnpack.SetAttr("native-dcl", strconv.FormatBool(res.PreFilter.HasNativeDCL))
	mUnpack()
	sUnpack.End()

	if !res.PreFilter.HasDexDCL && !res.PreFilter.HasNativeDCL && !a.opts.RunDynamicWithoutDCL {
		res.Status = StatusNoDCL
		return res, nil
	}

	// The rewrite and dynamic stages consume the parsed package and the
	// decoded bytecode directly, and replays reuse res.Prepared.
	res.Prepared = prep

	// Rewrite with the logging permission when missing. RepackParsed
	// mutates a deep copy of the already-parsed manifest; the rewritten
	// archive is serialized lazily (once) when the installer needs bytes.
	runPrep := prep
	if !u.APK.Manifest.HasPermission(apk.WriteExternalStorage) {
		_, sRewrite := trace.Start(ctx, "rewrite")
		mRewrite := profile.MeterSpan(sRewrite)
		rewritten, err := a.opts.Tool.RepackParsed(u.APK)
		mRewrite()
		if err != nil {
			if errors.Is(err, apktool.ErrRepack) {
				sRewrite.SetAttr("anti-repackaging", "true")
				sRewrite.End()
				res.Status = StatusRewriteFailure
				return res, nil
			}
			sRewrite.EndErr(err)
			return nil, fmt.Errorf("core: %w", err)
		}
		sRewrite.End()
		runPrep = &PreparedApp{APK: rewritten, Dex: u.Dex}
	}

	// Dynamic phase, with one retry after cleaning external storage when
	// the device runs out of space (automatic exception handling).
	dctx, sDynamic := trace.Start(ctx, "dynamic")
	mDynamic := profile.MeterSpan(sDynamic)
	run, err := a.runDynamic(dctx, runPrep, nil)
	if err != nil && isNoSpace(err) {
		a.opts.Metrics.Add("dynamic.nospace-retries", 1)
		sDynamic.SetAttr("nospace-retry", "true")
		run, err = a.runDynamic(dctx, runPrep, func(dev *android.Device) {
			dev.Storage.RemovePrefix(LogRoot)
		})
	}
	mDynamic()
	if err != nil {
		sDynamic.EndErr(err)
		return nil, fmt.Errorf("core: %w", err)
	}
	sDynamic.SetAttr("outcome", string(run.outcome))
	sDynamic.SetAttr("events", strconv.Itoa(len(run.events)))
	for _, ev := range run.events {
		sDynamic.AddEvent("dcl",
			trace.A("kind", string(ev.Kind)),
			trace.A("api", ev.API),
			trace.A("path", ev.Path),
			trace.A("entity", string(ev.Entity)),
			trace.A("provenance", string(ev.Provenance)))
	}
	sDynamic.End()
	res.Events = run.events
	res.RuntimeEvents = run.vmEvents
	switch run.outcome {
	case monkey.OutcomeNoActivity:
		res.Status = StatusNoActivity
		return res, nil
	case monkey.OutcomeCrash:
		// Crashes keep whatever was intercepted before the process died.
		res.Status = StatusCrash
		res.Crash = run.crash
	default:
		res.Status = StatusExercised
	}

	_, sStatic := trace.Start(ctx, "static")
	mStatic := profile.MeterSpan(sStatic)
	a.staticOnIntercepted(res)
	minSDK := u.APK.Manifest.MinSDK
	res.Vulns = AnalyzeVulnerabilities(res.Package, minSDK, res.Events)
	sStatic.SetAttr("malware", strconv.Itoa(len(res.Malware)))
	sStatic.SetAttr("vulns", strconv.Itoa(len(res.Vulns)))
	mStatic()
	sStatic.End()
	return res, nil
}

// isNoSpace reports whether the error chain reaches the storage layer's
// quota-exhaustion sentinel. Every exhaustion path wraps
// android.ErrNoSpace (the VM preserves inner error chains with %w), so a
// plain errors.Is suffices — no string matching.
func isNoSpace(err error) bool {
	return errors.Is(err, android.ErrNoSpace)
}

// PreparedApp is the parse-once state of one application archive: the
// parsed package, its decoded bytecode, and the serialized archive bytes
// (kept when the archive arrived as bytes, built lazily — at most once —
// otherwise). AnalyzeAPK publishes it on AppResult.Prepared so the
// replay path reuses the same parse instead of re-reading the archive.
type PreparedApp struct {
	// APK is the parsed package, shared (not copied) across stages.
	APK *apk.APK
	// Dex is the decoded bytecode (nil when the app ships none or it
	// fails to decode). The VM boots from it directly; decoded classes
	// are immutable at runtime.
	Dex *dex.File
	// DexErr is the bytecode decoder's failure, kept as data so each
	// consumer keeps its own verdict on it: the review fails, the
	// pipeline reports StatusUnpackFailure.
	DexErr error

	raw       []byte // archive as received; nil → serialize on demand
	buildOnce sync.Once
	built     []byte
	buildErr  error
}

// Prepare parses an archive once and decodes its bytecode once: the
// input the Bouncer review and the pipeline share on the daemon's scan
// path. Only a parse failure is an error; a decode failure is DexErr.
func Prepare(apkBytes []byte) (*PreparedApp, error) {
	a, err := apk.Parse(apkBytes)
	if err != nil {
		return nil, err
	}
	p := &PreparedApp{APK: a, raw: apkBytes}
	if a.Dex != nil {
		if p.Dex, p.DexErr = dex.Decode(a.Dex); p.DexErr != nil {
			p.Dex = nil
		}
	}
	return p, nil
}

// Archive returns the serialized archive, building (and caching) it when
// the prepared app was never in byte form — the rewritten package, whose
// serialization is deferred until the installer actually stores it.
func (p *PreparedApp) Archive() ([]byte, error) {
	if p.raw != nil {
		return p.raw, nil
	}
	p.buildOnce.Do(func() {
		p.built, p.buildErr = apk.Build(p.APK)
	})
	return p.built, p.buildErr
}

// dynRun is the outcome of one dynamic exercise.
type dynRun struct {
	outcome  monkey.Outcome
	crash    error
	events   []*DCLEvent
	vmEvents []vm.Event
}

// runDynamic provisions a fresh device, installs the app with full
// instrumentation and exercises it. preLaunch mutates the device after
// provisioning (used by the retry path and the Table VIII replays). The
// dump phase gets its own "interception" child span under ctx's span.
func (a *Analyzer) runDynamic(ctx context.Context, prep *PreparedApp, preLaunch func(*android.Device)) (*dynRun, error) {
	devOpts := []android.Option{}
	if a.opts.StorageQuota > 0 {
		devOpts = append(devOpts, android.WithStorageQuota(a.opts.StorageQuota))
	}
	dev := android.NewDevice(devOpts...)
	if a.opts.SetupDevice != nil {
		if err := a.opts.SetupDevice(dev); err != nil {
			return nil, fmt.Errorf("core: device setup: %w", err)
		}
	}
	var net *netsim.Network
	if a.opts.Network != nil {
		net = a.opts.Network.Clone()
		net.Online = dev.NetworkAvailable
	}
	archive, err := prep.Archive()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	app, err := dev.Packages.InstallArchive(prep.APK, archive)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	app.Decoded = prep.Dex
	logger := NewLogger(app.Package, dev.Storage)
	logger.DisableBlocking = a.opts.DisableDeleteBlocking
	tracker := NewTracker()
	if preLaunch != nil {
		preLaunch(dev)
	}
	machine, err := vm.New(dev, net, app, logger, tracker)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if a.opts.StepBudget > 0 {
		machine.StepBudget = a.opts.StepBudget
	}
	mres := monkey.Exercise(machine, a.opts.MonkeyEvents, a.opts.Seed)

	_, sIntercept := trace.Start(ctx, "interception")
	mIntercept := profile.MeterSpan(sIntercept)
	logger.FinalizeInterception()
	events := logger.Events()
	tracker.Annotate(events)
	// Measurement events exclude system libraries.
	var kept []*DCLEvent
	intercepted := 0
	for _, ev := range events {
		if !ev.SystemLib {
			kept = append(kept, ev)
			if ev.Intercepted != nil {
				intercepted++
			}
		}
	}
	dumped, err := logger.DumpIntercepted()
	sIntercept.SetAttr("intercepted", strconv.Itoa(intercepted))
	sIntercept.SetAttr("dumped", strconv.Itoa(len(dumped)))
	mIntercept()
	if err != nil && !isNoSpace(err) {
		sIntercept.EndErr(err)
		return nil, err
	}
	sIntercept.End()
	return &dynRun{
		outcome:  mres.Outcome,
		crash:    mres.Err,
		events:   kept,
		vmEvents: machine.Events(),
	}, nil
}

// staticOnIntercepted runs DroidNative and the taint analysis over every
// intercepted binary and fills the malware/privacy sections of the
// result.
func (a *Analyzer) staticOnIntercepted(res *AppResult) {
	merged := &taint.Result{SourcesSeen: make(map[android.DataType]bool)}
	// Dedup keys on (path, content hash), not path alone: a payload
	// overwritten at the same path between two loads (the packer-swap
	// pattern, §V-F) is a distinct binary and must still be classified.
	type interceptKey struct {
		path string
		sum  [sha256.Size]byte
	}
	classified := make(map[interceptKey]bool)
	anyDex := false
	for _, ev := range res.Events {
		if ev.Intercepted == nil {
			continue
		}
		key := interceptKey{path: ev.Path, sum: sha256.Sum256(ev.Intercepted)}
		if classified[key] {
			continue
		}
		classified[key] = true
		switch {
		case dex.IsOptimized(ev.Intercepted), isDex(ev.Intercepted):
			df, err := dex.Decode(ev.Intercepted)
			if err != nil {
				continue
			}
			anyDex = true
			if a.opts.Classifier != nil {
				if det := a.opts.Classifier.Classify(mail.FromDex(df)); det.Malware {
					res.Malware = append(res.Malware, MalwareHit{
						Path: ev.Path, Kind: KindDex, Family: det.Family, Score: det.Score,
					})
				}
			}
			tr := taint.Analyze(df)
			merged.Leaks = append(merged.Leaks, tr.Leaks...)
			for dt := range tr.SourcesSeen {
				merged.SourcesSeen[dt] = true
			}
		case nativebin.IsSELF(ev.Intercepted):
			if a.opts.Classifier == nil {
				continue
			}
			lib, err := nativebin.Decode(ev.Intercepted)
			if err != nil {
				continue
			}
			if det := a.opts.Classifier.Classify(mail.FromNative(lib)); det.Malware {
				res.Malware = append(res.Malware, MalwareHit{
					Path: ev.Path, Kind: KindNative, Family: det.Family, Score: det.Score,
				})
			}
		}
	}
	if anyDex {
		res.Privacy = merged
		res.PrivacyByEntity = make(map[string]bool)
		for _, dt := range merged.LeakedTypes() {
			exclusive := true
			for _, cls := range merged.LeakClasses(dt) {
				if classifyEntity(res.Package, cls) == EntityOwn {
					exclusive = false
					break
				}
			}
			res.PrivacyByEntity[string(dt)] = exclusive
		}
	}
}

func isDex(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == dex.Magic
}

// ReplayPreparedContext re-runs an already-prepared app
// (AppResult.Prepared) under one Table VIII runtime configuration and
// returns the set of file paths whose DCL events fired (used to test
// whether malicious loads are gated on the environment). It joins the
// trace carried by ctx with a "replay" span annotated with the
// configuration, and never touches archive bytes again.
func (a *Analyzer) ReplayPreparedContext(ctx context.Context, prep *PreparedApp, cfg ReplayConfig, releaseDate time.Time) (map[string]bool, error) {
	if releaseDate.IsZero() {
		releaseDate = DefaultReleaseDate
	}
	ctx, span := trace.Start(ctx, "replay")
	span.SetAttr("config", string(cfg))
	defer profile.MeterSpan(span)()
	run, err := a.runDynamic(ctx, prep, func(dev *android.Device) {
		switch cfg {
		case ConfigTimeBeforeRelease:
			dev.SetClock(releaseDate.AddDate(0, -1, 0))
		case ConfigAirplaneWiFiOn:
			dev.SetAirplaneMode(true)
			dev.SetWiFi(true)
		case ConfigAirplaneWiFiOff:
			dev.SetAirplaneMode(true)
		case ConfigLocationOff:
			dev.SetLocationEnabled(false)
		}
	})
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	loaded := make(map[string]bool)
	for _, ev := range run.events {
		loaded[ev.Path] = true
	}
	span.SetAttr("loaded", strconv.Itoa(len(loaded)))
	span.End()
	return loaded, nil
}
