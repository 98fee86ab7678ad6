// Package dydroid is the public API of the DyDroid reproduction: a hybrid
// dynamic/static analysis system that measures dynamic code loading (DCL)
// in (simulated) Android applications, after the DSN 2017 paper "DyDroid:
// Measuring Dynamic Code Loading and Its Security Implications in Android
// Applications".
//
// The three entry points most users want:
//
//   - NewAnalyzer / Analyzer.AnalyzeAPK — run the full DyDroid pipeline on
//     one APK: static pre-filter, obfuscation analysis, rewriting,
//     instrumented execution with DCL interception and download tracking,
//     then DroidNative malware matching, vulnerability rules, and
//     FlowDroid-style taint analysis over the intercepted code.
//
//   - GenerateStore — synthesize a marketplace calibrated to the paper's
//     published measurement (58,739 apps at scale 1.0) to run the system
//     against.
//
//   - RunExperiments — regenerate every table and figure of the paper's
//     evaluation over such a marketplace.
//
// The simulated Android substrate (SDEX bytecode, SELF native binaries,
// APK containers, device/framework, class-loading VM) lives under
// internal/ and is documented in DESIGN.md.
package dydroid

import (
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/experiments"
	"github.com/dydroid/dydroid/internal/netsim"
)

// Analyzer is the DyDroid pipeline (see internal/core).
type Analyzer = core.Analyzer

// Options configure an Analyzer.
type Options = core.Options

// AppResult is a per-app analysis report.
type AppResult = core.AppResult

// DCLEvent is one logged dynamic code loading event.
type DCLEvent = core.DCLEvent

// Vulnerability is one risky DCL usage (Table IX).
type Vulnerability = core.Vulnerability

// MalwareHit is one DroidNative detection over intercepted code.
type MalwareHit = core.MalwareHit

// ReplayConfig is a Table VIII runtime configuration.
type ReplayConfig = core.ReplayConfig

// Statuses, kinds and entities re-exported from the pipeline.
const (
	StatusExercised      = core.StatusExercised
	StatusNoDCL          = core.StatusNoDCL
	StatusUnpackFailure  = core.StatusUnpackFailure
	StatusRewriteFailure = core.StatusRewriteFailure
	StatusNoActivity     = core.StatusNoActivity
	StatusCrash          = core.StatusCrash
	StatusAnalysisError  = core.StatusAnalysisError

	KindDex    = core.KindDex
	KindNative = core.KindNative

	EntityOwn        = core.EntityOwn
	EntityThirdParty = core.EntityThirdParty

	ProvenanceLocal  = core.ProvenanceLocal
	ProvenanceRemote = core.ProvenanceRemote
)

// AllReplayConfigs lists the Table VIII configurations.
var AllReplayConfigs = core.AllReplayConfigs

// NewAnalyzer creates a pipeline with the given options.
func NewAnalyzer(opts Options) *Analyzer { return core.NewAnalyzer(opts) }

// Store is a generated synthetic marketplace.
type Store = corpus.Store

// StoreApp is one marketplace application.
type StoreApp = corpus.StoreApp

// StoreConfig controls marketplace generation.
type StoreConfig = corpus.Config

// GenerateStore synthesizes a marketplace calibrated to the paper's
// measurement.
func GenerateStore(cfg StoreConfig) (*Store, error) { return corpus.Generate(cfg) }

// ExperimentConfig controls a full measurement run.
type ExperimentConfig = experiments.Config

// ExperimentResults is the output of a measurement run; Report() renders
// every table and figure.
type ExperimentResults = experiments.Results

// RunStats summarizes a measurement run: throughput, status and failure
// counts. Per-span latency lives in ExperimentResults.Fleet.
type RunStats = experiments.RunStats

// FailurePolicy selects how RunExperiments treats a per-app analysis
// failure: record it and continue (FailRecord, the default) or cancel
// the run (FailFast).
type FailurePolicy = experiments.FailurePolicy

// Failure policies.
const (
	FailRecord = experiments.FailRecord
	FailFast   = experiments.FailFast
)

// RunExperiments regenerates the paper's evaluation over a fresh
// marketplace.
func RunExperiments(cfg ExperimentConfig) (*ExperimentResults, error) {
	return experiments.Run(cfg)
}

// Classifier is the DroidNative malware detector.
type Classifier = droidnative.Classifier

// Reviewer is the store-side submission review (Google Bouncer analogue).
type Reviewer = bouncer.Reviewer

// Verdict is a review outcome.
type Verdict = bouncer.Verdict

// Network is the simulated remote-server registry.
type Network = netsim.Network

// NewNetwork creates an empty network.
func NewNetwork() *Network { return netsim.NewNetwork() }

// Payload is one servable remote resource.
type Payload = netsim.Payload

// APK is the application package object model; BuildAPK and ParseAPK
// convert to and from archive bytes.
type APK = apk.APK

// Manifest is the AndroidManifest model.
type Manifest = apk.Manifest

// Component declares one app component in a Manifest.
type Component = apk.Component

// BuildAPK serializes an APK object into archive bytes.
func BuildAPK(a *APK) ([]byte, error) { return apk.Build(a) }

// ParseAPK reads archive bytes back into the object model.
func ParseAPK(data []byte) (*APK, error) { return apk.Parse(data) }
