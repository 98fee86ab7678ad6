// Package bouncer simulates the marketplace's submission review (Google
// Bouncer): a static malware scan of the submitted archive followed by a
// short dynamic run in a sandboxed device. It exists to reproduce the
// paper's §III-B experiment — App_M (known malware) is rejected, while
// App_L, which fetches App_M's code over the network only after release,
// passes review because the delivery server withholds the payload during
// the review window.
package bouncer

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/monkey"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
	"github.com/dydroid/dydroid/internal/trace"
	"github.com/dydroid/dydroid/internal/vm"
)

// Verdict is a review outcome.
type Verdict struct {
	Approved bool
	// Reason describes the rejection (empty when approved).
	Reason string
}

// Reviewer is the store-side checker.
type Reviewer struct {
	// Classifier is the static/dynamic malware detector (required).
	Classifier *droidnative.Classifier
	// Network is the outside world visible to the sandbox; the review
	// fetches through it like a real device would.
	Network *netsim.Network
	// MonkeyEvents bounds the dynamic phase (default 10 — reviews are
	// brief, which is exactly the window evasion exploits).
	MonkeyEvents int
	// Metrics, when non-nil, receives the bouncer.approved /
	// bouncer.rejected / bouncer.errors counters. Review timings are the
	// review, review.static and review.dynamic spans.
	Metrics *metrics.Registry
}

// maliciousEventKinds are runtime behaviours that fail review on sight.
var maliciousEventKinds = map[string]bool{
	"sms": true, "root": true, "ptrace": true,
	"shortcut": true, "homepage": true,
}

// Review checks one submitted archive.
func (r *Reviewer) Review(apkBytes []byte) (Verdict, error) {
	return r.ReviewContext(context.Background(), apkBytes)
}

// ReviewContext is Review joining the trace carried by ctx: the vetting
// daemon threads one trace through the review and the pipeline run, so a
// submission's whole history lands in a single span tree. The archive is
// prepared inside the review span, so a malformed one fails the review
// there and counts as a review error.
func (r *Reviewer) ReviewContext(ctx context.Context, apkBytes []byte) (Verdict, error) {
	ctx, span := trace.Start(ctx, "review")
	prep, err := core.Prepare(apkBytes)
	if err != nil {
		return r.finish(span, Verdict{}, fmt.Errorf("bouncer: %w", err))
	}
	v, err := r.review(ctx, prep)
	return r.finish(span, v, err)
}

// ReviewPreparedContext is ReviewContext over an archive already prepared
// by core.Prepare: the vetting daemon prepares each submission once and
// hands the same PreparedApp to the review and the pipeline.
func (r *Reviewer) ReviewPreparedContext(ctx context.Context, prep *core.PreparedApp) (Verdict, error) {
	ctx, span := trace.Start(ctx, "review")
	v, err := r.review(ctx, prep)
	return r.finish(span, v, err)
}

// finish ends the review span and counts the outcome.
func (r *Reviewer) finish(span *trace.Span, v Verdict, err error) (Verdict, error) {
	switch {
	case err != nil:
		r.Metrics.Add("bouncer.errors", 1)
		span.EndErr(err)
		return v, err
	case v.Approved:
		r.Metrics.Add("bouncer.approved", 1)
	default:
		r.Metrics.Add("bouncer.rejected", 1)
	}
	span.SetAttr("approved", strconv.FormatBool(v.Approved))
	if v.Reason != "" {
		span.SetAttr("reason", v.Reason)
	}
	span.End()
	return v, nil
}

func (r *Reviewer) review(ctx context.Context, prep *core.PreparedApp) (Verdict, error) {
	// Phase 1: static scan of every binary in the archive.
	_, sStatic := trace.Start(ctx, "review.static")
	v, rejected := r.staticScan(prep)
	sStatic.SetAttr("rejected", strconv.FormatBool(rejected))
	sStatic.End()
	if rejected {
		return v, nil
	}

	// Phase 2: brief dynamic run in a sandbox device.
	_, sDynamic := trace.Start(ctx, "review.dynamic")
	defer sDynamic.End()
	dev := android.NewDevice()
	var net *netsim.Network
	if r.Network != nil {
		net = r.Network.Clone()
		net.Online = dev.NetworkAvailable
	}
	// The sandbox installs the submitted bytes as they are, and the VM
	// boots from the already-decoded bytecode.
	archive, err := prep.Archive()
	if err != nil {
		return Verdict{}, fmt.Errorf("bouncer: %w", err)
	}
	app, err := dev.Packages.InstallArchive(prep.APK, archive)
	if err != nil {
		return Verdict{}, fmt.Errorf("bouncer: %w", err)
	}
	if prep.DexErr != nil {
		return Verdict{}, fmt.Errorf("bouncer: vm: app %s: %w", app.Package, prep.DexErr)
	}
	app.Decoded = prep.Dex
	interceptor := &reviewHooks{}
	machine, err := vm.New(dev, net, app, interceptor, nil)
	if err != nil {
		return Verdict{}, fmt.Errorf("bouncer: %w", err)
	}
	budget := r.MonkeyEvents
	if budget == 0 {
		budget = 10
	}
	monkey.Exercise(machine, budget, 99)

	for _, ev := range machine.Events() {
		if maliciousEventKinds[ev.Kind] {
			return Verdict{Reason: "dynamic run: observed " + ev.Kind + " behaviour"}, nil
		}
	}
	// Scan anything dynamically loaded during the review run.
	for _, path := range interceptor.loaded {
		data, err := dev.Storage.ReadFile(path)
		if err != nil {
			continue
		}
		var prog *mail.Program
		switch {
		case len(data) >= 4 && string(data[:4]) == dex.Magic:
			df, err := dex.Decode(data)
			if err != nil {
				continue
			}
			prog = mail.FromDex(df)
		case nativebin.IsSELF(data):
			lib, err := nativebin.Decode(data)
			if err != nil {
				continue
			}
			prog = mail.FromNative(lib)
		default:
			continue
		}
		if det := r.Classifier.Classify(prog); det.Malware {
			return Verdict{Reason: fmt.Sprintf("dynamic run: loaded code matches %s", det.Family)}, nil
		}
	}
	return Verdict{Approved: true}, nil
}

// staticScan classifies every binary packaged in the archive; rejected
// reports whether the scan already produced a failing verdict.
func (r *Reviewer) staticScan(prep *core.PreparedApp) (v Verdict, rejected bool) {
	if prep.Dex != nil {
		if det := r.Classifier.Classify(mail.FromDex(prep.Dex)); det.Malware {
			return Verdict{Reason: fmt.Sprintf("static scan: classes.dex matches %s (%.0f%%)",
				det.Family, det.Score*100)}, true
		}
	}
	a := prep.APK
	// Libraries are scanned in name order so an archive carrying several
	// malicious ones always gets the same reason.
	names := make([]string, 0, len(a.NativeLibs))
	for name := range a.NativeLibs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lib, err := nativebin.Decode(a.NativeLibs[name])
		if err != nil {
			continue
		}
		if det := r.Classifier.Classify(mail.FromNative(lib)); det.Malware {
			return Verdict{Reason: fmt.Sprintf("static scan: %s matches %s (%.0f%%)",
				name, det.Family, det.Score*100)}, true
		}
	}
	return Verdict{}, false
}

// reviewHooks records loaded paths during the sandbox run (the review's
// own, much shallower, DCL visibility).
type reviewHooks struct {
	loaded []string
}

func (h *reviewHooks) OnClassLoaderInit(kind vm.LoaderKind, dexPath, optDir string, st []vm.StackElement) {
	for _, p := range strings.Split(dexPath, ":") {
		if p != "" {
			h.loaded = append(h.loaded, p)
		}
	}
}

func (h *reviewHooks) OnNativeLoad(api vm.NativeLoadAPI, libPath string, st []vm.StackElement) {
	h.loaded = append(h.loaded, libPath)
}

func (h *reviewHooks) OnFileDelete(string) bool         { return false }
func (h *reviewHooks) OnFileRename(string, string) bool { return false }
