// Command dydroid runs the full DyDroid pipeline on one or more APK files
// (as produced by genstore) and prints a per-app report: status, DCL
// events with entity and provenance, malware detections, vulnerabilities
// and privacy leaks.
//
// Usage:
//
//	dydroid [-seed 7] [-events 25] [-metrics] [-json] app1.apk [app2.apk ...]
//
// With -json the per-app report is one JSON record per line — the same
// record type the dydroidd vetting daemon serves from /v1/result, so a
// local run and a daemon verdict for the same APK are byte-identical.
// Malware detection trains DroidNative on the corpus's training families;
// pass -no-train to skip it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/service"
	"github.com/dydroid/dydroid/internal/telemetry"
)

func main() {
	seed := flag.Int64("seed", 7, "fuzzing seed")
	events := flag.Int("events", 25, "monkey event budget per app")
	noTrain := flag.Bool("no-train", false, "skip DroidNative training (disables malware detection)")
	showMetrics := flag.Bool("metrics", false, "print the pipeline's status counts and per-span latency to stderr after all apps")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON record per app (the dydroidd verdict format) instead of the text report")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dydroid [flags] app.apk ...")
		os.Exit(2)
	}

	// A minimal store provides the training set, the remote-payload
	// network and the companion apps the samples reference.
	store, err := corpus.Generate(corpus.Config{Seed: *seed, Scale: 0.001})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dydroid:", err)
		os.Exit(1)
	}
	var clf *droidnative.Classifier
	if !*noTrain {
		if clf, err = store.TrainingSet(3); err != nil {
			fmt.Fprintln(os.Stderr, "dydroid:", err)
			os.Exit(1)
		}
	}
	reg := metrics.New()
	fleet := telemetry.New(telemetry.Options{})
	an := core.NewAnalyzer(core.Options{
		Seed:         *seed,
		MonkeyEvents: *events,
		Classifier:   clf,
		Network:      store.Network,
		SetupDevice:  store.SetupDevice,
		Metrics:      reg,
	})

	exit := 0
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dydroid:", err)
			exit = 1
			continue
		}
		res, err := an.AnalyzeAPK(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dydroid: %s: %v\n", path, err)
			exit = 1
			continue
		}
		fleet.ObserveApp(res, res.Trace)
		if *jsonOut {
			if err := printJSON(os.Stdout, data, res); err != nil {
				fmt.Fprintf(os.Stderr, "dydroid: %s: %v\n", path, err)
				exit = 1
			}
			continue
		}
		printResult(os.Stdout, path, res)
	}
	if *showMetrics {
		fmt.Fprint(os.Stderr, reg.Snapshot())
		fmt.Fprint(os.Stderr, "\n", fleet.Snapshot().LatencyReport())
	}
	os.Exit(exit)
}

// printJSON emits the daemon's record format: digest-keyed, one line per
// app, byte-identical to what dydroidd serves for the same archive.
func printJSON(w io.Writer, apkBytes []byte, res *core.AppResult) error {
	digest, err := apk.SigningDigest(apkBytes)
	if err != nil {
		return err
	}
	raw, err := service.NewRecord(digest, res, nil).Marshal()
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

func printResult(w io.Writer, path string, res *core.AppResult) {
	fmt.Fprintf(w, "== %s (%s)\n", path, res.Package)
	fmt.Fprintf(w, "   status: %s", res.Status)
	if res.Crash != nil {
		fmt.Fprintf(w, " (%v)", res.Crash)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "   pre-filter: dex-dcl=%v native-dcl=%v\n",
		res.PreFilter.HasDexDCL, res.PreFilter.HasNativeDCL)
	o := res.Obfuscation
	fmt.Fprintf(w, "   obfuscation: lexical=%v reflection=%v native=%v dex-encryption=%v anti-decompilation=%v\n",
		o.Lexical, o.Reflection, o.Native, o.DEXEncryption, o.AntiDecompile)
	for _, ev := range res.Events {
		fmt.Fprintf(w, "   DCL %-6s %-12s path=%s\n", ev.Kind, ev.API, ev.Path)
		fmt.Fprintf(w, "       call-site=%s entity=%s provenance=%s", ev.CallSite, ev.Entity, ev.Provenance)
		if ev.SourceURL != "" {
			fmt.Fprintf(w, " url=%s", ev.SourceURL)
		}
		fmt.Fprintf(w, " intercepted=%v\n", ev.Intercepted != nil)
	}
	for _, hit := range res.Malware {
		fmt.Fprintf(w, "   MALWARE %s: %s (match %.0f%%) in %s\n", hit.Kind, hit.Family, hit.Score*100, hit.Path)
	}
	for _, v := range res.Vulns {
		fmt.Fprintf(w, "   VULNERABLE %s/%s: %s", v.Code, v.Kind, v.Path)
		if v.OwnerPackage != "" {
			fmt.Fprintf(w, " (owned by %s)", v.OwnerPackage)
		}
		fmt.Fprintln(w)
	}
	if res.Privacy != nil {
		for _, dt := range res.Privacy.LeakedTypes() {
			excl := ""
			if res.PrivacyByEntity[string(dt)] {
				excl = " (exclusively third-party)"
			}
			fmt.Fprintf(w, "   PRIVACY leak: %s%s\n", dt, excl)
		}
	}
	for _, ev := range res.RuntimeEvents {
		fmt.Fprintf(w, "   runtime event: %s %s\n", ev.Kind, ev.Detail)
	}
}
