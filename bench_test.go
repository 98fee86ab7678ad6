// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the substrates and the ablations
// called out in DESIGN.md. Table benches share one measurement run (the
// expensive part, benchmarked separately as BenchmarkFullMeasurement) and
// time the per-table aggregation.
package dydroid_test

import (
	"maps"
	"sync"
	"testing"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/experiments"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/netsim"
	"github.com/dydroid/dydroid/internal/obfuscation"
	"github.com/dydroid/dydroid/internal/taint"
)

// benchScale keeps per-iteration work tractable; the full-scale run is
// cmd/experiments -scale 1.0.
const benchScale = 0.002

var (
	sharedOnce    sync.Once
	sharedResults *experiments.Results
	sharedErr     error
)

func sharedRun(b *testing.B) *experiments.Results {
	b.Helper()
	sharedOnce.Do(func() {
		sharedResults, sharedErr = experiments.Run(experiments.Config{
			Seed: 2016, Scale: benchScale, Workers: 4,
		})
	})
	if sharedErr != nil {
		b.Fatal(sharedErr)
	}
	return sharedResults
}

// benchSeed pins every BenchmarkFullMeasurement iteration to one
// generated marketplace: iterations measure the same workload, so
// apps/sec compares across iterations and across runs instead of
// jittering with corpus composition. Matches sharedRun's corpus.
const benchSeed = 2016

// BenchmarkFullMeasurement times the complete pipeline — generate the
// marketplace, analyze every app, replay the malware — at bench scale,
// and reports the per-span mean timings from the run's fleet snapshot so
// stage-level regressions show up in benchmark diffs. Corpus
// variance is a separate measurand: see the seed-sweep sub-benchmark.
func BenchmarkFullMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Config{
			Seed: benchSeed, Scale: benchScale, Workers: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Records)), "apps/op")
		b.ReportMetric(res.RunStats.AppsPerSec, "apps/sec")
		for name, h := range res.Fleet.Stages {
			b.ReportMetric(float64(h.Mean().Nanoseconds()), name+"-ns/app")
		}
	}
}

// BenchmarkFullMeasurementSeedSweep deliberately regenerates a different
// marketplace every iteration (the pre-fix BenchmarkFullMeasurement
// behaviour): the spread of its apps/sec against the fixed-seed
// benchmark measures sensitivity to corpus composition, not pipeline
// speed. Keep trajectory comparisons on the fixed-seed benchmark.
func BenchmarkFullMeasurementSeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Config{
			Seed: int64(i), Scale: benchScale, Workers: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Records)), "apps/op")
		b.ReportMetric(res.RunStats.AppsPerSec, "apps/sec")
	}
}

// TestFullMeasurementIterationsComparable is the regression test for the
// pinned benchmark seed: two runs at the benchmark's seed and scale must
// measure the same workload — identical corpus size and per-status
// outcome counts — otherwise per-iteration apps/sec are not comparable.
func TestFullMeasurementIterationsComparable(t *testing.T) {
	run := func() *experiments.Results {
		res, err := experiments.Run(experiments.Config{
			Seed: benchSeed, Scale: benchScale, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("corpus size differs between iterations: %d vs %d", len(a.Records), len(b.Records))
	}
	if !maps.Equal(a.RunStats.StatusCounts, b.RunStats.StatusCounts) {
		t.Fatalf("status counts differ between iterations:\n%v\n%v",
			a.RunStats.StatusCounts, b.RunStats.StatusCounts)
	}
}

// BenchmarkTableIDownloadTracker regenerates a Table I flow chain —
// URL -> InputStream -> Buffer -> OutputStream -> File — and resolves the
// provenance query.
func BenchmarkTableIDownloadTracker(b *testing.B) {
	payload := make([]byte, 4096)
	net := netsim.NewNetwork()
	net.Serve("http://mobads.baidu.com/ads/pa/x.jar", netsim.Payload{Data: payload})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker := core.NewTracker()
		fac := netsim.NewFactory(tracker)
		u := fac.NewURL("http://mobads.baidu.com/ads/pa/x.jar")
		in, err := net.OpenStream(fac, u)
		if err != nil {
			b.Fatal(err)
		}
		out := fac.NewOutputStream("/data/data/app/cache/x.jar")
		for {
			buf := in.Read(512)
			if buf == nil {
				break
			}
			out.Write(buf)
		}
		out.CloseToFile()
		if p, _ := tracker.Provenance("/data/data/app/cache/x.jar"); p != core.ProvenanceRemote {
			b.Fatal("provenance lost")
		}
	}
}

func benchTable(b *testing.B, f func(*experiments.Results) string, want int) {
	res := sharedRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := f(res); len(out) < want {
			b.Fatalf("table too short: %d bytes", len(out))
		}
	}
}

// One benchmark per evaluation table/figure.
func BenchmarkTableIIDynamicSummary(b *testing.B) {
	benchTable(b, (*experiments.Results).TableII, 100)
}
func BenchmarkTableIIIPopularity(b *testing.B) {
	benchTable(b, (*experiments.Results).TableIII, 100)
}
func BenchmarkTableIVEntity(b *testing.B) {
	benchTable(b, (*experiments.Results).TableIV, 100)
}
func BenchmarkTableVRemoteFetch(b *testing.B) {
	benchTable(b, (*experiments.Results).TableV, 50)
}
func BenchmarkTableVIObfuscation(b *testing.B) {
	benchTable(b, (*experiments.Results).TableVI, 100)
}
func BenchmarkFigure3PackerCategories(b *testing.B) {
	benchTable(b, (*experiments.Results).Figure3, 50)
}
func BenchmarkTableVIIMalware(b *testing.B) {
	benchTable(b, (*experiments.Results).TableVII, 50)
}
func BenchmarkTableVIIIRuntimeConfigs(b *testing.B) {
	benchTable(b, (*experiments.Results).TableVIII, 100)
}
func BenchmarkTableIXVulnerable(b *testing.B) {
	benchTable(b, (*experiments.Results).TableIX, 50)
}
func BenchmarkTableXPrivacy(b *testing.B) {
	benchTable(b, (*experiments.Results).TableX, 100)
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkDexEncodeDecode(b *testing.B) {
	bd := dex.NewBuilder()
	for c := 0; c < 20; c++ {
		cls := bd.Class("com.bench.C"+string(rune('A'+c)), "java.lang.Object")
		m := cls.Method("work", dex.ACCPublic, 8, "V")
		for i := 0; i < 40; i++ {
			m.Const(1, int64(i)).Add(2, 1, 1)
		}
		m.ReturnVoid().Done()
	}
	f := bd.File()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := dex.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dex.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinePerApp times the complete hybrid pipeline for a single
// ad-supported app (the dominant archetype of the corpus).
func BenchmarkPipelinePerApp(b *testing.B) {
	st, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	var target *corpus.StoreApp
	for _, app := range st.Apps {
		if app.Spec.AdMob {
			target = app
			break
		}
	}
	if target == nil {
		b.Fatal("no ad app")
	}
	data, err := st.BuildAPK(target)
	if err != nil {
		b.Fatal(err)
	}
	an := core.NewAnalyzer(core.Options{Seed: 1, Network: st.Network, SetupDevice: st.SetupDevice})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := an.AnalyzeAPK(data)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != core.StatusExercised {
			b.Fatal(res.Status)
		}
	}
}

// BenchmarkPackerRoundTrip times pack -> run -> intercept for the
// DEX-encryption container.
func BenchmarkPackerRoundTrip(b *testing.B) {
	bd := dex.NewBuilder()
	bd.Class("com.bench.Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, err := dex.Encode(bd.File())
	if err != nil {
		b.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.bench", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.bench.Main", Main: true}}}},
		Dex: dexBytes,
	}
	an := core.NewAnalyzer(core.Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed, err := obfuscation.Pack(a, 0x5a)
		if err != nil {
			b.Fatal(err)
		}
		data, err := apk.Build(packed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := an.AnalyzeAPK(data)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.DexEvents()) == 0 {
			b.Fatal("container load not intercepted")
		}
	}
}

// BenchmarkDroidNativeClassify times ACFG matching of one binary against
// a 19-family training set.
func BenchmarkDroidNativeClassify(b *testing.B) {
	st, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	clf, err := st.TrainingSet(3)
	if err != nil {
		b.Fatal(err)
	}
	prog := benignTestProgram(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if det := clf.Classify(prog); det.Malware {
			b.Fatal("benign flagged")
		}
	}
}

func benignTestProgram(b *testing.B) *mail.Program {
	bd := dex.NewBuilder()
	m := bd.Class("com.bench.Plugin", "java.lang.Object").
		Method("tick", dex.ACCPublic, 6, "I")
	m.Const(1, 0).
		Const(2, 64).
		Label("l").
		IfGe(1, 2, "e").
		Const(3, 1).
		Add(1, 1, 3).
		Goto("l").
		Label("e").
		Return(1).Done()
	return mail.FromDex(bd.File())
}

// BenchmarkTaintAnalyze times the FlowDroid-style analysis of a loaded
// binary with interprocedural and field-mediated flows.
func BenchmarkTaintAnalyze(b *testing.B) {
	bd := dex.NewBuilder()
	cls := bd.Class("com.sdk.T", "java.lang.Object")
	h := cls.Method("id", dex.ACCPublic, 3, "Ljava/lang/String;")
	h.NewInstance(1, "android.telephony.TelephonyManager").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.TelephonyManager",
			Name: "getDeviceId", Sig: "()Ljava/lang/String;"}, 1).
		MoveResult(2).
		Return(2).Done()
	m := cls.Method("send", dex.ACCPublic, 4, "V")
	m.InvokeVirtual(dex.MethodRef{Class: "com.sdk.T", Name: "id",
		Sig: "()Ljava/lang/String;"}, 0).
		MoveResult(1).
		NewInstance(2, "java.net.HttpURLConnection").
		InvokeVirtual(dex.MethodRef{Class: "java.net.HttpURLConnection",
			Name: "write", Sig: "(Ljava/lang/String;)V"}, 2, 1).
		ReturnVoid().Done()
	f := bd.File()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := taint.Analyze(f); len(res.Leaks) != 1 {
			b.Fatal("leak not found")
		}
	}
}

// --- ablations --------------------------------------------------------------

// BenchmarkAblationPreFilter compares pipeline cost with the static
// pre-filter on (paper design: skip apps without DCL code) and off
// (exercise everything) over a no-DCL app.
func BenchmarkAblationPreFilter(b *testing.B) {
	bd := dex.NewBuilder()
	bd.Class("com.plainbench.Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, err := dex.Encode(bd.File())
	if err != nil {
		b.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.plainbench", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.plainbench.Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prefilter-on", func(b *testing.B) {
		an := core.NewAnalyzer(core.Options{Seed: 1})
		for i := 0; i < b.N; i++ {
			res, err := an.AnalyzeAPK(data)
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != core.StatusNoDCL {
				b.Fatal(res.Status)
			}
		}
	})
	b.Run("prefilter-off", func(b *testing.B) {
		an := core.NewAnalyzer(core.Options{Seed: 1, RunDynamicWithoutDCL: true})
		for i := 0; i < b.N; i++ {
			res, err := an.AnalyzeAPK(data)
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != core.StatusExercised {
				b.Fatal(res.Status)
			}
		}
	})
}

// BenchmarkAblationDeleteBlocking measures interception yield with the
// delete/rename blocking queue on (paper design) and off, over apps whose
// ad SDK deletes its temporary loaded file. The interceptions/op metric is
// the point: it drops to zero without blocking.
func BenchmarkAblationDeleteBlocking(b *testing.B) {
	st, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	var data []byte
	for _, app := range st.Apps {
		if app.Spec.AdMob {
			if data, err = st.BuildAPK(app); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	if data == nil {
		b.Fatal("no ad app")
	}
	run := func(b *testing.B, disable bool) {
		an := core.NewAnalyzer(core.Options{Seed: 1, DisableDeleteBlocking: disable})
		intercepted := 0
		for i := 0; i < b.N; i++ {
			res, err := an.AnalyzeAPK(data)
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range res.DexEvents() {
				if ev.Intercepted != nil {
					intercepted++
				}
			}
		}
		b.ReportMetric(float64(intercepted)/float64(b.N), "interceptions/op")
	}
	b.Run("blocking-on", func(b *testing.B) { run(b, false) })
	b.Run("blocking-off", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationACFGThreshold sweeps DroidNative's match threshold
// around the paper's 90% choice, reporting detection outcomes for an
// exact variant and a benign sample.
func BenchmarkAblationACFGThreshold(b *testing.B) {
	st, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	benign := benignTestProgram(b)
	for _, th := range []float64{0.5, 0.7, 0.9, 0.99} {
		b.Run(thName(th), func(b *testing.B) {
			clf, err := st.TrainingSet(1)
			if err != nil {
				b.Fatal(err)
			}
			clf.Threshold = th
			falsePos := 0
			for i := 0; i < b.N; i++ {
				if det := clf.Classify(benign); det.Malware {
					falsePos++
				}
			}
			b.ReportMetric(float64(falsePos)/float64(b.N), "benign-fp/op")
		})
	}
}

func thName(th float64) string {
	switch th {
	case 0.5:
		return "threshold-50"
	case 0.7:
		return "threshold-70"
	case 0.9:
		return "threshold-90-paper"
	default:
		return "threshold-99"
	}
}

// BenchmarkCorpusGenerate times marketplace generation alone.
func BenchmarkCorpusGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := corpus.Generate(corpus.Config{Seed: int64(i), Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Apps) == 0 {
			b.Fatal("empty store")
		}
	}
}

// BenchmarkDroidNativeTrain times building the training set.
func BenchmarkDroidNativeTrain(b *testing.B) {
	st, err := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.TrainingSet(3); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = droidnative.MatchThreshold // keep the import for documentation linkage

// BenchmarkAblationMonkeyBudget measures interception yield against the
// fuzzing budget for an app whose DCL hides behind a UI callback rather
// than firing at launch. The paper's discussion argues a small Monkey
// budget suffices because ad-library DCL triggers at launch; this
// ablation shows the budget matters exactly when it does not.
func BenchmarkAblationMonkeyBudget(b *testing.B) {
	pkg := "com.bench.lazydcl"
	payloadB := dex.NewBuilder()
	payloadB.Class("com.plugin.P", "java.lang.Object").
		Method("f", dex.ACCPublic, 1, "V").ReturnVoid().Done()
	payload, err := dex.Encode(payloadB.File())
	if err != nil {
		b.Fatal(err)
	}
	bd := dex.NewBuilder()
	act := bd.Class(pkg+".Main", "android.app.Activity")
	act.Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	cb := act.Method("onClickLoadPlugin", dex.ACCPublic, 8, "V")
	cb.NewInstance(1, "java.io.FileInputStream").
		ConstString(2, "/data/data/"+pkg+"/assets/plugin.bin").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileInputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 1, 2).
		NewInstance(3, "java.io.FileOutputStream").
		ConstString(4, "/data/data/"+pkg+"/cache/plugin.dex").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 3, 4).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileInputStream", Name: "readAll",
			Sig: "()[B"}, 1).
		MoveResult(5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
			Sig: "([B)V"}, 3, 5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
			Sig: "()V"}, 3).
		ConstString(6, "/data/data/"+pkg+"/cache/odex").
		NewInstance(7, "dalvik.system.DexClassLoader").
		InvokeDirect(dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			7, 4, 6, 0, 0).
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(bd.File())
	if err != nil {
		b.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex:    dexBytes,
		Assets: map[string][]byte{"plugin.bin": payload},
	}
	data, err := apk.Build(a)
	if err != nil {
		b.Fatal(err)
	}
	// MonkeyEvents -1 means "launch only": the zero value would fall back
	// to the default budget.
	for _, budget := range []int{-1, 25} {
		name := "launch-only"
		if budget == 25 {
			name = "budget-25-paper"
		}
		b.Run(name, func(b *testing.B) {
			an := core.NewAnalyzer(core.Options{Seed: 1, MonkeyEvents: budget})
			intercepted := 0
			for i := 0; i < b.N; i++ {
				res, err := an.AnalyzeAPK(data)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.DexEvents()) > 0 {
					intercepted++
				}
			}
			b.ReportMetric(float64(intercepted)/float64(b.N), "apps-intercepted/op")
		})
	}
}

// BenchmarkAblationEntityAttribution quantifies what the stack-trace
// call-site analysis buys: a naive baseline attributing every DCL event
// to the app developer (no framework instrumentation can do better than
// guess) is wrong for every third-party-initiated load — the
// overwhelming majority of the corpus (paper: >85%).
func BenchmarkAblationEntityAttribution(b *testing.B) {
	res := sharedRun(b)
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		third, total := 0, 0
		for _, rec := range res.Records {
			for _, ev := range rec.Result.Events {
				total++
				if ev.Entity == core.EntityThirdParty {
					third++ // the naive "always own" baseline misattributes these
				}
			}
		}
		if total > 0 {
			rate = float64(third) / float64(total)
		}
	}
	b.ReportMetric(rate, "naive-own-error-rate")
}
