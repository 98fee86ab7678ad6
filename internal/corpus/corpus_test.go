package corpus

import (
	"context"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/core"
)

func genStore(t *testing.T, scale float64) *Store {
	t.Helper()
	st, err := Generate(Config{Seed: 42, Scale: scale})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return st
}

func TestFullScalePlanSums(t *testing.T) {
	st := genStore(t, 1.0)
	p := Paper()
	if got := len(st.Apps); got != p.Total {
		t.Fatalf("total apps = %d, want %d", got, p.Total)
	}
	counts := map[string]int{}
	for _, app := range st.Apps {
		counts[app.Spec.Archetype]++
	}
	// Ad apps.
	if got := counts["adN"] + counts["adNT"] + counts["adPlain"]; got != p.AdApps {
		t.Fatalf("ad apps = %d, want %d", got, p.AdApps)
	}
	// Group B sums to the non-ad DEX interceptions.
	groupB := counts["vulnExternalDex"] + counts["ownDex"] + counts["bothDex"] +
		counts["remote"] + counts["swiss"] + counts["adware"] +
		counts["genericN"] + counts["generic"] + counts["packed"]
	if got := p.AdApps + groupB; got != p.DexIntercepted {
		t.Fatalf("dex intercepted = %d, want %d", got, p.DexIntercepted)
	}
	// Native interceptions.
	nvIntercepted := counts["adN"] + counts["genericN"] + counts["packed"] +
		counts["nvThird"] + counts["chathook"] + counts["vulnAir"] + counts["vulnDS"] +
		counts["nvOwn"] + counts["nvBoth"]
	if nvIntercepted != p.NativeIntercepted {
		t.Fatalf("native intercepted = %d, want %d", nvIntercepted, p.NativeIntercepted)
	}
	// DEX candidates.
	dexCand := p.DexIntercepted + counts["dualNT"] + counts["dexNT"] +
		counts["dexFailRewrite"] + counts["dexFailNoAct"] + counts["dexFailCrash"]
	if dexCand != p.DexCandidates {
		t.Fatalf("dex candidates = %d, want %d", dexCand, p.DexCandidates)
	}
	// Native candidates.
	nvCand := nvIntercepted + counts["adNT"] + counts["dualNT"] + counts["nvNT"] +
		counts["nvFailRewrite"] + counts["nvFailNoAct"] + counts["nvFailCrash"]
	if nvCand != p.NativeCandidates {
		t.Fatalf("native candidates = %d, want %d", nvCand, p.NativeCandidates)
	}
	// Union: candidates in both sets.
	overlap := counts["adN"] + counts["adNT"] + counts["genericN"] + counts["packed"] + counts["dualNT"]
	if union := dexCand + nvCand - overlap; union != p.UnionCandidates {
		t.Fatalf("union = %d, want %d", union, p.UnionCandidates)
	}
	// Obfuscation totals.
	lex := 0
	refl := 0
	for _, app := range st.Apps {
		if app.Spec.Lexical {
			lex++
		}
		if app.Spec.Reflection {
			refl++
		}
	}
	if lex != p.Lexical {
		t.Fatalf("lexical = %d, want %d", lex, p.Lexical)
	}
	if refl != p.Reflection {
		t.Fatalf("reflection = %d, want %d", refl, p.Reflection)
	}
	if counts["packed"] != p.Packed || counts["antiDecomp"] != p.AntiDecompile {
		t.Fatalf("packed/antidecomp = %d/%d", counts["packed"], counts["antiDecomp"])
	}
	// Malware files and gates.
	files := 0
	gateCount := map[Gate]int{}
	for _, app := range st.Apps {
		if app.Spec.MalwareFamily == "" {
			continue
		}
		files += len(app.Spec.Gates)
		for _, g := range app.Spec.Gates {
			gateCount[g]++
		}
	}
	if files != p.MalwareFiles {
		t.Fatalf("malware files = %d, want %d", files, p.MalwareFiles)
	}
	if gateCount[GateTime] != p.GateTime || gateCount[GateAirplane] != p.GateAirplane ||
		gateCount[GateConn] != p.GateConn || gateCount[GateLocation] != p.GateLocation {
		t.Fatalf("gates = %+v", gateCount)
	}
	// Privacy: spot-check the largest Table X rows.
	typeCount := map[string]int{}
	for _, app := range st.Apps {
		seen := map[android.DataType]bool{}
		for _, dt := range app.Spec.LeakThird {
			seen[dt] = true
		}
		for _, dt := range app.Spec.LeakOwn {
			seen[dt] = true
		}
		for dt := range seen {
			typeCount[string(dt)]++
		}
	}
	// Pre-seeded malware contributions complete these counts.
	if got := typeCount["IMEI"] + 3; got != 581 { // swiss + 2 adware leak IMEI
		t.Fatalf("IMEI apps = %d, want 581", got)
	}
	if got := typeCount["Location"]; got != 254 {
		t.Fatalf("Location apps = %d, want 254", got)
	}
	// Settings readers.
	settings := 0
	for _, app := range st.Apps {
		if app.Spec.ReadSettings || hasType(app.Spec.LeakOwn, android.DTSettings) {
			settings++
		}
	}
	if settings != p.SettingsReaders {
		t.Fatalf("settings readers = %d, want %d", settings, p.SettingsReaders)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genStore(t, 0.005)
	b := genStore(t, 0.005)
	if len(a.Apps) != len(b.Apps) {
		t.Fatal("sizes differ")
	}
	for i := range a.Apps {
		if a.Apps[i].Spec.Pkg != b.Apps[i].Spec.Pkg ||
			a.Apps[i].Meta.Downloads != b.Apps[i].Meta.Downloads {
			t.Fatalf("app %d differs", i)
		}
	}
	// Identical archives too.
	d1, err := a.BuildAPK(a.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := b.BuildAPK(b.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatal("built archives differ")
	}
}

func TestAllArchetypesBuild(t *testing.T) {
	st := genStore(t, 0.003)
	seen := map[string]bool{}
	for _, app := range st.Apps {
		if seen[app.Spec.Archetype] {
			continue
		}
		seen[app.Spec.Archetype] = true
		if _, err := st.BuildAPK(app); err != nil {
			t.Fatalf("archetype %s (%s): %v", app.Spec.Archetype, app.Spec.Pkg, err)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("only %d archetypes at this scale: %v", len(seen), seen)
	}
}

// analyzeArchetype runs the DyDroid pipeline on the first app of the
// archetype.
func analyzeArchetype(t *testing.T, st *Store, archetype string) *core.AppResult {
	t.Helper()
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	an := core.NewAnalyzer(core.Options{
		Seed:        7,
		Classifier:  clf,
		Network:     st.Network,
		SetupDevice: st.SetupDevice,
	})
	for _, app := range st.Apps {
		if app.Spec.Archetype != archetype {
			continue
		}
		data, err := st.BuildAPK(app)
		if err != nil {
			t.Fatalf("build %s: %v", app.Spec.Pkg, err)
		}
		res, err := an.AnalyzeAPK(data)
		if err != nil {
			t.Fatalf("analyze %s: %v", app.Spec.Pkg, err)
		}
		return res
	}
	t.Fatalf("no app with archetype %s", archetype)
	return nil
}

func TestPipelineRecoversGroundTruth(t *testing.T) {
	st := genStore(t, 0.003)

	t.Run("ad app", func(t *testing.T) {
		res := analyzeArchetype(t, st, "adN")
		if res.Status != core.StatusExercised {
			t.Fatalf("status %s (%v)", res.Status, res.Crash)
		}
		if len(res.DexEvents()) == 0 || len(res.NativeEvents()) == 0 {
			t.Fatalf("events dex=%d native=%d", len(res.DexEvents()), len(res.NativeEvents()))
		}
		ev := res.DexEvents()[0]
		if ev.Entity != core.EntityThirdParty || ev.Provenance != core.ProvenanceLocal {
			t.Fatalf("ad event = %+v", ev)
		}
		if res.Privacy == nil || !res.PrivacyByEntity[string(android.DTSettings)] {
			t.Fatalf("ad app should leak settings third-party: %+v", res.PrivacyByEntity)
		}
		if len(res.Malware) != 0 {
			t.Fatalf("benign ad app flagged: %+v", res.Malware)
		}
	})

	t.Run("remote app", func(t *testing.T) {
		res := analyzeArchetype(t, st, "remote")
		if res.Status != core.StatusExercised {
			t.Fatalf("status %s (%v)", res.Status, res.Crash)
		}
		urls := res.RemoteURLs()
		if len(urls) != 1 {
			t.Fatalf("remote urls = %v", urls)
		}
	})

	t.Run("swiss malware", func(t *testing.T) {
		res := analyzeArchetype(t, st, "swiss")
		if len(res.Malware) != 1 || res.Malware[0].Family != "Swiss code monkeys" {
			t.Fatalf("malware = %+v (status %s, crash %v, events %d)",
				res.Malware, res.Status, res.Crash, len(res.Events))
		}
	})

	t.Run("chathook malware", func(t *testing.T) {
		res := analyzeArchetype(t, st, "chathook")
		if len(res.Malware) == 0 || res.Malware[0].Family != "Chathook ptrace" {
			t.Fatalf("malware = %+v (status %s, crash %v)", res.Malware, res.Status, res.Crash)
		}
		// The attack actually ran: root + ptrace events observed.
		kinds := map[string]bool{}
		for _, ev := range res.RuntimeEvents {
			kinds[ev.Kind] = true
		}
		if !kinds["root"] || !kinds["ptrace"] {
			t.Fatalf("runtime events = %+v", res.RuntimeEvents)
		}
	})

	t.Run("packed app", func(t *testing.T) {
		res := analyzeArchetype(t, st, "packed")
		if !res.Obfuscation.DEXEncryption {
			t.Fatalf("packer not detected: %+v", res.Obfuscation)
		}
		if res.Status != core.StatusExercised || len(res.DexEvents()) == 0 {
			t.Fatalf("packed app dynamic: status %s events %d", res.Status, len(res.DexEvents()))
		}
	})

	t.Run("vulnerable external", func(t *testing.T) {
		res := analyzeArchetype(t, st, "vulnExternalDex")
		if len(res.Vulns) != 1 || res.Vulns[0].Kind != core.VulnExternalStorage {
			t.Fatalf("vulns = %+v", res.Vulns)
		}
	})

	t.Run("vulnerable adobe air", func(t *testing.T) {
		res := analyzeArchetype(t, st, "vulnAir")
		if len(res.Vulns) != 1 || res.Vulns[0].Kind != core.VulnOtherAppInternal ||
			res.Vulns[0].OwnerPackage != AdobeAirPackage {
			t.Fatalf("vulns = %+v (status %s, crash %v)", res.Vulns, res.Status, res.Crash)
		}
	})

	t.Run("failures", func(t *testing.T) {
		if res := analyzeArchetype(t, st, "dexFailRewrite"); res.Status != core.StatusRewriteFailure {
			t.Fatalf("rewrite-failure status = %s", res.Status)
		}
		if res := analyzeArchetype(t, st, "dexFailNoAct"); res.Status != core.StatusNoActivity {
			t.Fatalf("no-activity status = %s", res.Status)
		}
		if res := analyzeArchetype(t, st, "dexFailCrash"); res.Status != core.StatusCrash {
			t.Fatalf("crash status = %s", res.Status)
		}
		if res := analyzeArchetype(t, st, "antiDecomp"); res.Status != core.StatusUnpackFailure {
			t.Fatalf("anti-decompile status = %s", res.Status)
		}
		if res := analyzeArchetype(t, st, "plain"); res.Status != core.StatusNoDCL {
			t.Fatalf("plain status = %s", res.Status)
		}
	})

	t.Run("dormant candidates", func(t *testing.T) {
		res := analyzeArchetype(t, st, "dexNT")
		if !res.PreFilter.HasDexDCL {
			t.Fatal("pre-filter missed dormant loader")
		}
		if res.Status != core.StatusExercised || len(res.Events) != 0 {
			t.Fatalf("dormant app: status %s events %d", res.Status, len(res.Events))
		}
	})

	t.Run("own entity", func(t *testing.T) {
		res := analyzeArchetype(t, st, "ownDex")
		own, third := res.Entities(core.KindDex)
		if !own || third {
			t.Fatalf("ownDex entities own=%v third=%v", own, third)
		}
		res = analyzeArchetype(t, st, "bothDex")
		own, third = res.Entities(core.KindDex)
		if !own || !third {
			t.Fatalf("bothDex entities own=%v third=%v", own, third)
		}
	})

	t.Run("lexical detected", func(t *testing.T) {
		// Ad apps are renamed in the plan; the detector must see it.
		res := analyzeArchetype(t, st, "adN")
		if !res.Obfuscation.Lexical {
			t.Fatalf("lexically renamed ad app not detected: fraction %f",
				res.Obfuscation.MeaningfulFraction)
		}
	})
}

func TestReplayGatesSuppressLoads(t *testing.T) {
	st := genStore(t, 1.0) // specs only; we build just the apps we need
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	an := core.NewAnalyzer(core.Options{
		Seed: 7, Classifier: clf, Network: st.Network, SetupDevice: st.SetupDevice,
	})
	// Find one chathook app gated on time.
	var target *StoreApp
	for _, app := range st.Apps {
		if app.Spec.MalwareFamily == "chathook" && len(app.Spec.Gates) > 0 &&
			app.Spec.Gates[0] == GateTime {
			target = app
			break
		}
	}
	if target == nil {
		t.Skip("no time-gated chathook app at this scale")
	}
	data, err := st.BuildAPK(target)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := an.AnalyzeAPK(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(normal.NativeEvents()) == 0 {
		t.Fatalf("gated malware did not load under normal config: %s (%v)", normal.Status, normal.Crash)
	}
	loaded, err := an.ReplayPreparedContext(context.Background(), normal.Prepared, core.ConfigTimeBeforeRelease, target.Meta.ReleaseDate)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 {
		t.Fatalf("time-gated files loaded under pre-release clock: %v", loaded)
	}
}

func TestCnadDownloadsTwoFiles(t *testing.T) {
	// The paper's example remote app fetches a JAR and an APK; both loads
	// must be intercepted with remote provenance.
	st := genStore(t, 1.0)
	clf, err := st.TrainingSet(1)
	if err != nil {
		t.Fatal(err)
	}
	an := core.NewAnalyzer(core.Options{
		Seed: 7, Classifier: clf, Network: st.Network, SetupDevice: st.SetupDevice,
	})
	for _, app := range st.Apps {
		if app.Spec.Pkg != "com.classicalmuseumad.cnad" {
			continue
		}
		data, err := st.BuildAPK(app)
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		evs := res.DexEvents()
		if len(evs) != 2 {
			t.Fatalf("cnad events = %d, want 2 (JAR + APK)", len(evs))
		}
		urls := res.RemoteURLs()
		if len(urls) != 2 {
			t.Fatalf("cnad remote urls = %v", urls)
		}
		return
	}
	t.Fatal("cnad app not generated")
}

// TestPreFilterSoundOnCorpus pins the static pre-filter's soundness on the
// generated marketplace: every app it rules out (status no-dcl), run
// through dynamic analysis anyway, is exercised and loads no code at all.
func TestPreFilterSoundOnCorpus(t *testing.T) {
	st, err := Generate(Config{Seed: 2016, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Seed: 2016, Network: st.Network, SetupDevice: st.SetupDevice}
	an := core.NewAnalyzer(opts)
	opts.RunDynamicWithoutDCL = true
	forced := core.NewAnalyzer(opts)
	noDCL := 0
	for _, app := range st.Apps {
		data, err := st.BuildAPK(app)
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.AnalyzeAPK(data)
		if err != nil || res.Status != core.StatusNoDCL {
			continue
		}
		noDCL++
		got, err := forced.AnalyzeAPK(data)
		if err != nil {
			t.Fatalf("%s: forced dynamic analysis: %v", app.Spec.Pkg, err)
		}
		if got.Status != core.StatusExercised || len(got.Events) != 0 {
			t.Errorf("%s: pre-filter said no DCL, forced run is %s with %d DCL events",
				app.Spec.Pkg, got.Status, len(got.Events))
		}
	}
	if noDCL == 0 {
		t.Fatal("no no-dcl app at this scale")
	}
	t.Logf("%d no-dcl apps re-run with dynamic analysis forced", noDCL)
}
