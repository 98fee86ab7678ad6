package obfuscation

import (
	"errors"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/apktool"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/vm"
)

// plainApp builds a readable app with one activity writing a sentinel
// static field.
func plainApp(t *testing.T, pkg string) *apk.APK {
	t.Helper()
	b := dex.NewBuilder()
	act := b.Class(pkg+".MainActivity", "android.app.Activity")
	act.Field("downloadCount", "I", dex.ACCPrivate)
	m := act.Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
	m.Const(1, 42).
		SPut(1, dex.FieldRef{Class: pkg + ".MainActivity", Name: "marker", Type: "I"}).
		InvokeVirtual(dex.MethodRef{Class: pkg + ".MainActivity", Name: "loadSettings", Sig: "()V"}, 0).
		ReturnVoid().Done()
	act.Method("loadSettings", dex.ACCPublic, 2, "V").ReturnVoid().Done()
	helper := b.Class(pkg+".util.DownloadManager", "java.lang.Object")
	helper.Method("fetchUpdate", dex.ACCPublic, 2, "V").ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return &apk.APK{
		Manifest: apk.Manifest{
			Package: pkg,
			MinSDK:  16,
			Application: apk.Application{
				Activities: []apk.Component{{Name: pkg + ".MainActivity", Main: true}},
			},
		},
		Dex: dexBytes,
	}
}

func analyze(t *testing.T, a *apk.APK) Report {
	t.Helper()
	return analyzeWith(t, Detector{}, a)
}

// analyzeWith assesses a the way the pipeline does: a decompiler crash is
// an anti-decompilation report with every bytecode-dependent flag false;
// otherwise the report is AnalyzeUnpacked's.
func analyzeWith(t *testing.T, d Detector, a *apk.APK) Report {
	t.Helper()
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.Tool.Unpack(data)
	if errors.Is(err, apktool.ErrDecompile) {
		return Report{AntiDecompile: true}
	}
	if err != nil {
		t.Fatal(err)
	}
	return d.AnalyzeUnpacked(u, PreFilter(u))
}

func TestPlainAppCleanReport(t *testing.T) {
	rep := analyze(t, plainApp(t, "com.example.reader"))
	if rep.Lexical || rep.Reflection || rep.Native || rep.DEXEncryption || rep.AntiDecompile {
		t.Fatalf("plain app flagged: %+v", rep)
	}
	if rep.MeaningfulFraction < 0.8 {
		t.Fatalf("plain app meaningful fraction = %f", rep.MeaningfulFraction)
	}
}

func TestLexicalRenameDetected(t *testing.T) {
	a := plainApp(t, "com.example.reader")
	ob, err := LexicalRename(a)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, ob)
	if !rep.Lexical {
		t.Fatalf("renamed app not detected: %+v", rep)
	}
	if rep.DEXEncryption || rep.AntiDecompile {
		t.Fatalf("renamed app wrongly flagged: %+v", rep)
	}
}

func TestLexicalRenamePreservesBehavior(t *testing.T) {
	a := plainApp(t, "com.example.reader")
	ob, err := LexicalRename(a)
	if err != nil {
		t.Fatal(err)
	}
	dev := android.NewDevice()
	app, err := dev.Packages.Install(ob)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(dev, nil, app, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LaunchApp(); err != nil {
		t.Fatalf("renamed app crashed: %v", err)
	}
	// The activity class was renamed but stayed launchable via manifest.
	df, err := dex.Decode(ob.Dex)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range df.Classes {
		if strings.Contains(c.Name, "MainActivity") || strings.Contains(c.Name, "DownloadManager") {
			t.Fatalf("original class name survived: %s", c.Name)
		}
	}
	if ob.Manifest.LaunchActivity() == a.Manifest.LaunchActivity() {
		t.Fatal("manifest activity not renamed")
	}
}

func TestRenameDeterministic(t *testing.T) {
	a := plainApp(t, "com.example.reader")
	o1, err := LexicalRename(a)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LexicalRename(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(o1.Dex) != string(o2.Dex) {
		t.Fatal("LexicalRename is not deterministic")
	}
}

func TestNameSeq(t *testing.T) {
	s := newNameSeq()
	got := []string{}
	for i := 0; i < 30; i++ {
		got = append(got, s.next())
	}
	if got[0] != "a" || got[25] != "z" || got[26] != "aa" || got[27] != "ab" {
		t.Fatalf("nameSeq = %v", got[:28])
	}
}

func TestPackDetected(t *testing.T) {
	a := plainApp(t, "com.tv.remote")
	packed, err := Pack(a, 0x5a)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, packed)
	if !rep.DEXEncryption {
		t.Fatalf("packed app not detected: %+v", rep)
	}
	if !rep.Native {
		t.Fatal("packed app must report native code (the decryptor)")
	}
}

func TestPackedAppStillRuns(t *testing.T) {
	a := plainApp(t, "com.tv.remote")
	packed, err := Pack(a, 0x5a)
	if err != nil {
		t.Fatal(err)
	}
	dev := android.NewDevice()
	app, err := dev.Packages.Install(packed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(dev, nil, app, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LaunchApp(); err != nil {
		t.Fatalf("packed app crashed: %v", err)
	}
	// The decrypted payload must exist and decode to the ORIGINAL dex.
	plain, err := dev.Storage.ReadFile("/data/data/com.tv.remote/cache/app.dex")
	if err != nil {
		t.Fatalf("decrypted payload missing: %v", err)
	}
	if string(plain) != string(a.Dex) {
		t.Fatal("native decryptor produced wrong plaintext")
	}
	// And the original activity code actually ran (sentinel static).
	loaders := m.Loaders()
	if len(loaders) != 1 {
		t.Fatalf("loaders = %d, want 1", len(loaders))
	}
	if _, ok := loaders[0].Classes()["com.tv.remote.MainActivity"]; !ok {
		t.Fatal("original activity not registered by the container's loader")
	}
}

func TestPackedStaticAnalysisSeesNoOriginalCode(t *testing.T) {
	a := plainApp(t, "com.tv.remote")
	packed, err := Pack(a, 0x21)
	if err != nil {
		t.Fatal(err)
	}
	df, err := dex.Decode(packed.Dex)
	if err != nil {
		t.Fatal(err)
	}
	if df.FindClass("com.tv.remote.MainActivity") != nil {
		t.Fatal("original class visible in shipped dex")
	}
	if df.FindClass(StubAppClass) == nil {
		t.Fatal("stub container missing")
	}
	// The encrypted asset must not decode as SDEX.
	if _, err := dex.Decode(packed.Assets[PayloadAsset]); err == nil {
		t.Fatal("payload asset is not encrypted")
	}
}

func TestPackValidation(t *testing.T) {
	if _, err := Pack(&apk.APK{Manifest: apk.Manifest{Package: "x.y"}}, 1); err == nil {
		t.Fatal("Pack accepted app without dex")
	}
	if _, err := Pack(plainApp(t, "a.b"), 0); err == nil {
		t.Fatal("Pack accepted zero key")
	}
}

func TestAntiDecompilationTransform(t *testing.T) {
	a := plainApp(t, "com.example.ad")
	ob, err := AddAntiDecompilation(a)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, ob)
	if !rep.AntiDecompile {
		t.Fatalf("anti-decompilation not reported: %+v", rep)
	}
	// The fixed decompiler version handles it and reports other flags.
	rep2 := analyzeWith(t, Detector{Tool: apktool.Tool{Version: apktool.FixedVersion}}, ob)
	if rep2.AntiDecompile {
		t.Fatal("fixed decompiler still reports anti-decompilation")
	}
	// The app still runs: the decoy is never executed.
	dev := android.NewDevice()
	app, err := dev.Packages.Install(ob)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(dev, nil, app, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LaunchApp(); err != nil {
		t.Fatalf("anti-decompilation app crashed: %v", err)
	}
}

func TestReflectionDetection(t *testing.T) {
	pkg := "com.example.refl"
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 4, "V", "Landroid/os/Bundle;")
	m.ConstString(1, "com.example.refl.Hidden").
		InvokeStatic(dex.MethodRef{Class: "java.lang.Class", Name: "forName",
			Sig: "(Ljava/lang/String;)Ljava/lang/Class;"}, 1).
		ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	rep := analyze(t, a)
	if !rep.Reflection {
		t.Fatalf("reflection not detected: %+v", rep)
	}
}

func TestPreFilter(t *testing.T) {
	// DCL app.
	pkg := "com.example.dcl"
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 4, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "dalvik.system.DexClassLoader").ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	u, err := (apktool.Tool{}).Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	f := PreFilter(u)
	if !f.HasDexDCL || f.HasNativeDCL {
		t.Fatalf("PreFilter = %+v", f)
	}

	// Plain app has neither.
	u2data, err := apk.Build(plainApp(t, "com.example.plain"))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := (apktool.Tool{}).Unpack(u2data)
	if err != nil {
		t.Fatal(err)
	}
	f2 := PreFilter(u2)
	if f2.HasDexDCL || f2.HasNativeDCL {
		t.Fatalf("plain app PreFilter = %+v", f2)
	}
}

func TestDetectorReportHas(t *testing.T) {
	r := Report{Lexical: true, Native: true}
	if !r.Has(TechLexical) || !r.Has(TechNative) || r.Has(TechReflection) ||
		r.Has(TechDEXEncryption) || r.Has(TechAntiDecompile) || r.Has("bogus") {
		t.Fatalf("Report.Has inconsistent: %+v", r)
	}
	if len(AllTechniques) != 5 {
		t.Fatal("AllTechniques must list the 5 Table VI rows")
	}
}
