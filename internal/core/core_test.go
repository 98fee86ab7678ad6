package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
)

// payloadWithLeak builds a loadable dex whose class leaks IMEI via HTTP.
func payloadWithLeak(t *testing.T, class string) []byte {
	t.Helper()
	b := dex.NewBuilder()
	m := b.Class(class, "java.lang.Object").Method("run", dex.ACCPublic, 5, "V")
	m.NewInstance(1, "android.telephony.TelephonyManager").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.TelephonyManager",
			Name: "getDeviceId", Sig: "()Ljava/lang/String;"}, 1).
		MoveResult(2).
		NewInstance(3, "java.net.HttpURLConnection").
		InvokeVirtual(dex.MethodRef{Class: "java.net.HttpURLConnection",
			Name: "write", Sig: "(Ljava/lang/String;)V"}, 3, 2).
		ReturnVoid().Done()
	data, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// adSDKApp builds an app embedding a third-party ad SDK that extracts a
// payload dex from assets into the cache, loads it, then deletes it — the
// AdMob temporary-file pattern the interception queue must survive.
func adSDKApp(t *testing.T, pkg string, payload []byte) []byte {
	t.Helper()
	cachePath := android.InternalDir(pkg) + "cache/ad1.dex"
	assetPath := android.InternalDir(pkg) + "assets/ad_payload.bin"

	b := dex.NewBuilder()
	// Third-party SDK class performs the DCL.
	sdk := b.Class("com.google.ads.AdLoader", "java.lang.Object")
	lm := sdk.Method("loadAd", dex.ACCPublic, 10, "V")
	lm. // copy asset -> cache
		NewInstance(1, "java.io.FileInputStream").
		ConstString(2, assetPath).
		InvokeDirect(dex.MethodRef{Class: "java.io.FileInputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 1, 2).
		NewInstance(3, "java.io.FileOutputStream").
		ConstString(4, cachePath).
		InvokeDirect(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 3, 4).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileInputStream", Name: "readAll",
			Sig: "()[B"}, 1).
		MoveResult(5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
			Sig: "([B)V"}, 3, 5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
			Sig: "()V"}, 3).
		// load it
		ConstString(6, android.InternalDir(pkg)+"cache/odex").
		NewInstance(7, "dalvik.system.DexClassLoader").
		InvokeDirect(dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			7, 4, 6, 0, 0).
		// delete the temporary file (DyDroid must block this)
		NewInstance(8, "java.io.File").
		InvokeDirect(dex.MethodRef{Class: "java.io.File", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 8, 4).
		InvokeVirtual(dex.MethodRef{Class: "java.io.File", Name: "delete", Sig: "()Z"}, 8).
		ReturnVoid().
		Done()
	// App activity calls into the SDK.
	act := b.Class(pkg+".Main", "android.app.Activity")
	am := act.Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
	am.NewInstance(1, "com.google.ads.AdLoader").
		InvokeVirtual(dex.MethodRef{Class: "com.google.ads.AdLoader", Name: "loadAd",
			Sig: "()V"}, 1).
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex:    dexBytes,
		Assets: map[string][]byte{"ad_payload.bin": payload},
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPipelineAdSDKInterception(t *testing.T) {
	payload := payloadWithLeak(t, "com.google.ads.dynamic.AdCore")
	apkBytes := adSDKApp(t, "com.fun.game", payload)
	an := NewAnalyzer(Options{Seed: 1})
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (crash: %v)", res.Status, res.Crash)
	}
	if !res.PreFilter.HasDexDCL {
		t.Fatal("pre-filter missed DCL code")
	}
	evs := res.DexEvents()
	if len(evs) != 1 {
		t.Fatalf("dex events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Entity != EntityThirdParty || ev.CallSite != "com.google.ads.AdLoader" {
		t.Fatalf("entity attribution wrong: %+v", ev)
	}
	if ev.Provenance != ProvenanceLocal {
		t.Fatalf("asset-extracted file classified as %s", ev.Provenance)
	}
	if ev.Intercepted == nil || string(ev.Intercepted) != string(payload) {
		t.Fatal("payload not intercepted despite delete")
	}
	// Privacy analysis over the intercepted payload found the IMEI leak,
	// attributed exclusively to third-party code.
	if res.Privacy == nil || len(res.Privacy.Leaks) != 1 {
		t.Fatalf("privacy = %+v", res.Privacy)
	}
	if !res.PrivacyByEntity[string(android.DTIMEI)] {
		t.Fatal("IMEI leak should be exclusively third-party")
	}
}

// remoteLoaderApp downloads a payload from the URL and loads it (the
// Baidu ads pattern of Table V).
func remoteLoaderApp(t *testing.T, pkg, url string) []byte {
	t.Helper()
	dest := android.InternalDir(pkg) + "cache/plugin.jar"
	b := dex.NewBuilder()
	sdk := b.Class("com.baidu.mobads.RemoteLoader", "java.lang.Object")
	lm := sdk.Method("fetchAndLoad", dex.ACCPublic, 10, "V")
	lm.NewInstance(1, "java.net.URL").
		ConstString(2, url).
		InvokeDirect(dex.MethodRef{Class: "java.net.URL", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 1, 2).
		InvokeVirtual(dex.MethodRef{Class: "java.net.URL", Name: "openConnection",
			Sig: "()Ljava/net/URLConnection;"}, 1).
		MoveResult(3).
		InvokeVirtual(dex.MethodRef{Class: "java.net.HttpURLConnection", Name: "getInputStream",
			Sig: "()Ljava/io/InputStream;"}, 3).
		MoveResult(4).
		IfEqz(4, "offline").
		NewInstance(5, "java.io.FileOutputStream").
		ConstString(6, dest).
		InvokeDirect(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 5, 6).
		InvokeVirtual(dex.MethodRef{Class: "java.io.InputStream", Name: "readAll",
			Sig: "()[B"}, 4).
		MoveResult(7).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
			Sig: "([B)V"}, 5, 7).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
			Sig: "()V"}, 5).
		ConstString(8, android.InternalDir(pkg)+"cache/odex").
		NewInstance(9, "dalvik.system.DexClassLoader").
		InvokeDirect(dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			9, 6, 8, 0, 0).
		Label("offline").
		ReturnVoid().Done()
	act := b.Class(pkg+".Main", "android.app.Activity")
	am := act.Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
	am.NewInstance(1, "com.baidu.mobads.RemoteLoader").
		InvokeVirtual(dex.MethodRef{Class: "com.baidu.mobads.RemoteLoader",
			Name: "fetchAndLoad", Sig: "()V"}, 1).
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Permissions: []apk.UsesPerm{{Name: "android.permission.INTERNET"}},
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPipelineRemoteProvenance(t *testing.T) {
	const url = "http://mobads.baidu.com/ads/pa/plugin.jar"
	net := netsim.NewNetwork()
	net.Serve(url, netsim.Payload{Data: payloadWithLeak(t, "com.baidu.dynamic.Ads")})
	apkBytes := remoteLoaderApp(t, "com.classicalmuseumad.cnad", url)

	an := NewAnalyzer(Options{Seed: 1, Network: net})
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (crash: %v)", res.Status, res.Crash)
	}
	evs := res.DexEvents()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Provenance != ProvenanceRemote || evs[0].SourceURL != url {
		t.Fatalf("provenance = %s url = %s", evs[0].Provenance, evs[0].SourceURL)
	}
	if urls := res.RemoteURLs(); len(urls) != 1 || urls[0] != url {
		t.Fatalf("RemoteURLs = %v", urls)
	}
	if evs[0].Entity != EntityThirdParty {
		t.Fatalf("entity = %s", evs[0].Entity)
	}
}

func TestPipelineRemoteLoaderOfflineLoadsNothing(t *testing.T) {
	// Without a network, the defensive SDK skips loading: no DCL events.
	apkBytes := remoteLoaderApp(t, "com.no.net", "http://mobads.baidu.com/x.jar")
	an := NewAnalyzer(Options{Seed: 1}) // Network nil
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCrash && len(res.DexEvents()) != 0 {
		t.Fatalf("offline loader produced events: %+v", res.DexEvents())
	}
}

// vulnExternalApp writes its bytecode to the SD card then loads it.
func vulnExternalApp(t *testing.T, pkg string, payload []byte) []byte {
	t.Helper()
	sdPath := android.ExternalRoot + "im_sdk/jar/yayavoice.jar"
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	am := act.Method("onCreate", dex.ACCPublic, 10, "V", "Landroid/os/Bundle;")
	am.NewInstance(1, "java.io.FileInputStream").
		ConstString(2, android.InternalDir(pkg)+"assets/sdk.bin").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileInputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 1, 2).
		NewInstance(3, "java.io.FileOutputStream").
		ConstString(4, sdPath).
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
		InvokeDirect(dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			7, 4, 6, 0, 0).
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Permissions: []apk.UsesPerm{{Name: apk.WriteExternalStorage}},
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex:    dexBytes,
		Assets: map[string][]byte{"sdk.bin": payload},
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPipelineVulnerableExternalStorage(t *testing.T) {
	apkBytes := vulnExternalApp(t, "com.longtukorea.snmg", payloadWithLeak(t, "com.voice.Sdk"))
	an := NewAnalyzer(Options{Seed: 1})
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (%v)", res.Status, res.Crash)
	}
	if len(res.Vulns) != 1 || res.Vulns[0].Kind != VulnExternalStorage || res.Vulns[0].Code != KindDex {
		t.Fatalf("vulns = %+v", res.Vulns)
	}
	// Own-code DCL: the activity itself loads.
	own, third := res.Entities(KindDex)
	if !own || third {
		t.Fatalf("entities own=%v third=%v", own, third)
	}
}

// adobeAirLoaderApp loads libCore.so from com.adobe.air's internal dir.
func adobeAirLoaderApp(t *testing.T, pkg string) []byte {
	t.Helper()
	libPath := android.InternalDir("com.adobe.air") + "lib/libCore.so"
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	am := act.Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
	am.ConstString(1, libPath).
		InvokeStatic(dex.MethodRef{Class: "java.lang.System", Name: "load",
			Sig: "(Ljava/lang/String;)V"}, 1).
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

func adobeAirCompanion(t *testing.T) *apk.APK {
	t.Helper()
	nb := nativebin.NewBuilder("libCore.so", "arm")
	nb.Symbol("JNI_OnLoad").MovI(0, 0).Ret()
	libBytes, err := nativebin.Encode(nb.Build())
	if err != nil {
		t.Fatal(err)
	}
	return &apk.APK{
		Manifest:   apk.Manifest{Package: "com.adobe.air", MinSDK: 14},
		NativeLibs: map[string][]byte{"libCore.so": libBytes},
	}
}

func TestPipelineVulnerableOtherAppInternal(t *testing.T) {
	companion := adobeAirCompanion(t)
	an := NewAnalyzer(Options{
		Seed: 1,
		SetupDevice: func(dev *android.Device) error {
			_, err := dev.Packages.Install(companion)
			return err
		},
	})
	res, err := an.AnalyzeAPK(adobeAirLoaderApp(t, "air.com.fire.ane.test.ANETest"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (%v)", res.Status, res.Crash)
	}
	if len(res.Vulns) != 1 || res.Vulns[0].Kind != VulnOtherAppInternal ||
		res.Vulns[0].OwnerPackage != "com.adobe.air" || res.Vulns[0].Code != KindNative {
		t.Fatalf("vulns = %+v", res.Vulns)
	}
}

func TestPipelineSystemLibSkipped(t *testing.T) {
	pkg := "com.sys.user"
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	am := act.Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
	am.ConstString(1, "ssl").
		InvokeStatic(dex.MethodRef{Class: "java.lang.System", Name: "loadLibrary",
			Sig: "(Ljava/lang/String;)V"}, 1).
		ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	apkBytes, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	// Provision the system library on the device.
	nb := nativebin.NewBuilder("libssl.so", "arm")
	nb.Symbol("JNI_OnLoad").MovI(0, 0).Ret()
	libBytes, err := nativebin.Encode(nb.Build())
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(Options{
		Seed: 1,
		SetupDevice: func(dev *android.Device) error {
			return dev.Storage.WriteFile(android.SystemLibRoot+"libssl.so", libBytes, android.SystemOwner, false)
		},
	})
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (%v)", res.Status, res.Crash)
	}
	if len(res.Events) != 0 {
		t.Fatalf("system-lib load not skipped: %+v", res.Events)
	}
	if len(res.Vulns) != 0 {
		t.Fatalf("system-lib load flagged vulnerable: %+v", res.Vulns)
	}
}

func TestPipelineStatusPaths(t *testing.T) {
	t.Run("no dcl", func(t *testing.T) {
		b := dex.NewBuilder()
		b.Class("com.plain.Main", "android.app.Activity").
			Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
		dexBytes, _ := dex.Encode(b.File())
		a := &apk.APK{Manifest: apk.Manifest{Package: "com.plain",
			Application: apk.Application{Activities: []apk.Component{{Name: "com.plain.Main", Main: true}}}},
			Dex: dexBytes}
		data, _ := apk.Build(a)
		res, err := NewAnalyzer(Options{}).AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusNoDCL {
			t.Fatalf("status = %s", res.Status)
		}
	})
	t.Run("rewrite failure", func(t *testing.T) {
		b := dex.NewBuilder()
		m := b.Class("com.ar.Main", "android.app.Activity").
			Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;")
		m.NewInstance(1, "dalvik.system.DexClassLoader").ReturnVoid().Done()
		dexBytes, _ := dex.Encode(b.File())
		a := &apk.APK{Manifest: apk.Manifest{Package: "com.ar",
			Application: apk.Application{Activities: []apk.Component{{Name: "com.ar.Main", Main: true}}}},
			Dex:   dexBytes,
			Extra: map[string][]byte{apk.AntiRepackEntry: {1}}}
		data, _ := apk.Build(a)
		res, err := NewAnalyzer(Options{}).AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusRewriteFailure {
			t.Fatalf("status = %s", res.Status)
		}
	})
	t.Run("no activity", func(t *testing.T) {
		b := dex.NewBuilder()
		m := b.Class("com.na.Svc", "android.app.Service").
			Method("onStart", dex.ACCPublic, 2, "V")
		m.NewInstance(1, "dalvik.system.DexClassLoader").ReturnVoid().Done()
		dexBytes, _ := dex.Encode(b.File())
		a := &apk.APK{Manifest: apk.Manifest{Package: "com.na",
			Application: apk.Application{Services: []apk.Component{{Name: "com.na.Svc"}}}},
			Dex: dexBytes}
		data, _ := apk.Build(a)
		res, err := NewAnalyzer(Options{}).AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusNoActivity {
			t.Fatalf("status = %s", res.Status)
		}
	})
	t.Run("crash", func(t *testing.T) {
		b := dex.NewBuilder()
		m := b.Class("com.cr.Main", "android.app.Activity").
			Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
		m.NewInstance(1, "dalvik.system.DexClassLoader").
			Const(1, 1).
			Const(2, 0).
			InvokeVirtual(dex.MethodRef{Class: "com.cr.Missing", Name: "nope", Sig: "()V"}, 1).
			ReturnVoid().Done()
		dexBytes, _ := dex.Encode(b.File())
		a := &apk.APK{Manifest: apk.Manifest{Package: "com.cr",
			Application: apk.Application{Activities: []apk.Component{{Name: "com.cr.Main", Main: true}}}},
			Dex: dexBytes}
		data, _ := apk.Build(a)
		res, err := NewAnalyzer(Options{}).AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCrash || res.Crash == nil {
			t.Fatalf("status = %s crash = %v", res.Status, res.Crash)
		}
	})
	t.Run("unpack failure", func(t *testing.T) {
		b := dex.NewBuilder()
		b.Class("com.adx.Main", "android.app.Activity").
			Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
		b.Class("com.adx.0decoy", "java.lang.Object")
		dexBytes, _ := dex.Encode(b.File())
		a := &apk.APK{Manifest: apk.Manifest{Package: "com.adx",
			Application: apk.Application{Activities: []apk.Component{{Name: "com.adx.Main", Main: true}}}},
			Dex: dexBytes}
		data, _ := apk.Build(a)
		res, err := NewAnalyzer(Options{}).AnalyzeAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusUnpackFailure || !res.Obfuscation.AntiDecompile {
			t.Fatalf("res = %+v", res)
		}
	})
}

// gatedMalwareApp loads a malicious payload only when the network is up
// and the system time is past the release date.
func gatedMalwareApp(t *testing.T, pkg string, payload []byte, releaseMillis int64) []byte {
	t.Helper()
	cachePath := android.InternalDir(pkg) + "cache/upd.dex"
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	am := act.Method("onCreate", dex.ACCPublic, 12, "V", "Landroid/os/Bundle;")
	am. // time gate
		InvokeStatic(dex.MethodRef{Class: "java.lang.System", Name: "currentTimeMillis",
			Sig: "()J"}).
		MoveResult(1).
		Const(2, releaseMillis).
		IfLt(1, 2, "skip").
		// network gate
		NewInstance(3, "android.net.ConnectivityManager").
		InvokeVirtual(dex.MethodRef{Class: "android.net.ConnectivityManager",
			Name: "getActiveNetworkInfo", Sig: "()Landroid/net/NetworkInfo;"}, 3).
		MoveResult(4).
		IfEqz(4, "skip").
		// copy payload from assets and load
		NewInstance(5, "java.io.FileInputStream").
		ConstString(6, android.InternalDir(pkg)+"assets/upd.bin").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileInputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 5, 6).
		NewInstance(7, "java.io.FileOutputStream").
		ConstString(8, cachePath).
		InvokeDirect(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 7, 8).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileInputStream", Name: "readAll",
			Sig: "()[B"}, 5).
		MoveResult(9).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
			Sig: "([B)V"}, 7, 9).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
			Sig: "()V"}, 7).
		ConstString(10, android.InternalDir(pkg)+"cache/odex").
		NewInstance(11, "dalvik.system.DexClassLoader").
		InvokeDirect(dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			11, 8, 10, 0, 0).
		Label("skip").
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
	return data
}

func TestPipelineMalwareDetectionAndReplay(t *testing.T) {
	// Train the classifier on the malicious payload's family.
	payload := payloadWithLeak(t, "com.scm.Stealer")
	df, err := dex.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	var clf droidnative.Classifier
	if err := clf.Train("Swiss code monkeys", mail.FromDex(df)); err != nil {
		t.Fatal(err)
	}

	release := time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)
	apkBytes := gatedMalwareApp(t, "com.sktelecom.hoppin.mobile", payload, release.UnixMilli())
	an := NewAnalyzer(Options{Seed: 1, Classifier: &clf})

	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (%v)", res.Status, res.Crash)
	}
	if len(res.Malware) != 1 || res.Malware[0].Family != "Swiss code monkeys" {
		t.Fatalf("malware = %+v", res.Malware)
	}

	// Replay: time-before-release must suppress the load; location-off
	// must not.
	ctx := context.Background()
	loaded, err := an.ReplayPreparedContext(ctx, res.Prepared, ConfigTimeBeforeRelease, release)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 {
		t.Fatalf("time-gated load fired under pre-release clock: %v", loaded)
	}
	loaded, err = an.ReplayPreparedContext(ctx, res.Prepared, ConfigAirplaneWiFiOff, release)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 {
		t.Fatalf("network-gated load fired offline: %v", loaded)
	}
	loaded, err = an.ReplayPreparedContext(ctx, res.Prepared, ConfigLocationOff, release)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("location-off wrongly suppressed the load: %v", loaded)
	}
	loaded, err = an.ReplayPreparedContext(ctx, res.Prepared, ConfigAirplaneWiFiOn, release)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("airplane+wifi-on should keep connectivity: %v", loaded)
	}
}

func TestAblationDeleteBlockingOffLosesTempFiles(t *testing.T) {
	// The ad SDK deletes its temporary dex after loading. With the
	// interception queue's blocking disabled (paper ablation), the dump
	// phase finds nothing, so the payload's privacy leaks go unseen.
	payload := payloadWithLeak(t, "com.google.ads.dynamic.AdCore")
	apkBytes := adSDKApp(t, "com.ablation.app", payload)
	an := NewAnalyzer(Options{Seed: 1, DisableDeleteBlocking: true})
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusExercised {
		t.Fatalf("status = %s (%v)", res.Status, res.Crash)
	}
	evs := res.DexEvents()
	if len(evs) != 1 {
		t.Fatalf("DCL event still logged even without blocking, got %d", len(evs))
	}
	if evs[0].Intercepted != nil {
		t.Fatal("interception should fail once the temp file is deleted")
	}
	if res.Privacy != nil {
		t.Fatal("privacy analysis should have nothing to analyze")
	}
}

func TestPipelineStorageExhaustionRetry(t *testing.T) {
	payload := payloadWithLeak(t, "com.google.ads.dynamic.AdCore")
	apkBytes := adSDKApp(t, "com.quota.app", payload)
	// Quota large enough for install+payload but the dydroid log pushes it
	// over; the retry path cleans LogRoot and succeeds.
	an := NewAnalyzer(Options{Seed: 1, StorageQuota: 1 << 20})
	res, err := an.AnalyzeAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == "" {
		t.Fatal("no status")
	}
}

func TestClassifyEntity(t *testing.T) {
	tests := []struct {
		app, site string
		want      Entity
	}{
		{"com.fun.game", "com.fun.game.Main", EntityOwn},
		{"com.fun.game", "com.fun.game", EntityOwn},
		{"com.fun.game", "com.google.ads.AdLoader", EntityThirdParty},
		{"com.fun.game", "com.fun.gamepad.X", EntityThirdParty},
		{"com.fun.game", "", EntityUnknown},
	}
	for _, tc := range tests {
		if got := classifyEntity(tc.app, tc.site); got != tc.want {
			t.Fatalf("classifyEntity(%q, %q) = %s, want %s", tc.app, tc.site, got, tc.want)
		}
	}
}

func TestTrackerProvenanceNegative(t *testing.T) {
	tr := NewTracker()
	if p, _ := tr.Provenance("/nowhere"); p != ProvenanceLocal {
		t.Fatalf("provenance of unknown path = %s", p)
	}
	if tr.FlowCount() != 0 {
		t.Fatal("flow count not zero")
	}
}

func TestLoggerLogWritten(t *testing.T) {
	dev := android.NewDevice()
	l := NewLogger("com.x", dev.Storage)
	l.OnClassLoaderInit("dalvik.system.DexClassLoader", "/data/data/com.x/cache/a.dex", "/odex", nil)
	logData, err := dev.Storage.ReadFile(LogRoot + "com.x.log")
	if err != nil {
		t.Fatalf("log not written: %v", err)
	}
	if !strings.Contains(string(logData), "a.dex") {
		t.Fatalf("log content = %q", logData)
	}
	if l.LogError() != nil {
		t.Fatalf("LogError = %v", l.LogError())
	}
}
