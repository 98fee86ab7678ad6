package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/vm"
)

// nativeEntryApp calls one JNI load entry point on libdcl.so from
// onCreate and bundles no library, so only the call can flag the app.
func nativeEntryApp(t *testing.T, pkg string, e vm.EntryPoint, libPath string) *apk.APK {
	t.Helper()
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 4, "V", "Landroid/os/Bundle;")
	ref := dex.MethodRef{Class: e.Class, Name: e.Method, Sig: "(Ljava/lang/String;)V"}
	switch e.Method {
	case "load0":
		m.InvokeStatic(dex.MethodRef{Class: e.Class, Name: "getRuntime", Sig: "()Ljava/lang/Runtime;"}).
			MoveResult(1).
			ConstString(2, libPath).
			InvokeVirtual(ref, 1, 2)
	case "loadLibrary":
		m.ConstString(1, "dcl").InvokeStatic(ref, 1)
	default:
		m.ConstString(1, libPath).InvokeStatic(ref, 1)
	}
	m.ReturnVoid().Done()
	return &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Permissions: []apk.UsesPerm{{Name: apk.WriteExternalStorage}},
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: mustEncodeFile(t, b),
	}
}

// TestEveryEntryPointIsPreFilteredAndLogged drives one minimal app per
// row of vm.EntryPoints through an unforced AnalyzeAPK: the pre-filter
// must send it to dynamic analysis, and the logger must see exactly one
// load labelled with the row's API. A row the pre-filter misses is
// skipped as no-dcl with no event.
func TestEveryEntryPointIsPreFilteredAndLogged(t *testing.T) {
	payload := benignPayload(t)
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	nb := nativebin.NewBuilder("libdcl.so", "arm")
	nb.Symbol("JNI_OnLoad").MovI(0, 0).Ret()
	lib, err := nativebin.Encode(nb.Build())
	if err != nil {
		t.Fatal(err)
	}
	const sdLibPath = android.ExternalRoot + "dcl/libdcl.so"

	for _, e := range vm.EntryPoints() {
		t.Run(e.Class+"."+e.Method, func(t *testing.T) {
			pkg := "com.entry.app"
			var app *apk.APK
			path, body := sdJarPath, payload
			switch e.Kind {
			case vm.CodeDex:
				app = victimApp(t, pkg, e.Class, digest)
			case vm.CodeNative:
				path, body = sdLibPath, lib
				if e.Method == "loadLibrary" {
					path = android.InternalDir(pkg) + "lib/libdcl.so"
				}
				app = nativeEntryApp(t, pkg, e, path)
			default:
				t.Fatalf("row kind %q", e.Kind)
			}
			data, err := apk.Build(app)
			if err != nil {
				t.Fatal(err)
			}
			an := NewAnalyzer(Options{Seed: 1, SetupDevice: func(dev *android.Device) error {
				return dev.Storage.WriteFile(path, body, android.SystemOwner, true)
			}})
			res, err := an.AnalyzeAPK(data)
			if err != nil {
				t.Fatal(err)
			}
			if flagged := map[vm.CodeKind]bool{
				vm.CodeDex:    res.PreFilter.HasDexDCL,
				vm.CodeNative: res.PreFilter.HasNativeDCL,
			}[e.Kind]; !flagged {
				t.Errorf("pre-filter %+v misses the %s row", res.PreFilter, e.Kind)
			}
			if res.Status != StatusExercised {
				t.Errorf("status %s (crash %v)", res.Status, res.Crash)
			}
			if len(res.Events) != 1 || res.Events[0].API != e.API ||
				string(res.Events[0].Kind) != string(e.Kind) || res.Events[0].Path != path {
				t.Fatalf("events %+v, want one %s load via %s", res.Events, e.Kind, e.API)
			}
			if e.Class == vm.SecureLoaderClass && len(res.Vulns) != 0 {
				t.Errorf("pinned load reported as vulnerable: %+v", res.Vulns)
			}
		})
	}
}
