package corpus

import (
	"bytes"
	"sync"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
)

// TestCompanionsSharedReadOnly provisions two devices from one Store at
// once (run it under -race) and runs a vulnerable Adobe AIR app, which
// loads the shared com.adobe.air libCore.so, on each. Afterwards every
// companion archive the Store holds still equals a fresh apk.Build of its
// APK, and each device's /data/app copy equals those bytes.
func TestCompanionsSharedReadOnly(t *testing.T) {
	st := genStore(t, 0.003)
	var target *StoreApp
	for _, app := range st.Apps {
		if app.Spec.VulnAdobeAir {
			target = app
			break
		}
	}
	if target == nil {
		t.Fatal("no vulnerable Adobe AIR app at this scale")
	}
	data, err := st.BuildAPK(target)
	if err != nil {
		t.Fatal(err)
	}

	devs := make([]*android.Device, 2)
	results := make([]*core.AppResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an := core.NewAnalyzer(core.Options{Seed: 7, Network: st.Network,
				SetupDevice: func(dev *android.Device) error {
					devs[i] = dev
					return st.SetupDevice(dev)
				}})
			results[i], errs[i] = an.AnalyzeAPK(data)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if len(res.NativeEvents()) == 0 {
			t.Fatalf("device %d: the app loaded no native code: %s (%v)", i, res.Status, res.Crash)
		}
	}

	if len(st.companions) != 4 {
		t.Fatalf("%d companions, want 4", len(st.companions))
	}
	for _, c := range st.companions {
		fresh, err := apk.Build(c.apk)
		if err != nil {
			t.Fatal(err)
		}
		pkg := c.apk.Manifest.Package
		if !bytes.Equal(c.archive, fresh) {
			t.Fatalf("%s: the shared archive no longer equals apk.Build of its APK", pkg)
		}
		for i, dev := range devs {
			got, err := dev.Storage.ReadFile(android.AppRoot + pkg + ".apk")
			if err != nil {
				t.Fatalf("device %d: %v", i, err)
			}
			if !bytes.Equal(got, fresh) {
				t.Fatalf("device %d: installed %s differs from its archive", i, pkg)
			}
		}
	}
}

// TestSetupDeviceBuildsNoArchive bounds the allocations of one
// SetupDevice call. Installing the four prebuilt companions costs about
// 40; a single apk.Build of one of them costs more than 45, so the bound
// fails as soon as provisioning builds an archive again.
func TestSetupDeviceBuildsNoArchive(t *testing.T) {
	st := genStore(t, 0.001)
	device := testing.AllocsPerRun(20, func() { android.NewDevice() })
	provisioned := testing.AllocsPerRun(20, func() {
		if err := st.SetupDevice(android.NewDevice()); err != nil {
			t.Fatal(err)
		}
	})
	if setup := provisioned - device; setup > 80 {
		t.Fatalf("SetupDevice allocates %.0f times, want at most 80", setup)
	}
}
