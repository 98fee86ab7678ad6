package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/monkey"
	"github.com/dydroid/dydroid/internal/vm"
)

// These tests demonstrate the Table IX code-injection attack end to end,
// and the Grab'n Run-style mitigation the paper cites (Falsina et al.):
// an attacker app with only the SD-card write permission replaces the
// bytecode a vulnerable app caches on external storage; the vulnerable
// app then executes attacker code with all of its own permissions.

const sdJarPath = android.ExternalRoot + "im_sdk/jar/victim.jar"

// attackerPayload sends SMS when run — observable proof that attacker
// code executed inside the victim.
func attackerPayload(t *testing.T) []byte {
	t.Helper()
	b := dex.NewBuilder()
	m := b.Class("com.voice.Sdk", "java.lang.Object").Method("boot", dex.ACCPublic, 4, "V")
	m.NewInstance(1, "android.telephony.SmsManager").
		ConstString(2, "+premium").
		ConstString(3, "PWNED").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.SmsManager",
			Name: "sendTextMessage", Sig: "(Ljava/lang/String;Ljava/lang/String;)V"}, 1, 2, 3).
		ReturnVoid().Done()
	data, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// benignPayload is what the victim expects to load.
func benignPayload(t *testing.T) []byte {
	t.Helper()
	b := dex.NewBuilder()
	b.Class("com.voice.Sdk", "java.lang.Object").
		Method("boot", dex.ACCPublic, 2, "V").ReturnVoid().Done()
	data, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// victimApp loads the cached SD-card jar (if present) through
// loaderClass and invokes its entry point. vm.SecureLoaderClass pins the
// jar to secureDigest.
func victimApp(t *testing.T, pkg, loaderClass, secureDigest string) *apk.APK {
	t.Helper()
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	m := act.Method("onCreate", dex.ACCPublic, 8, "V", "Landroid/os/Bundle;")
	m.ConstString(1, sdJarPath).
		ConstString(2, android.InternalDir(pkg)+"odex").
		NewInstance(3, loaderClass)
	switch loaderClass {
	case vm.SecureLoaderClass:
		m.ConstString(4, secureDigest).
			InvokeDirect(dex.MethodRef{Class: loaderClass, Name: "<init>",
				Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;Ljava/lang/String;)V"},
				3, 1, 2, 0, 0, 4)
	case string(vm.LoaderPath):
		m.InvokeDirect(dex.MethodRef{Class: loaderClass, Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/ClassLoader;)V"}, 3, 1, 0)
	default:
		m.InvokeDirect(dex.MethodRef{Class: loaderClass, Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			3, 1, 2, 0, 0)
	}
	m.NewInstance(5, "com.voice.Sdk").
		InvokeVirtual(dex.MethodRef{Class: "com.voice.Sdk", Name: "boot", Sig: "()V"}, 5).
		ReturnVoid().Done()
	return &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Permissions: []apk.UsesPerm{{Name: apk.WriteExternalStorage}},
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: mustEncodeFile(t, b),
	}
}

func mustEncodeFile(t *testing.T, b *dex.Builder) []byte {
	t.Helper()
	data, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCodeInjectionAttackSucceedsOnVulnerableLoader(t *testing.T) {
	dev := android.NewDevice() // API 18: external storage world-writable
	// The attacker app — a different package with no special permissions —
	// plants its payload at the victim's cache path.
	if err := dev.Storage.WriteFile(sdJarPath, attackerPayload(t), "com.evil.flashlight", false); err != nil {
		t.Fatalf("attacker write: %v", err)
	}
	victim, err := dev.Packages.Install(victimApp(t, "com.longtukorea.snmg", string(vm.LoaderDex), ""))
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(dev, nil, victim, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := monkey.Exercise(m, 5, 1)
	if res.Outcome != monkey.OutcomeExercised {
		t.Fatalf("victim run: %+v", res)
	}
	// Attacker code ran inside the victim: the SMS event fired under the
	// victim's identity.
	evs := m.Events()
	if len(evs) != 1 || evs[0].Kind != "sms" || evs[0].Data != "PWNED" {
		t.Fatalf("attack not observed: %+v", evs)
	}
}

func TestSecureLoaderDefeatsInjection(t *testing.T) {
	benign := benignPayload(t)
	sum := sha256.Sum256(benign)
	digest := hex.EncodeToString(sum[:])

	t.Run("legitimate payload loads", func(t *testing.T) {
		dev := android.NewDevice()
		if err := dev.Storage.WriteFile(sdJarPath, benign, "com.victim.secure", true); err != nil {
			t.Fatal(err)
		}
		victim, err := dev.Packages.Install(victimApp(t, "com.victim.secure", vm.SecureLoaderClass, digest))
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(dev, nil, victim, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res := monkey.Exercise(m, 5, 1); res.Outcome != monkey.OutcomeExercised {
			t.Fatalf("secure victim crashed on legitimate payload: %+v", res)
		}
	})

	t.Run("tampered payload rejected", func(t *testing.T) {
		dev := android.NewDevice()
		if err := dev.Storage.WriteFile(sdJarPath, attackerPayload(t), "com.evil.flashlight", false); err != nil {
			t.Fatal(err)
		}
		victim, err := dev.Packages.Install(victimApp(t, "com.victim.secure", vm.SecureLoaderClass, digest))
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(dev, nil, victim, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := monkey.Exercise(m, 5, 1)
		if res.Outcome != monkey.OutcomeCrash ||
			!strings.Contains(res.Err.Error(), "SecurityException") {
			t.Fatalf("tampered payload not rejected: %+v", res)
		}
		// And crucially: no attacker behaviour executed.
		if evs := m.Events(); len(evs) != 0 {
			t.Fatalf("attacker code ran despite pinning: %+v", evs)
		}
	})
}

func TestSecureLoaderStillObservedByDyDroid(t *testing.T) {
	// Secure loads are still DCL: the logger must see them.
	benign := benignPayload(t)
	sum := sha256.Sum256(benign)
	dev := android.NewDevice()
	if err := dev.Storage.WriteFile(sdJarPath, benign, "com.victim.watch", true); err != nil {
		t.Fatal(err)
	}
	victim, err := dev.Packages.Install(victimApp(t, "com.victim.watch", vm.SecureLoaderClass, hex.EncodeToString(sum[:])))
	if err != nil {
		t.Fatal(err)
	}
	logger := NewLogger("com.victim.watch", dev.Storage)
	m, err := vm.New(dev, nil, victim, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := monkey.Exercise(m, 5, 1); res.Outcome != monkey.OutcomeExercised {
		t.Fatalf("run: %+v", res)
	}
	logger.FinalizeInterception()
	evs := logger.Events()
	if len(evs) != 1 || evs[0].Path != sdJarPath || evs[0].Intercepted == nil {
		t.Fatalf("secure load not logged/intercepted: %+v", evs)
	}
}
