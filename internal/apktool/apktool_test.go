package apktool

import (
	"errors"
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
)

func buildTestAPK(t *testing.T, classNames []string, antiRepack bool, perms ...string) []byte {
	t.Helper()
	b := dex.NewBuilder()
	for _, name := range classNames {
		b.Class(name, "java.lang.Object").
			Method("m", dex.ACCPublic, 1, "V").ReturnVoid().Done()
	}
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	m := apk.Manifest{Package: "com.test", MinSDK: 16,
		Application: apk.Application{Activities: []apk.Component{{Name: "com.test.Main", Main: true}}}}
	for _, p := range perms {
		m.AddPermission(p)
	}
	a := &apk.APK{Manifest: m, Dex: dexBytes, Extra: map[string][]byte{}}
	if antiRepack {
		a.Extra[apk.AntiRepackEntry] = []byte{1}
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestUnpackProducesSmali(t *testing.T) {
	data := buildTestAPK(t, []string{"com.test.Main", "com.test.util.Helper"}, false)
	u, err := (Tool{}).Unpack(data)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(u.Smali()) != 2 {
		t.Fatalf("smali classes = %d, want 2", len(u.Smali()))
	}
	if !strings.Contains(u.Smali()["com.test.Main"], ".class public Lcom/test/Main;") {
		t.Fatalf("smali content wrong:\n%s", u.Smali()["com.test.Main"])
	}
	if u.Dex == nil || len(u.Dex.Classes) != 2 {
		t.Fatal("decoded dex missing")
	}
}

func TestUnpackNoDex(t *testing.T) {
	a := &apk.APK{Manifest: apk.Manifest{Package: "com.nodex"}}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	u, err := (Tool{}).Unpack(data)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if u.Dex != nil || len(u.Smali()) != 0 {
		t.Fatal("expected empty decompilation")
	}
}

func TestAntiDecompilationCrashesBuggyVersion(t *testing.T) {
	data := buildTestAPK(t, []string{"com.test.Main", "com.test.0hostile"}, false)
	if _, err := (Tool{Version: BuggyVersion}).Unpack(data); !errors.Is(err, ErrDecompile) {
		t.Fatalf("buggy version err = %v, want ErrDecompile", err)
	}
	// The fixed version handles it.
	u, err := (Tool{Version: FixedVersion}).Unpack(data)
	if err != nil {
		t.Fatalf("fixed version: %v", err)
	}
	if len(u.Smali()) != 2 {
		t.Fatal("fixed version lost classes")
	}
}

func TestUnpackCorruptDex(t *testing.T) {
	a := &apk.APK{Manifest: apk.Manifest{Package: "com.bad"}, Dex: []byte("garbage")}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Tool{}).Unpack(data); !errors.Is(err, ErrDecompile) {
		t.Fatalf("err = %v, want ErrDecompile", err)
	}
}

// repack is the rewrite path the pipeline takes: parse once, then
// RepackParsed.
func repack(t *testing.T, data []byte) (*apk.APK, error) {
	t.Helper()
	a, err := apk.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return (Tool{}).RepackParsed(a)
}

func TestRepackAddsPermission(t *testing.T) {
	data := buildTestAPK(t, []string{"com.test.Main"}, false)
	a, err := repack(t, data)
	if err != nil {
		t.Fatalf("RepackParsed: %v", err)
	}
	if !a.Manifest.HasPermission(apk.WriteExternalStorage) {
		t.Fatal("permission not injected")
	}
	out, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := apk.SigningDigest(data)
	after, _ := apk.SigningDigest(out)
	if before == after {
		t.Fatal("repacked archive kept its digest")
	}
}

func TestRepackKeepsExistingPermission(t *testing.T) {
	data := buildTestAPK(t, []string{"com.test.Main"}, false, apk.WriteExternalStorage)
	a, err := repack(t, data)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range a.Manifest.Permissions {
		if p.Name == apk.WriteExternalStorage {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("permission duplicated %d times", n)
	}
}

func TestAntiRepackagingBlocksRewrite(t *testing.T) {
	data := buildTestAPK(t, []string{"com.test.Main"}, true)
	if _, err := repack(t, data); !errors.Is(err, ErrRepack) {
		t.Fatalf("err = %v, want ErrRepack", err)
	}
	// Unpacking still works: only rewriting is defeated.
	if _, err := (Tool{}).Unpack(data); err != nil {
		t.Fatalf("Unpack of anti-repack app: %v", err)
	}
}

func TestHostileClassName(t *testing.T) {
	tests := []struct {
		name string
		want bool
	}{
		{"com.test.Main", false},
		{"com.test.0bad", true},
		{"com.test.-x", true},
		{"0bad", true},
		{"ok", false},
	}
	for _, tc := range tests {
		if got := hostileClassName(tc.name); got != tc.want {
			t.Fatalf("hostileClassName(%q) = %v", tc.name, got)
		}
	}
}
