package apk

import (
	"archive/zip"
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func sampleAPK() *APK {
	return &APK{
		Manifest: Manifest{
			Package:     "com.example.app",
			VersionCode: 3,
			MinSDK:      16,
			TargetSDK:   18,
			Permissions: []UsesPerm{{Name: "android.permission.INTERNET"}},
			Application: Application{
				Label: "Example",
				Activities: []Component{
					{Name: "com.example.app.Main", Main: true,
						Actions: []Action{{Name: "android.intent.action.MAIN"}}},
					{Name: "com.example.app.Settings"},
				},
				Services: []Component{{Name: "com.example.app.Sync", Exported: true}},
			},
		},
		Dex:        []byte("SDEX-placeholder"),
		Assets:     map[string][]byte{"payload.bin": {1, 2, 3}},
		NativeLibs: map[string][]byte{"libfoo.so": {9, 8, 7}},
		Extra:      map[string][]byte{},
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	a := sampleAPK()
	data, err := Build(a)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Manifest.Package != a.Manifest.Package {
		t.Fatalf("package = %q, want %q", got.Manifest.Package, a.Manifest.Package)
	}
	if !bytes.Equal(got.Dex, a.Dex) {
		t.Fatal("dex bytes differ after round-trip")
	}
	if !bytes.Equal(got.Assets["payload.bin"], a.Assets["payload.bin"]) {
		t.Fatal("asset bytes differ after round-trip")
	}
	if !bytes.Equal(got.NativeLibs["libfoo.so"], a.NativeLibs["libfoo.so"]) {
		t.Fatal("native lib bytes differ after round-trip")
	}
	if len(got.Manifest.Application.Activities) != 2 ||
		got.Manifest.Application.Activities[0].Name != "com.example.app.Main" {
		t.Fatalf("activities not preserved: %+v", got.Manifest.Application.Activities)
	}
	if !got.Manifest.HasPermission("android.permission.INTERNET") {
		t.Fatal("permission lost in round-trip")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := sampleAPK()
	d1, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("Build is not deterministic")
	}
}

func TestSigningDigestCoversEveryEntry(t *testing.T) {
	// A stored META-INF/MANIFEST.MF is an ordinary entry: it round-trips
	// verbatim, and keeping it while swapping classes.dex must still move
	// the identity, or a tampered resubmission would be served the
	// original app's verdict.
	a := sampleAPK()
	a.Extra["META-INF/MANIFEST.MF"] = []byte("Manifest-Version: 1.0\n")
	benign, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(benign)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed.Extra["META-INF/MANIFEST.MF"], a.Extra["META-INF/MANIFEST.MF"]) {
		t.Fatal("stored META-INF/MANIFEST.MF lost in round-trip")
	}
	parsed.Dex = []byte("SDEX-malicious")
	tampered, err := Build(parsed)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := SigningDigest(benign)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SigningDigest(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("swapping classes.dex kept the digest")
	}
}

func TestParseDeclaredSizeBuysNothing(t *testing.T) {
	// A tiny archive whose stored entry declares 60 MiB must fail without
	// allocating the declared size.
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.CreateRaw(&zip.FileHeader{
		Name: ManifestEntry, Method: zip.Store,
		CompressedSize64: 60 << 20, UncompressedSize64: 60 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("<manifest/>")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Parse(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("Parse accepted a %d-byte archive declaring 60 MiB", len(data))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Parse of a %d-byte archive allocated %d bytes", len(data), alloc)
	}
}

func TestParseCompressedEntryLargerThanArchive(t *testing.T) {
	// A deflated entry may expand past its archive's size; it still reads
	// in full.
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.Create(ManifestEntry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(`<manifest package="com.big"/>`)); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0}, 1<<16)
	if w, err = zw.Create(AssetsPrefix + "zeros"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(payload) {
		t.Fatalf("archive of %d bytes does not compress the payload", buf.Len())
	}
	a, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Assets["zeros"], payload) {
		t.Fatalf("asset read %d bytes, want %d", len(a.Assets["zeros"]), len(payload))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not a zip")); err == nil {
		t.Fatal("Parse accepted garbage")
	}
}

func TestParseRequiresManifest(t *testing.T) {
	var buf bytes.Buffer
	zw := newZipWith(&buf, map[string][]byte{"classes.dex": {1}})
	_ = zw
	if _, err := Parse(buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("Parse without manifest: err = %v", err)
	}
}

func TestManifestHelpers(t *testing.T) {
	m := sampleAPK().Manifest
	if got := m.LaunchActivity(); got != "com.example.app.Main" {
		t.Fatalf("LaunchActivity = %q", got)
	}
	if !m.AddPermission(WriteExternalStorage) {
		t.Fatal("AddPermission reported no change")
	}
	if m.AddPermission(WriteExternalStorage) {
		t.Fatal("AddPermission added duplicate")
	}
	comps := m.Components()
	if len(comps) != 3 {
		t.Fatalf("Components() returned %d, want 3", len(comps))
	}
	if comps[2].Kind != KindService {
		t.Fatalf("component kind = %q, want service", comps[2].Kind)
	}
}

func TestLaunchActivityFallbacks(t *testing.T) {
	m := Manifest{Package: "a.b", Application: Application{
		Activities: []Component{{Name: "a.b.First"}, {Name: "a.b.Second"}},
	}}
	if got := m.LaunchActivity(); got != "a.b.First" {
		t.Fatalf("LaunchActivity fallback = %q", got)
	}
	m.Application.Activities = nil
	if got := m.LaunchActivity(); got != "" {
		t.Fatalf("LaunchActivity with no activities = %q", got)
	}
}

func TestManifestValidate(t *testing.T) {
	tests := []struct {
		name string
		m    Manifest
		ok   bool
	}{
		{"valid", Manifest{Package: "a.b"}, true},
		{"empty package", Manifest{}, false},
		{"space in package", Manifest{Package: "a b"}, false},
		{"empty component", Manifest{Package: "a.b", Application: Application{
			Activities: []Component{{}}}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.m.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, ok = %v", err, tc.ok)
			}
		})
	}
}

func TestHasAntiRepack(t *testing.T) {
	a := sampleAPK()
	if a.HasAntiRepack() {
		t.Fatal("fresh app reports anti-repack")
	}
	a.Extra[AntiRepackEntry] = []byte{1}
	if !a.HasAntiRepack() {
		t.Fatal("marker not detected")
	}
	data, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasAntiRepack() {
		t.Fatal("marker lost in round-trip")
	}
}

func TestClone(t *testing.T) {
	a := sampleAPK()
	cp := a.Clone()
	cp.Dex[0] = 'X'
	cp.Assets["payload.bin"][0] = 99
	cp.Manifest.AddPermission("p.q")
	if a.Dex[0] == 'X' || a.Assets["payload.bin"][0] == 99 {
		t.Fatal("Clone shares byte slices")
	}
	if a.Manifest.HasPermission("p.q") {
		t.Fatal("Clone shares permission slice")
	}
}

func TestPropertyBuildParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			a := &APK{
				Manifest: Manifest{
					Package: "p" + randWord(r) + "." + randWord(r),
					MinSDK:  10 + r.Intn(15),
				},
				Assets:     map[string][]byte{},
				NativeLibs: map[string][]byte{},
				Extra:      map[string][]byte{},
			}
			if r.Intn(2) == 0 {
				a.Dex = randBytes(r, 1+r.Intn(200))
			}
			for i := 0; i < r.Intn(4); i++ {
				a.Assets[randWord(r)+".bin"] = randBytes(r, r.Intn(100))
			}
			for i := 0; i < r.Intn(3); i++ {
				a.NativeLibs["lib"+randWord(r)+".so"] = randBytes(r, r.Intn(100))
			}
			for i := 0; i < r.Intn(3); i++ {
				a.Manifest.Application.Activities = append(a.Manifest.Application.Activities,
					Component{Name: a.Manifest.Package + "." + randWord(r)})
			}
			vals[0] = reflect.ValueOf(a)
		},
	}
	prop := func(a *APK) bool {
		data, err := Build(a)
		if err != nil {
			return false
		}
		got, err := Parse(data)
		if err != nil {
			return false
		}
		if got.Manifest.Package != a.Manifest.Package ||
			!bytes.Equal(got.Dex, a.Dex) ||
			len(got.Assets) != len(a.Assets) ||
			len(got.NativeLibs) != len(a.NativeLibs) {
			return false
		}
		for k, v := range a.Assets {
			if !bytes.Equal(got.Assets[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func randWord(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// newZipWith writes a minimal zip for negative tests.
func newZipWith(buf *bytes.Buffer, entries map[string][]byte) error {
	zw := zip.NewWriter(buf)
	for name, data := range entries {
		w, err := zw.Create(name)
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return zw.Close()
}

func TestSigningDigest(t *testing.T) {
	a := sampleAPK()
	data, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := SigningDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 64 || strings.ToLower(d1) != d1 {
		t.Fatalf("digest %q is not lowercase hex sha256", d1)
	}
	// Identical contents → identical digest.
	again, err := Build(sampleAPK())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SigningDigest(again)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not deterministic: %s vs %s", d1, d2)
	}
	// Any content change moves the digest.
	b := sampleAPK()
	b.Assets["payload.bin"] = []byte{4, 5, 6}
	changed, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := SigningDigest(changed)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest unchanged after content change")
	}
}

func TestSigningDigestDoesNotReadDirectory(t *testing.T) {
	// A small body with a huge central directory (zip64: more than 65,535
	// entries) must digest without materializing the directory.
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for i := 0; i < 200_000; i++ {
		if _, err := zw.CreateHeader(&zip.FileHeader{Name: "e" + strconv.Itoa(i), Method: zip.Store}); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := SigningDigest(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("digesting a %d-byte archive allocated %d bytes", len(data), alloc)
	}
	// Bodies whose end record lies about the archive are refused.
	for name, bad := range map[string][]byte{
		"trailing bytes":      append(append([]byte(nil), data...), 0),
		"truncated directory": data[len(data)/2:],
	} {
		if _, err := SigningDigest(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSigningDigestUnsignedFallback(t *testing.T) {
	// Any zip archive gets an identity, whatever entries it holds; a body
	// that is not an archive gets none.
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.Create(ManifestEntry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("<manifest/>")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := SigningDigest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 64 {
		t.Fatalf("digest %q", d)
	}
	if _, err := SigningDigest([]byte("not a zip")); err == nil {
		t.Fatal("garbage accepted")
	}
}
