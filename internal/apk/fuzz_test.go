package apk_test

import (
	"bytes"
	"testing"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/corpus"
)

// FuzzParse feeds untrusted bytes to the archive parser, to the manifest
// parser and to SigningDigest's end-record check. None may panic. An archive Parse accepts and Build
// can rebuild must parse back to the same package and bytecode. The seeds
// are a small generated marketplace's archives and their manifests.
func FuzzParse(f *testing.F) {
	st, err := corpus.Generate(corpus.Config{Seed: 2016, Scale: 0.001})
	if err != nil {
		f.Fatal(err)
	}
	for _, app := range st.Apps {
		data, err := st.BuildAPK(app)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		a, err := apk.Parse(data)
		if err != nil {
			f.Fatal(err)
		}
		m, err := a.Manifest.MarshalXMLBytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		apk.ParseManifest(data)
		apk.SigningDigest(data)
		a, err := apk.Parse(data)
		if err != nil {
			return
		}
		rebuilt, err := apk.Build(a)
		if err != nil {
			return // Build validates what Parse does not (component names, ...)
		}
		b, err := apk.Parse(rebuilt)
		if err != nil {
			t.Fatalf("a rebuilt archive does not parse: %v", err)
		}
		if b.Manifest.Package != a.Manifest.Package || !bytes.Equal(b.Dex, a.Dex) {
			t.Fatalf("rebuild changed the app: package %q -> %q", a.Manifest.Package, b.Manifest.Package)
		}
	})
}
