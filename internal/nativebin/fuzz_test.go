package nativebin_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/nativebin"
)

// frame wraps body in a well-formed SELF header (magic, format version 1,
// body length) and trailing CRC32, so mutated bodies reach the body
// reader instead of stopping at the framing checks.
func frame(body []byte) []byte {
	out := make([]byte, 0, len(body)+13)
	out = append(out, nativebin.MagicSELF...)
	out = append(out, 1)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// FuzzDecodeRoundTrip decodes untrusted bytes, both as given and framed
// as a SELF body: every submitted lib/*.so reaches Decode. Decode must not
// panic, and a library it accepts must re-encode, decode again, and
// re-encode to the same bytes. The seeds are the native libraries of a
// small generated marketplace, packer shells included.
func FuzzDecodeRoundTrip(f *testing.F) {
	st, err := corpus.Generate(corpus.Config{Seed: 2016, Scale: 0.001})
	if err != nil {
		f.Fatal(err)
	}
	for _, app := range st.Apps {
		data, err := st.BuildAPK(app)
		if err != nil {
			f.Fatal(err)
		}
		a, err := apk.Parse(data)
		if err != nil {
			f.Fatal(err)
		}
		for _, lib := range a.NativeLibs {
			if len(lib) > 13 {
				f.Add(lib)
				f.Add(lib[9 : len(lib)-4]) // the body alone
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frame(data)} {
			lib, err := nativebin.Decode(in)
			if err != nil {
				continue
			}
			enc, err := nativebin.Encode(lib)
			if err != nil {
				t.Fatalf("decoded library does not encode: %v", err)
			}
			again, err := nativebin.Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded library does not decode: %v", err)
			}
			enc2, err := nativebin.Encode(again)
			if err != nil {
				t.Fatalf("second encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("encode(decode(encode(lib))) differs from encode(lib)")
			}
		}
	})
}
