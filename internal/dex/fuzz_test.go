package dex_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/dex"
)

// frame wraps body in a well-formed SDEX header and checksum, so mutated
// bodies reach the decoder instead of stopping at the CRC check.
func frame(body []byte) []byte {
	out := make([]byte, 0, len(body)+13)
	out = append(out, dex.Magic...)
	out = append(out, dex.FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// FuzzDecodeRoundTrip decodes untrusted bytes, both as given and framed
// as an SDEX body. Decode must not panic, and a file it accepts must
// re-encode, decode again, and re-encode to the same bytes.
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
		if len(a.Dex) > 13 {
			f.Add(a.Dex)
			f.Add(a.Dex[9 : len(a.Dex)-4]) // the body alone
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frame(data)} {
			file, err := dex.Decode(in)
			if err != nil {
				continue
			}
			enc, err := dex.Encode(file)
			if err != nil {
				t.Fatalf("decoded file does not encode: %v", err)
			}
			again, err := dex.Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded file does not decode: %v", err)
			}
			enc2, err := dex.Encode(again)
			if err != nil {
				t.Fatalf("second encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("encode(decode(encode(file))) differs from encode(file)")
			}
		}
	})
}
