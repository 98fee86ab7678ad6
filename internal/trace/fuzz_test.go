package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeJSONL decodes untrusted JSONL the way a coordinator reads a
// worker's span tree, then renders it and grafts it under a local
// routing trace. None of that may panic, and a stream DecodeJSONL
// accepts must re-encode, decode again, and re-encode to the same bytes.
func FuzzDecodeJSONL(f *testing.F) {
	tr := New("scan", WithID("aaaaaaaaaaaaaaaa"), WithDigest("ab12"))
	tr.Root.SetParent(ParentRef("bbbbbbbbbbbbbbbb", "cccc"))
	_, c := Start(ContextWith(context.Background(), tr), "analyze")
	c.SetAttr("package", "com.example")
	c.AddEvent("dcl", A("kind", "dex"), A("entity", "own"))
	c.EndErr(errors.New("crashed"))
	tr.Root.End()
	var seed bytes.Buffer
	if err := EncodeJSONL(&seed, tr, New("app")); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"id":"x","root":{"name":"a","children":[{"name":"b"}]}}` + "\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, remote := range traces {
			Render(io.Discard, remote)
			route := New("route")
			route.Root.ID = "cccc"
			Graft(route, remote)
			Render(io.Discard, route)
		}
		var enc bytes.Buffer
		if err := EncodeJSONL(&enc, traces...); err != nil {
			t.Fatalf("decoded traces do not encode: %v", err)
		}
		again, err := DecodeJSONL(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded traces do not decode: %v", err)
		}
		var enc2 bytes.Buffer
		if err := EncodeJSONL(&enc2, again...); err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("encode(decode(encode(traces))) differs from encode(traces)")
		}
	})
}
