package events

import (
	"bytes"
	"testing"
)

// FuzzDecodeJSONL feeds untrusted bytes to the journal decoder, the way
// the coordinator decodes a member's /v1/events body, and folds the
// result into a log as the coordinator does. Neither may panic, and a
// decoded stream must encode and decode back to the same events.
func FuzzDecodeJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeJSONL(&seed, []Event{synthEvent(0), synthEvent(1), synthEvent(2)}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"time":"2026-08-01T00:00:00Z","type":"node-ejected"}` + "\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		merged := Log{K: DefaultCap}
		merged.Merge(Log{K: DefaultCap, Entries: evs})
		var enc bytes.Buffer
		if err := EncodeJSONL(&enc, evs); err != nil {
			t.Fatalf("decoded events do not encode: %v", err)
		}
		again, err := DecodeJSONL(&enc)
		if err != nil {
			t.Fatalf("re-encoded events do not decode: %v", err)
		}
		if len(again) != len(evs) {
			t.Fatalf("round trip kept %d of %d events", len(again), len(evs))
		}
		for i := range evs {
			if !again[i].Time.Equal(evs[i].Time) || again[i].key() != evs[i].key() {
				t.Fatalf("event %d changed in the round trip: %+v -> %+v", i, evs[i], again[i])
			}
		}
	})
}
