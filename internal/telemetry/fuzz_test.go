package telemetry

import (
	"encoding/json"
	"testing"
)

// FuzzMerge decodes an untrusted snapshot body, the way the coordinator
// decodes a member's /v1/fleet answer and `apkinspect fleet merge` reads
// a file, merges it into a fresh snapshot and renders the report. None of
// it may panic. The seeds are a synthetic fleet's snapshot and the two
// null-entry bodies that once crashed Merge (testdata/fuzz/FuzzMerge).
func FuzzMerge(f *testing.F) {
	seed, err := json.Marshal(ingest(f, 0, 40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := new(Snapshot)
		if err := json.Unmarshal(data, src); err != nil {
			return
		}
		dst := NewSnapshot(0, 0, 0)
		if err := Merge(dst, src); err != nil {
			return
		}
		dst.Report()
	})
}
