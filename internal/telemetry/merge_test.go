package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/trace"
)

// synthApp builds one deterministic pseudo-random analysis result plus
// its trace. The entity pool stays well under the top-K capacity so the
// space-saving sketch is in its exact regime (the documented condition
// for shard merges to reproduce the single-pass aggregate bit for bit).
func synthApp(rng *rand.Rand, i int) (*core.AppResult, *trace.Trace) {
	statuses := []core.Status{
		core.StatusExercised, core.StatusExercised, core.StatusExercised,
		core.StatusNoDCL, core.StatusCrash, core.StatusUnpackFailure,
	}
	entities := []core.Entity{core.EntityOwn, core.EntityThirdParty, core.EntityUnknown}
	provs := []core.Provenance{core.ProvenanceLocal, core.ProvenanceLocal, core.ProvenanceRemote}
	apis := []string{"DexClassLoader", "PathClassLoader", "System.load", "System.loadLibrary"}
	sdks := []string{"com.sdk.ads", "com.sdk.push", "com.sdk.pay", "com.sdk.track", "com.sdk.social"}

	res := &core.AppResult{
		Package: fmt.Sprintf("com.synth.app%04d", i),
		Status:  statuses[rng.Intn(len(statuses))],
	}
	res.PreFilter.HasDexDCL = rng.Intn(2) == 0
	res.PreFilter.HasNativeDCL = rng.Intn(3) == 0
	res.Obfuscation.Lexical = rng.Intn(2) == 0
	res.Obfuscation.DEXEncryption = rng.Intn(4) == 0
	for e := 0; e < rng.Intn(4); e++ {
		kind := core.KindDex
		api := apis[rng.Intn(2)]
		if rng.Intn(3) == 0 {
			kind = core.KindNative
			api = apis[2+rng.Intn(2)]
		}
		ent := entities[rng.Intn(len(entities))]
		call := res.Package + ".Main"
		if ent == core.EntityThirdParty {
			call = sdks[rng.Intn(len(sdks))] + ".Loader"
		}
		prov := provs[rng.Intn(len(provs))]
		ev := &core.DCLEvent{
			Kind: kind, API: api, Path: fmt.Sprintf("/data/app%d/%d.bin", i, e),
			CallSite: call, Entity: ent, Provenance: prov,
		}
		if prov == core.ProvenanceRemote {
			ev.SourceURL = fmt.Sprintf("http://cdn%d.example/p.bin", rng.Intn(3))
		}
		res.Events = append(res.Events, ev)
	}
	if rng.Intn(5) == 0 {
		res.Malware = append(res.Malware, core.MalwareHit{
			Path: "/data/m.dex", Kind: core.KindDex,
			Family: []string{"dowgin", "kuguo", "secapk"}[rng.Intn(3)], Score: 0.8,
		})
	}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	total := time.Duration(1+rng.Intn(5000)) * 100 * time.Microsecond
	return res, appTrace(fmt.Sprintf("%04x", i), base, total, total*3/4)
}

// ingest aggregates the index range [lo, hi) of the synthetic corpus.
// Each range re-derives its apps from a per-app seed, so any partition
// sees exactly the data of the full pass.
func ingest(t testing.TB, lo, hi int) *Snapshot {
	t.Helper()
	a := New(Options{})
	for i := lo; i < hi; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		res, tr := synthApp(rng, i)
		a.ObserveApp(res, tr)
		a.ObserveVerdict(i%3 != 0)
		if i%17 == 0 {
			a.ObserveError(res.Package, errFake("synthetic failure"), tr)
		}
	}
	return a.Snapshot()
}

// mustJSON serialises a snapshot with the shard count zeroed: a merge of
// three shard files legitimately reports Shards=3 where the single-pass
// union reports 1, and the property under test is about the aggregate
// data, not the provenance count.
func mustJSON(t *testing.T, s *Snapshot) string {
	t.Helper()
	c := *s
	c.Shards = 0
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func mergeAll(t *testing.T, parts ...*Snapshot) *Snapshot {
	t.Helper()
	out := NewSnapshot(0, 0, 0)
	out.Shards = 0
	for _, p := range parts {
		if err := Merge(out, p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMergeEqualsUnion is the core fleet-observatory property: splitting
// a corpus into shards, aggregating each shard independently and merging
// the shard snapshots yields exactly the snapshot of aggregating the
// whole corpus in one pass — commutatively and associatively.
func TestMergeEqualsUnion(t *testing.T) {
	const n = 120
	union := ingest(t, 0, n)
	a := ingest(t, 0, 40)
	b := ingest(t, 40, 90)
	c := ingest(t, 90, n)

	want := mustJSON(t, union)
	for name, got := range map[string]*Snapshot{
		"a+b+c":   mergeAll(t, a, b, c),
		"c+b+a":   mergeAll(t, c, b, a),
		"b+a+c":   mergeAll(t, b, a, c),
		"(a+b)+c": mergeAll(t, mergeAll(t, a, b), c),
		"a+(b+c)": mergeAll(t, a, mergeAll(t, b, c)),
	} {
		if g := mustJSON(t, got); g != want {
			t.Errorf("merge order %s diverges from single-pass union\n got: %.400s\nwant: %.400s", name, g, want)
		}
	}
}

// TestMergeCommutative checks pairwise commutativity on overlapping
// shard contents (the daemon + runner case: the same aggregate arriving
// from different shards).
func TestMergeCommutative(t *testing.T) {
	a := ingest(t, 0, 30)
	b := ingest(t, 10, 60) // overlaps a
	ab := mergeAll(t, a, b)
	ba := mergeAll(t, b, a)
	if mustJSON(t, ab) != mustJSON(t, ba) {
		t.Fatal("Merge(a, b) != Merge(b, a)")
	}
}

// TestMergeRejectsVersionSkew ensures mixed-binary fleets fail loudly.
func TestMergeRejectsVersionSkew(t *testing.T) {
	a := ingest(t, 0, 5)
	b := ingest(t, 5, 10)
	b.Version = SnapshotVersion + 1
	if err := Merge(a, b); err == nil {
		t.Fatal("merge accepted a snapshot with a different version")
	}
}

// TestMergeIdentity: merging an empty snapshot changes nothing but the
// shard count.
func TestMergeIdentity(t *testing.T) {
	a := ingest(t, 0, 25)
	empty := NewSnapshot(0, 0, 0)
	empty.Shards = 0
	merged := mergeAll(t, a, empty)
	want := mustJSON(t, a)
	if got := mustJSON(t, merged); got != want {
		t.Fatalf("identity merge diverged:\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestCostTableMergeEqualsSinglePass pins the attribution acceptance
// property specifically: the per-stage cost table rendered from two
// merged shards is byte-identical to the single-pass run's table.
func TestCostTableMergeEqualsSinglePass(t *testing.T) {
	union := ingest(t, 0, 80)
	merged := mergeAll(t, ingest(t, 0, 37), ingest(t, 37, 80))
	if len(union.Costs) == 0 {
		t.Fatal("synthetic corpus aggregated no stage costs")
	}
	sc := union.Costs["analyze"]
	if sc == nil || sc.Count == 0 || sc.CPUNS == 0 || sc.AllocBytes == 0 {
		t.Fatalf("analyze stage cost not aggregated: %+v", sc)
	}
	if got, want := merged.CostReport(), union.CostReport(); got != want {
		t.Fatalf("merged cost table diverges from single pass\n got:\n%s\nwant:\n%s", got, want)
	}
	gotJSON, _ := json.Marshal(merged.Costs)
	wantJSON, _ := json.Marshal(union.Costs)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("merged Costs diverge:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}
