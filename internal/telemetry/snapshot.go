package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
)

// SnapshotVersion stamps every serialized snapshot. Merge refuses
// snapshots from a different version, so a fleet of mixed-binary shards
// fails loudly instead of producing silently skewed aggregates.
const SnapshotVersion = 1

// Snapshot is a point-in-time, serializable copy of a fleet aggregate.
// Snapshots are the merge unit of the fleet observatory: each experiment
// shard writes one (fleet.json), the daemon serves a live one at
// /v1/fleet, and `apkinspect fleet merge` folds any number of them into
// the single-fleet aggregate.
//
// Every field merges exactly — counter maps sum, histograms add
// bucket-for-bucket, and the order-statistic lists (SlowestApps,
// RecentDCL, RecentErrors) select the global top/newest K, which is
// associative and commutative. The one approximation is TopEntities: a
// space-saving sketch whose merge is exact while the number of distinct
// keys stays within its capacity (the common case for SDK entities) and
// a bounded-error estimate beyond it.
type Snapshot struct {
	Version int `json:"version"`
	// Shards counts the per-run snapshots folded into this one (1 for a
	// freshly aggregated run).
	Shards int `json:"shards"`
	// Apps is the number of AppResults ingested.
	Apps int64 `json:"apps"`
	// Errors counts analysis failures observed (ObserveError calls).
	Errors int64 `json:"errors"`

	// Counters holds the paper-style measurement counts under namespaced
	// keys: status.<status>, apps.<predicate>, dcl.kind.<kind>,
	// dcl.api.<API>, dcl.provenance.<p>, dcl.entity.<e>,
	// obfuscation.<technique>, malware.family.<family>, vuln.<kind>,
	// verdict.approved / verdict.rejected.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Stages maps span names to their mergeable latency distributions:
	// every span of every ingested trace lands in its name's histogram.
	Stages map[string]*metrics.Hist `json:"stages,omitempty"`

	// Costs is the per-stage resource attribution table: CPU time and
	// allocation deltas parsed from the cost attrs the profiling meter
	// stamps on pipeline stage spans (cpu.ns / alloc.bytes /
	// alloc.objects). Every field sums, so shard merges reproduce the
	// single-pass table exactly.
	Costs map[string]*StageCost `json:"costs,omitempty"`

	// TopEntities is the space-saving sketch of the most common
	// third-party DCL call sites (the SDK entities of Table IV).
	TopEntities TopK `json:"top_entities"`

	// SlowestApps lists the slowest analyses by root span duration.
	SlowestApps TopApps `json:"slowest_apps"`

	// RecentDCL and RecentErrors are bounded newest-first rings of the
	// last DCL loads and analysis failures seen across the fleet.
	RecentDCL    Ring[RecentDCL]   `json:"recent_dcl"`
	RecentErrors Ring[RecentError] `json:"recent_errors"`

	// Events is the ops event journal slice riding in the snapshot: node
	// ejections, failovers, queue saturation, drains, watchdog hits. The
	// serving daemon fills it from its live journal at snapshot time;
	// merges select the newest K across shards exactly like the rings.
	Events events.Log `json:"events"`

	// SLO is the rolling multi-window error-budget state of the declared
	// objectives (scan availability, analyze latency). Buckets are keyed
	// by absolute minute and merge by summation — exact while the
	// retained histories overlap (the TopEntities-style caveat: a bucket
	// trimmed on one shard but alive on another merges approximately).
	SLO *SLOState `json:"slo,omitempty"`
}

// NewSnapshot returns an empty snapshot with the given sketch capacities
// (zero values pick the defaults used by New).
func NewSnapshot(topK, slowest, ring int) *Snapshot {
	if topK <= 0 {
		topK = DefaultTopK
	}
	if slowest <= 0 {
		slowest = DefaultSlowest
	}
	if ring <= 0 {
		ring = DefaultRing
	}
	return &Snapshot{
		Version:      SnapshotVersion,
		Shards:       1,
		Counters:     make(map[string]int64),
		Stages:       make(map[string]*metrics.Hist),
		Costs:        make(map[string]*StageCost),
		TopEntities:  TopK{K: topK},
		SlowestApps:  TopApps{K: slowest},
		RecentDCL:    Ring[RecentDCL]{K: ring},
		RecentErrors: Ring[RecentError]{K: ring},
		Events:       events.Log{K: events.DefaultCap},
	}
}

// Merge folds src into dst. Both snapshots must carry the current
// SnapshotVersion. dst's sketch capacities grow to the larger of the two,
// so merging never truncates below either input's resolution.
func Merge(dst, src *Snapshot) error {
	if dst == nil || src == nil {
		return fmt.Errorf("telemetry: merge requires two snapshots")
	}
	if dst.Version != SnapshotVersion || src.Version != SnapshotVersion {
		return fmt.Errorf("telemetry: snapshot version mismatch (have %d and %d, want %d)",
			dst.Version, src.Version, SnapshotVersion)
	}
	dst.Shards += src.Shards
	dst.Apps += src.Apps
	dst.Errors += src.Errors
	if dst.Counters == nil {
		dst.Counters = make(map[string]int64, len(src.Counters))
	}
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	if dst.Stages == nil {
		dst.Stages = make(map[string]*metrics.Hist, len(src.Stages))
	}
	// A decoded member body may carry null entries ("stages":{"x":null});
	// they hold no observations and are skipped.
	for name, h := range src.Stages {
		if h == nil {
			continue
		}
		if cur, ok := dst.Stages[name]; ok {
			cur.Merge(h)
		} else {
			dst.Stages[name] = h.Clone()
		}
	}
	if dst.Costs == nil && len(src.Costs) > 0 {
		dst.Costs = make(map[string]*StageCost, len(src.Costs))
	}
	for name, sc := range src.Costs {
		if sc == nil {
			continue
		}
		if cur, ok := dst.Costs[name]; ok {
			cur.Count += sc.Count
			cur.CPUNS += sc.CPUNS
			cur.AllocBytes += sc.AllocBytes
			cur.AllocObjects += sc.AllocObjects
		} else {
			cp := *sc
			dst.Costs[name] = &cp
		}
	}
	dst.TopEntities.Merge(src.TopEntities)
	dst.SlowestApps.Merge(src.SlowestApps)
	dst.RecentDCL.Merge(src.RecentDCL)
	dst.RecentErrors.Merge(src.RecentErrors)
	dst.Events.Merge(src.Events)
	if src.SLO != nil {
		if dst.SLO == nil {
			dst.SLO = src.SLO.clone()
		} else {
			dst.SLO.Merge(src.SLO)
		}
	}
	return nil
}

// WriteFile atomically persists the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteFile and validates its
// version.
func ReadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := new(Snapshot)
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("telemetry: %s: snapshot version %d, want %d", path, s.Version, SnapshotVersion)
	}
	return s, nil
}

// StageCost is the mergeable resource bill of one pipeline stage:
// how many metered spans were observed and the summed CPU-time and
// allocation deltas across them. Deltas are process-scoped, so under
// concurrent workers they are an upper bound per stage; ratios between
// stages remain comparable because every stage is measured identically.
type StageCost struct {
	Count        int64 `json:"count"`
	CPUNS        int64 `json:"cpu_ns"`
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
}

// TopEntry is one tracked key of a TopK sketch.
type TopEntry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	// Err bounds the overcount of Count introduced by space-saving
	// evictions (0 while the sketch has never overflowed — counts are
	// then exact).
	Err int64 `json:"err,omitempty"`
}

// TopK is a space-saving heavy-hitters sketch: at most K keys are
// tracked; inserting a new key into a full sketch evicts the smallest
// tracked key and inherits its count (the classic Metwally et al.
// construction). While distinct keys never exceed K the counts are exact
// and merging shards reproduces the single-pass sketch bit for bit.
type TopK struct {
	K       int        `json:"k"`
	Entries []TopEntry `json:"entries,omitempty"`
}

// Observe counts one occurrence of key.
func (t *TopK) Observe(key string) {
	for i := range t.Entries {
		if t.Entries[i].Key == key {
			t.Entries[i].Count++
			t.normalize()
			return
		}
	}
	if len(t.Entries) < t.K {
		t.Entries = append(t.Entries, TopEntry{Key: key, Count: 1})
		t.normalize()
		return
	}
	// Full: replace the minimum (deterministically the last entry after
	// normalize) and inherit its count as the new key's error bound.
	min := t.Entries[len(t.Entries)-1]
	t.Entries[len(t.Entries)-1] = TopEntry{Key: key, Count: min.Count + 1, Err: min.Count}
	t.normalize()
}

// Merge folds o into t: counts and error bounds sum over the key union,
// then the sketch keeps the max(t.K, o.K) largest keys; the dropped tail
// is discarded (its mass is bounded by the surviving minimum).
func (t *TopK) Merge(o TopK) {
	if o.K > t.K {
		t.K = o.K
	}
	byKey := make(map[string]TopEntry, len(t.Entries)+len(o.Entries))
	for _, e := range t.Entries {
		byKey[e.Key] = e
	}
	for _, e := range o.Entries {
		cur := byKey[e.Key]
		cur.Key = e.Key
		cur.Count += e.Count
		cur.Err += e.Err
		byKey[e.Key] = cur
	}
	t.Entries = t.Entries[:0]
	for _, e := range byKey {
		t.Entries = append(t.Entries, e)
	}
	t.normalize()
	if len(t.Entries) > t.K {
		t.Entries = t.Entries[:t.K]
	}
}

// normalize sorts entries by count desc, then key asc — the canonical
// serialized order, which also keeps eviction deterministic.
func (t *TopK) normalize() {
	sort.Slice(t.Entries, func(i, j int) bool {
		if t.Entries[i].Count != t.Entries[j].Count {
			return t.Entries[i].Count > t.Entries[j].Count
		}
		return t.Entries[i].Key < t.Entries[j].Key
	})
}

// SlowApp is one entry of the slowest-analyses list.
type SlowApp struct {
	Package string `json:"package"`
	Digest  string `json:"digest,omitempty"`
	NS      int64  `json:"ns"`
}

// TopApps keeps the K slowest analyses. Selection by a total order is
// exactly mergeable: the K slowest of a union are always among the
// per-shard K slowest.
type TopApps struct {
	K       int       `json:"k"`
	Entries []SlowApp `json:"entries,omitempty"`
}

// Observe offers one analysis to the list.
func (t *TopApps) Observe(e SlowApp) {
	t.Entries = append(t.Entries, e)
	t.normalize()
}

// Merge folds o into t.
func (t *TopApps) Merge(o TopApps) {
	if o.K > t.K {
		t.K = o.K
	}
	t.Entries = append(t.Entries, o.Entries...)
	t.normalize()
}

func (t *TopApps) normalize() {
	sort.Slice(t.Entries, func(i, j int) bool {
		if t.Entries[i].NS != t.Entries[j].NS {
			return t.Entries[i].NS > t.Entries[j].NS
		}
		if t.Entries[i].Package != t.Entries[j].Package {
			return t.Entries[i].Package < t.Entries[j].Package
		}
		return t.Entries[i].Digest < t.Entries[j].Digest
	})
	if len(t.Entries) > t.K {
		t.Entries = t.Entries[:t.K]
	}
}

// ringItem orders ring entries newest-first with a deterministic total
// order, so ring merges (top-K selection by recency) stay associative.
type ringItem interface {
	ringKey() string
	ringTime() time.Time
}

// RecentDCL is one recent dynamic code loading event.
type RecentDCL struct {
	Time       time.Time `json:"time"`
	Package    string    `json:"package"`
	Kind       string    `json:"kind"`
	API        string    `json:"api"`
	Path       string    `json:"path"`
	Entity     string    `json:"entity"`
	Provenance string    `json:"provenance"`
	SourceURL  string    `json:"source_url,omitempty"`
}

func (e RecentDCL) ringTime() time.Time { return e.Time }
func (e RecentDCL) ringKey() string {
	return e.Package + "\x00" + e.Path + "\x00" + e.API + "\x00" + e.Kind
}

// RecentError is one recent analysis failure.
type RecentError struct {
	Time    time.Time `json:"time"`
	Package string    `json:"package"`
	Err     string    `json:"err"`
}

func (e RecentError) ringTime() time.Time { return e.Time }
func (e RecentError) ringKey() string     { return e.Package + "\x00" + e.Err }

// Ring is a bounded newest-first event list. Like TopApps it is a
// selection by total order (recency, then key), so merges are exact.
type Ring[E ringItem] struct {
	K       int `json:"k"`
	Entries []E `json:"entries,omitempty"`
}

// Observe offers one event to the ring.
func (r *Ring[E]) Observe(e E) {
	r.Entries = append(r.Entries, e)
	r.normalize()
}

// Merge folds o into r.
func (r *Ring[E]) Merge(o Ring[E]) {
	if o.K > r.K {
		r.K = o.K
	}
	r.Entries = append(r.Entries, o.Entries...)
	r.normalize()
}

func (r *Ring[E]) normalize() {
	sort.Slice(r.Entries, func(i, j int) bool {
		ti, tj := r.Entries[i].ringTime(), r.Entries[j].ringTime()
		if !ti.Equal(tj) {
			return ti.After(tj)
		}
		return r.Entries[i].ringKey() < r.Entries[j].ringKey()
	})
	if len(r.Entries) > r.K {
		r.Entries = r.Entries[:r.K]
	}
}
