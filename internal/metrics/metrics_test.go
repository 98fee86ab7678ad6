package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("apps", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counters["apps"]; got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	for _, d := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 100 * time.Millisecond,
	} {
		r.Observe("stage.dynamic", d)
	}
	h := r.Snapshot().Hists["stage.dynamic"]
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	if want := 107 * time.Millisecond; time.Duration(h.SumNS) != want {
		t.Fatalf("sum = %s, want %s", time.Duration(h.SumNS), want)
	}
	if h.MinNS != int64(time.Millisecond) || h.MaxNS != int64(100*time.Millisecond) {
		t.Fatalf("min/max = %d/%d", h.MinNS, h.MaxNS)
	}
	if h.Mean() != 107*time.Millisecond/4 {
		t.Fatalf("mean = %s", h.Mean())
	}
	p50, p90, p99 := h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
	if p50 > p90 || p90 > p99 || p99 > time.Duration(h.MaxNS) {
		t.Fatalf("quantiles not monotone: p50=%s p90=%s p99=%s max=%d", p50, p90, p99, h.MaxNS)
	}
	// Nearest rank: the 2nd of 4 observations (2ms) is the median, so
	// p50 is its bucket's bound, 2.048ms.
	if p50 != 2048*time.Microsecond {
		t.Fatalf("p50 = %s, want 2.048ms", p50)
	}
}

func TestTimeHelperRecords(t *testing.T) {
	r := New()
	stop := r.Time("service.job")
	stop()
	if h := r.Snapshot().Hists["service.job"]; h.Count != 1 {
		t.Fatalf("count = %d, want 1", h.Count)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Observe("y", time.Second)
	r.Time("z")()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Hists) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestSnapshotString(t *testing.T) {
	r := New()
	r.Add("status.exercised", 3)
	r.Observe("service.job", 5*time.Millisecond)
	out := r.Snapshot().String()
	for _, want := range []string{"status.exercised", "service.job", "p90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot rendering missing %q:\n%s", want, out)
		}
	}
}

func TestObserveConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe("s", time.Duration(w+1)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h := r.Snapshot().Hists["s"]; h.Count != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count)
	}
}

func TestCounterPointRead(t *testing.T) {
	r := New()
	if got := r.Counter("absent"); got != 0 {
		t.Fatalf("absent counter = %d", got)
	}
	r.Add("scan.cached", 2)
	r.Add("scan.cached", 3)
	if got := r.Counter("scan.cached"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var nilReg *Registry
	if got := nilReg.Counter("x"); got != 0 {
		t.Fatalf("nil registry counter = %d", got)
	}
}

func TestHistSnapshotPointRead(t *testing.T) {
	r := New()
	if got := r.HistSnapshot("absent"); got.Count != 0 {
		t.Fatalf("absent histogram count = %d", got.Count)
	}
	r.Observe("service.job", 2*time.Millisecond)
	r.Observe("service.job", 6*time.Millisecond)
	h := r.HistSnapshot("service.job")
	if h.Count != 2 || time.Duration(h.SumNS) != 8*time.Millisecond {
		t.Fatalf("point read = %+v, want count 2 sum 8ms", h)
	}
	if full := r.Snapshot().Hists["service.job"]; !reflect.DeepEqual(full, h) {
		t.Fatalf("point read %+v differs from snapshot %+v", h, full)
	}
	// The point read is a copy: observing afterwards leaves it alone.
	r.Observe("service.job", time.Millisecond)
	if h.Count != 2 || h.Buckets[11] != 1 {
		t.Fatalf("point read aliases the live histogram: %+v", h)
	}
	var nilReg *Registry
	if got := nilReg.HistSnapshot("x"); got.Count != 0 {
		t.Fatal("nil registry HistSnapshot must be zero")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Add("service.scan.requests", 7)
	r.Add("status.no-dcl", 2)
	r.Observe("service.job", 3*time.Millisecond)
	r.Observe("service.job", 3*time.Millisecond)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE dydroid_service_scan_requests_total counter",
		"dydroid_service_scan_requests_total 7",
		"dydroid_status_no_dcl_total 2",
		"# TYPE dydroid_service_job_seconds histogram",
		`dydroid_service_job_seconds_bucket{le="+Inf"} 2`,
		"dydroid_service_job_seconds_sum 0.006",
		"dydroid_service_job_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 4.096ms bucket holds both observations.
	if !strings.Contains(out, `dydroid_service_job_seconds_bucket{le="0.004096"} 2`) {
		t.Fatalf("cumulative bucket missing:\n%s", out)
	}
	var nilReg *Registry
	nilReg.WritePrometheus(&b) // must not panic
}

func TestGauges(t *testing.T) {
	r := New()
	if got := r.Gauge("queue.len"); got != 0 {
		t.Fatalf("unset gauge = %d, want 0", got)
	}
	r.SetGauge("queue.len", 5)
	r.SetGauge("queue.len", 3)
	r.SetGauge("heap.bytes", 1024)
	if got := r.Gauge("queue.len"); got != 3 {
		t.Fatalf("queue.len = %d, want 3", got)
	}
	snap := r.Snapshot()
	if snap.Gauges["queue.len"] != 3 || snap.Gauges["heap.bytes"] != 1024 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
	if out := snap.String(); !strings.Contains(out, "gauge") || !strings.Contains(out, "queue.len") {
		t.Fatalf("snapshot string missing gauge section:\n%s", out)
	}

	var nilReg *Registry
	nilReg.SetGauge("x", 1)
	if nilReg.Gauge("x") != 0 {
		t.Fatal("nil registry gauge should read 0")
	}
}

func TestGaugesConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.SetGauge("g", v)
				if got := r.Gauge("g"); got < 0 || got >= 8 {
					t.Errorf("gauge read %d, never set", got)
				}
			}
		}(int64(i))
	}
	wg.Wait()
	if got := r.Gauge("g"); got < 0 || got >= 8 {
		t.Fatalf("gauge after concurrent sets = %d, want one of the set values", got)
	}
}

func TestWritePrometheusGauge(t *testing.T) {
	r := New()
	r.SetGauge("trace.store.len", 42)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE dydroid_trace_store_len gauge",
		"dydroid_trace_store_len 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExportedBucketScheme pins the bucket scheme: bucket i covers
// (1µs·2^(i-1), 1µs·2^i], so every duration is at most its bucket's
// bound, above the previous bucket's bound, and a bound belongs to its
// own bucket (the le semantics of the Prometheus exposition).
func TestExportedBucketScheme(t *testing.T) {
	for _, d := range []time.Duration{0, 999, time.Microsecond, time.Microsecond + 1, 2 * time.Microsecond,
		3 * time.Millisecond, 4096 * time.Microsecond, 4096*time.Microsecond + 1, time.Hour} {
		i := bucketOf(d)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%v) = %d out of range", d, i)
		}
		if d > bucketBound(i) && i < numBuckets-1 {
			t.Fatalf("bucketOf(%v) = %d but bound is only %v", d, i, bucketBound(i))
		}
		if i > 0 && d <= bucketBound(i-1) {
			t.Fatalf("bucketOf(%v) = %d but it fits bucket %d", d, i, i-1)
		}
	}
	for i := 0; i < numBuckets; i++ {
		if got := bucketOf(bucketBound(i)); got != i {
			t.Fatalf("bucketOf(bucketBound(%d)) = %d", i, got)
		}
	}
	if bucketBound(0) != time.Microsecond {
		t.Fatalf("bucketBound(0) = %v", bucketBound(0))
	}
}

// TestHistQuantileNearestRank: over random samples, Quantile(q) lands in
// the bucket of the exact nearest-rank order statistic (the
// ceil(q·n)-th smallest sample) for every reported quantile.
func TestHistQuantileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		samples := make([]time.Duration, n)
		var h Hist
		for i := range samples {
			// Log-uniform over ~1µs..1s, with exact bucket bounds mixed in.
			d := time.Duration(math.Exp(rng.Float64() * math.Log(1e9)))
			if rng.Intn(4) == 0 {
				d = bucketBound(rng.Intn(20))
			}
			samples[i] = d
			h.Observe(d)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			exact := samples[NearestRank(int64(n), q)-1]
			if got := h.Quantile(q); bucketOf(got) != bucketOf(exact) {
				t.Fatalf("n=%d q=%v: Quantile = %v (bucket %d), exact nearest-rank = %v (bucket %d)",
					n, q, got, bucketOf(got), exact, bucketOf(exact))
			}
		}
	}
	// The pinned example: p50 of {1ms, 2ms, 4ms} is the 2nd sample, so it
	// reports the 2ms sample's bucket bound (2.048ms), not the 1ms one's.
	var h Hist
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		h.Observe(d)
	}
	if got := h.Quantile(0.5); got != 2048*time.Microsecond {
		t.Fatalf("p50 of {1ms,2ms,4ms} = %v, want 2.048ms", got)
	}
	if got := (&Hist{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v", got)
	}
}

// TestNearestRank pins the nearest-rank definition.
func TestNearestRank(t *testing.T) {
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {1.0, 10},
	}
	for _, c := range cases {
		if got := NearestRank(10, c.q); got != c.want {
			t.Fatalf("NearestRank(10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := NearestRank(0, 0.5); got != 0 {
		t.Fatalf("NearestRank(0) = %d, want 0", got)
	}
}

// TestNearestRankBoundaries pins the integer-ceiling ranks at the counts
// a float-epsilon ceiling is prone to misrank: n where q·n is exactly
// integral, n=1, and large n.
func TestNearestRankBoundaries(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want int64 // == ceil(q·n)
	}{
		// q·n exactly integral: nearest-rank must land on rank q·n, not q·n+1.
		{100, 0.95, 95},
		{100, 0.50, 50},
		{200, 0.99, 198},
		{20, 0.95, 19},
		{4, 0.25, 1},
		{10, 0.10, 1},
		// n=1: every quantile is the single observation.
		{1, 0.50, 1},
		{1, 0.95, 1},
		{1, 0.99, 1},
		// Non-integral q·n rounds up.
		{3, 0.50, 2},   // ceil(1.5)
		{7, 0.29, 3},   // ceil(2.03)
		{10, 0.95, 10}, // ceil(9.5)
		{50, 0.99, 50}, // ceil(49.5)
		// Large n at an exactly-integral boundary.
		{1_000_000, 0.95, 950_000},
		{1_000_000, 0.99, 990_000},
		{9_999_999, 0.50, 5_000_000}, // ceil(4999999.5)
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Fatalf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestWriteHistogramLabels: labelled series put the label before le on
// bucket lines and in braces on _sum/_count, so several series share one
// family.
func TestWriteHistogramLabels(t *testing.T) {
	var h Hist
	h.Observe(3 * time.Millisecond)
	var b strings.Builder
	WriteHistogram(&b, "dydroid_span_seconds", `span="scan"`, &h)
	out := b.String()
	for _, want := range []string{
		`dydroid_span_seconds_bucket{span="scan",le="0.004096"} 1`,
		`dydroid_span_seconds_bucket{span="scan",le="+Inf"} 1`,
		`dydroid_span_seconds_sum{span="scan"} 0.003`,
		`dydroid_span_seconds_count{span="scan"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labelled histogram missing %q:\n%s", want, out)
		}
	}
}
