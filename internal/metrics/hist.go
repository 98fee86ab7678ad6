package metrics

import (
	"math/bits"
	"time"
)

// numBuckets is the histogram resolution: bucket 0 holds durations up to
// 1µs and bucket i > 0 covers (1µs·2^(i-1), 1µs·2^i], so the top bucket
// reaches past half an hour (and absorbs anything longer).
const numBuckets = 32

// bucketOf returns the index of the exponential bucket holding d: the
// smallest i with d <= bucketBound(i), capped at the top bucket.
func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// ceil(log2(ceil(d/µs))), with ceil(d/µs)-1 == (d-1)/µs for d > 0.
	b := bits.Len64(uint64((d - 1) / time.Microsecond))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// bucketBound is the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// quantileScale expresses quantiles as parts-per-million so the
// nearest-rank computation stays in integer arithmetic.
const quantileScale = 1_000_000

// NearestRank is the 1-based nearest-rank position of quantile q among n
// ordered observations: ceil(q·n), clamped to [1, n], computed with
// integer ceiling math so boundary counts (q·n exactly integral) rank
// exactly instead of through a float-epsilon ceiling. It returns 0 when
// n is 0.
func NearestRank(n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	ppm := int64(q*quantileScale + 0.5) // exact for quantiles with <= 6 decimals
	rank := (n*ppm + quantileScale - 1) / quantileScale
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// Hist is a mergeable duration distribution over exponential buckets
// (bucket i covers (1µs·2^(i-1), 1µs·2^i]). It is the one histogram type
// of the repository: the registry's named histograms, the fleet
// snapshot's per-span latency and the Prometheus exposition all use it.
// Trailing empty buckets are trimmed in the serialized form; Merge and
// Observe handle the ragged lengths. The zero value is empty and ready;
// a Hist is not safe for concurrent use on its own.
type Hist struct {
	Buckets []int64 `json:"buckets,omitempty"`
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MinNS   int64   `json:"min_ns"`
	MaxNS   int64   `json:"max_ns"`
}

// Observe folds one duration into the distribution; negative durations
// count as zero.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketOf(d)
	for len(h.Buckets) <= i {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[i]++
	h.Count++
	h.SumNS += int64(d)
	if h.Count == 1 || int64(d) < h.MinNS {
		h.MinNS = int64(d)
	}
	if int64(d) > h.MaxNS {
		h.MaxNS = int64(d)
	}
}

// Merge adds o's observations into h, bucket for bucket.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.Count == 0 {
		return
	}
	for len(h.Buckets) < len(o.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
	if h.Count == 0 || o.MinNS < h.MinNS {
		h.MinNS = o.MinNS
	}
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
	h.Count += o.Count
	h.SumNS += o.SumNS
}

// Clone returns a deep copy that shares no bucket storage with h.
func (h *Hist) Clone() *Hist {
	c := *h
	c.Buckets = append([]int64(nil), h.Buckets...)
	return &c
}

// Mean is the average observed duration.
func (h *Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// Quantile estimates the nearest-rank q-quantile: the upper bound of the
// bucket holding the ceil(q·Count)-th smallest observation, clamped to
// the observed extremes. The estimate always lies in the same bucket as
// the exact order statistic.
func (h *Hist) Quantile(q float64) time.Duration {
	rank := NearestRank(h.Count, q)
	if rank == 0 {
		return 0
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			b := bucketBound(i)
			if int64(b) > h.MaxNS {
				b = time.Duration(h.MaxNS)
			}
			if int64(b) < h.MinNS {
				b = time.Duration(h.MinNS)
			}
			return b
		}
	}
	return time.Duration(h.MaxNS)
}
