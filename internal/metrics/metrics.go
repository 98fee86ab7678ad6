// Package metrics provides the lightweight instrumentation layer of the
// measurement harness: named counters, gauges and duration histograms
// with cheap concurrent updates and point-in-time snapshots, plus Hist,
// the one mergeable duration distribution of the repository. Stage
// latency is not recorded here: every pipeline and review stage is a
// span, and the fleet aggregator folds span durations into Hists. The
// registry keeps status and retry counters and histograms only for
// intervals no span covers (the vetting daemon's service.job). No
// external dependencies.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Registry holds named counters, gauges and histograms. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver so callers
// can thread an optional *Registry without nil checks at each site.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*int64
	gauges   map[string]*int64
	hists    map[string]*histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*int64),
		gauges:   make(map[string]*int64),
		hists:    make(map[string]*histogram),
	}
}

// Add increments the named counter by delta, creating it at zero first.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = new(int64)
		r.counters[name] = c
	}
	r.mu.Unlock()
	atomic.AddInt64(c, delta)
}

// Counter returns the current value of the named counter (zero when it
// was never incremented). It gives services and tests point reads without
// paying for a full Snapshot.
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(c)
}

// SetGauge pins the named gauge to v, creating it first. Unlike counters,
// gauges represent instantaneous levels (queue depth, store occupancy,
// goroutine count) and may move in both directions.
func (r *Registry) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(int64)
		r.gauges[name] = g
	}
	r.mu.Unlock()
	atomic.StoreInt64(g, v)
}

// Gauge returns the current value of the named gauge (zero when it was
// never set).
func (r *Registry) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(g)
}

// HistSnapshot returns a copy of the named histogram (empty when it was
// never observed). It is the histogram counterpart of the Counter
// point-read: callers inspecting one histogram do not pay for a full
// Snapshot.
func (r *Registry) HistSnapshot(name string) *Hist {
	if r == nil {
		return &Hist{}
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	r.mu.Unlock()
	if !ok {
		return &Hist{}
	}
	return h.snapshot()
}

// Observe records one duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	h.observe(d)
}

// Time starts a timer for the named histogram and returns the function
// that stops it and records the elapsed duration.
func (r *Registry) Time(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.Observe(name, time.Since(start)) }
}

// histogram guards one registry Hist for concurrent observers.
type histogram struct {
	mu sync.Mutex
	h  Hist
}

func (h *histogram) observe(d time.Duration) {
	h.mu.Lock()
	h.h.Observe(d)
	h.mu.Unlock()
}

func (h *histogram) snapshot() *Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Clone()
}

// Snapshot is a point-in-time copy of a registry's state.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]*Hist
}

// Snapshot copies out every counter value, gauge level and histogram.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]*Hist),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()
	for name, c := range counters {
		snap.Counters[name] = atomic.LoadInt64(c)
	}
	for name, g := range gauges {
		snap.Gauges[name] = atomic.LoadInt64(g)
	}
	for name, h := range hists {
		snap.Hists[name] = h.snapshot()
	}
	return snap
}

// String renders the snapshot as aligned counter, gauge and histogram
// tables.
func (s Snapshot) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counter\tvalue")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "%s\t%d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		if len(s.Counters) > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "gauge\tvalue")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "%s\t%d\n", name, s.Gauges[name])
		}
	}
	if len(s.Hists) > 0 {
		if len(s.Counters)+len(s.Gauges) > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "histogram\tcount\ttotal\tmean\tp50\tp90\tp99\tmax")
		for _, name := range sortedKeys(s.Hists) {
			h := s.Hists[name]
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
				name, h.Count, round(time.Duration(h.SumNS)), round(h.Mean()),
				round(h.Quantile(0.50)), round(h.Quantile(0.90)), round(h.Quantile(0.99)),
				round(time.Duration(h.MaxNS)))
		}
	}
	w.Flush()
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
