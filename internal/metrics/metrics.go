// Package metrics is a dependency-free instrumentation kit for the serving
// layer: atomic counters, bucketed histograms with quantile estimation, and
// a registry that snapshots everything for a stats endpoint. It is
// intentionally tiny — no labels, no exposition format — just the pieces
// /v1/stats needs, safe for concurrent use on hot paths.
package metrics

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value safe for concurrent use: unlike Counter it
// can move in both directions and is overwritten, not accumulated. It is the
// shape for sampled process state such as heap size or live object counts.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Memory gauge names fed by SampleMemStats. They are part of the export
// schema (/v1/stats reads them by name).
const (
	GaugeHeapAllocBytes = "mem_heap_alloc_bytes"  // bytes of live heap (runtime.MemStats.HeapAlloc)
	GaugeHeapObjects    = "mem_heap_objects"      // live heap objects (runtime.MemStats.HeapObjects)
	GaugeGCPauseTotalNs = "mem_gc_pause_total_ns" // cumulative stop-the-world pause (runtime.MemStats.PauseTotalNs)
	GaugeNumGC          = "mem_num_gc"            // completed GC cycles (runtime.MemStats.NumGC)
)

// SampleMemStats reads runtime.MemStats once and stores the memory gauges in
// the registry. Call it on demand (a stats request) rather than on a timer:
// ReadMemStats briefly stops the world.
func SampleMemStats(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge(GaugeHeapAllocBytes).Set(int64(ms.HeapAlloc))
	r.Gauge(GaugeHeapObjects).Set(int64(ms.HeapObjects))
	r.Gauge(GaugeGCPauseTotalNs).Set(int64(ms.PauseTotalNs))
	r.Gauge(GaugeNumGC).Set(int64(ms.NumGC))
}

// Histogram accumulates observations into fixed buckets and estimates
// quantiles by linear interpolation within the winning bucket. Observations
// above the last bound land in an overflow bucket whose quantiles clamp to
// that bound. All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultLatencyBounds are upper bucket bounds in seconds suited to
// in-process search latencies: 100µs up to 10s.
func DefaultLatencyBounds() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// NewHistogram creates a histogram with the given ascending upper bounds;
// with no bounds it uses DefaultLatencyBounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation, or zero before the first one.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// interpolating linearly inside the winning bucket. It returns zero before
// the first observation and clamps to the last bound for observations in
// the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // overflow: clamp
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a point-in-time summary of a histogram. Its JSON
// field names are a stable export schema — renaming one breaks whatever
// embeds a marshalled snapshot.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarises the histogram. The quantiles and the count are read
// without a global lock, so under concurrent writes they may differ by a
// few in-flight observations — fine for a stats endpoint.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry is a concurrent name -> instrument map with get-or-create
// semantics, so callers never coordinate instrument construction.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use with the
// given bounds (DefaultLatencyBounds when none are given). Bounds are fixed
// at creation; later calls with different bounds get the existing
// instrument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a whole registry. It marshals to
// stable JSON (instrument names as object keys), so a stats endpoint or a
// report can embed it directly instead of hand-rolling maps.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered instrument by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		cs[name] = c
	}
	gs := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gs[name] = g
	}
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(cs)),
		Histograms: make(map[string]HistogramSnapshot, len(hs)),
	}
	if len(gs) > 0 {
		snap.Gauges = make(map[string]int64, len(gs))
		for name, g := range gs {
			snap.Gauges[name] = g.Value()
		}
	}
	for name, c := range cs {
		snap.Counters[name] = c.Value()
	}
	for name, h := range hs {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}
