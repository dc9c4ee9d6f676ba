package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-106.5) > 1e-9 {
		t.Fatalf("Sum = %g, want 106.5", got)
	}
	if got := h.Mean(); math.Abs(got-21.3) > 1e-9 {
		t.Fatalf("Mean = %g, want 21.3", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
	// 100 observations spread evenly into the (0,10] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 10 {
		t.Fatalf("P50 = %g, want within (0,10]", p50)
	}
	// Push the tail into (20,30]: quantile ordering must hold.
	for i := 0; i < 100; i++ {
		h.Observe(25)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p99 < p50 {
		t.Fatalf("P99 %g < P50 %g", p99, p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 20 || p99 > 30 {
		t.Fatalf("P99 = %g, want within (20,30]", p99)
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(1000)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow P99 = %g, want clamp to 2", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(i%4) * 0.001)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Fatalf("Count = %d, want 4000", got)
	}
	want := float64(500 * (0 + 1 + 2 + 3) * 2 * 1)
	if got := h.Sum() * 1000; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Sum*1000 = %g, want %g", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("a").Add(3)
	r.Histogram("h").Observe(0.01)
	snap := r.Snapshot()
	if snap.Counters["a"] != 3 {
		t.Fatalf("snapshot counter = %d, want 3", snap.Counters["a"])
	}
	if snap.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot histogram count = %d, want 1", snap.Histograms["h"].Count)
	}
}

// TestSnapshotJSONStable pins the export schema: the JSON field names of a
// registry snapshot are a stable export schema, so a rename here is a
// format break that must fail a test.
func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(2)
	r.Histogram("lat", 1, 2).Observe(0.5)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64    `json:"count"`
			Sum   *float64 `json:"sum"`
			Mean  *float64 `json:"mean"`
			P50   *float64 `json:"p50"`
			P90   *float64 `json:"p90"`
			P95   *float64 `json:"p95"`
			P99   *float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["ops"] != 2 {
		t.Fatalf("counters.ops = %d, want 2: %s", decoded.Counters["ops"], raw)
	}
	h, ok := decoded.Histograms["lat"]
	if !ok {
		t.Fatalf("histograms.lat missing: %s", raw)
	}
	if h.Count != 1 {
		t.Fatalf("histograms.lat.count = %d, want 1", h.Count)
	}
	for name, p := range map[string]*float64{
		"sum": h.Sum, "mean": h.Mean, "p50": h.P50, "p90": h.P90, "p95": h.P95, "p99": h.P99,
	} {
		if p == nil {
			t.Errorf("histogram snapshot JSON lacks %q: %s", name, raw)
		}
	}
	// A snapshot round-trips through its own type too.
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r.Snapshot()) {
		t.Fatal("snapshot did not round-trip through JSON")
	}
}

// TestHistogramEmptyQuantiles pins the zero-value behavior of every summary
// accessor before the first observation.
func TestHistogramEmptyQuantiles(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean = %g, want 0", got)
	}
	snap := h.Snapshot()
	if snap.Count != 0 || snap.P50 != 0 || snap.P95 != 0 || snap.P99 != 0 {
		t.Errorf("empty snapshot not all-zero: %+v", snap)
	}
}

// TestHistogramSingleObservation pins the interpolation of a lone value:
// every quantile must land inside the bucket that holds it — between the
// previous bound and its own — never outside the histogram's range.
func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	h.Observe(15) // lands in (10, 20]
	for _, q := range []float64{0.25, 0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got < 10 || got > 20 {
			t.Errorf("Quantile(%g) = %g, want within (10,20]", q, got)
		}
	}
	// The interpolation is linear in rank: higher q cannot move earlier.
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Error("quantiles not monotone for a single observation")
	}
	// A value in the first bucket interpolates from a zero lower edge.
	h2 := NewHistogram(10, 20)
	h2.Observe(5)
	if got := h2.Quantile(1); got < 0 || got > 10 {
		t.Errorf("first-bucket Quantile(1) = %g, want within (0,10]", got)
	}
}

// TestHistogramOverflowBucket pins overflow behavior: observations above the
// last bound are counted and summed exactly, and every quantile that lands
// in the overflow bucket clamps to the last bound.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(1e9)
	h.Observe(2e9)
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := h.Sum(); math.Abs(got-3000000000.5) > 1e-3 {
		t.Fatalf("Sum = %g, want 3000000000.5", got)
	}
	// P50 rank falls on the overflow entries (2 of 3 observations).
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("overflow Quantile(%g) = %g, want clamp to last bound 2", q, got)
		}
	}
	// The non-overflow fraction still interpolates normally.
	if got := h.Quantile(0.2); got <= 0 || got > 1 {
		t.Errorf("Quantile(0.2) = %g, want within (0,1]", got)
	}
}
