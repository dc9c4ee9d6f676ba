package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	cases := []struct {
		samples []float64
		p, want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2}, // nearest rank never interpolates
		{hundred, 0.50, 50},
		{hundred, 0.95, 95},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.samples), c.p, got, c.want)
		}
	}
}

// A workload reports the best round of a window timing, which two disturbed
// rounds out of three cannot move, and the median of the rounds' set-up
// times and peak memories.
func TestReportedOverRounds(t *testing.T) {
	metric := func(name string) metricDef {
		for _, m := range endToEnd {
			if m.name == name {
				return m
			}
		}
		t.Fatalf("no end-to-end metric %q", name)
		return metricDef{}
	}
	rounds := func(name string, vals ...float64) *outcome {
		o := &outcome{}
		for _, v := range vals {
			o.rounds = append(o.rounds, &round{e2e: map[string]float64{name: v}})
		}
		return o
	}
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"search_p50_ms", []float64{5.0, 5.2, 5.1}, 5.0},
		{"search_p50_ms", []float64{17.0, 5.1, 9.0}, 5.1}, // two disturbed rounds
		{"mutate_p75_ms", []float64{1.5, 1.2, 1.9}, 1.2},
		{"throughput_ops_s", []float64{3300, 4400, 2800}, 4400}, // better higher
		{"setup_s", []float64{1.1, 2.1, 1.2}, 1.2},
		{"mem_peak_mb", []float64{80, 72, 88}, 80},
	}
	for _, c := range cases {
		if got := rounds(c.name, c.vals...).reported(metric(c.name)); got != c.want {
			t.Errorf("%s over rounds %v reports %v, want %v", c.name, c.vals, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}
