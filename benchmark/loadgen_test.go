package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakePlan is a plan against a stand-in server: one read body, numbered
// write bodies, no kwsd.
func fakePlan(t *testing.T, s spec, window time.Duration) *plan {
	t.Helper()
	read, err := request("/v1/search", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	p := &plan{s: s, window: window, reads: [][][]byte{{read}}, seq: []uint16{0}}
	for i := 0; i < ringPriming+1024; i++ {
		w, _ := request("/v1/mutate", struct{}{})
		p.writes = append(p.writes, w)
	}
	return p
}

// slowServer answers every request with 200 after delay.
func slowServer(t *testing.T, delay time.Duration) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		_, _ = w.Write([]byte("{}"))
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestOpenLoopSendsEveryDueOp(t *testing.T) {
	p := fakePlan(t, spec{openRate: 200, writeRate: 50}, 500*time.Millisecond)
	w, err := p.measure(slowServer(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 s at 200 reads/s and 50 writes/s: reads 0..99 and writes 0..24 fall
	// due inside the window.
	if len(w.searchMS) != 100 || len(w.mutateMS) != 25 || w.failed != 0 {
		t.Fatalf("got %d reads, %d writes, %d failed; want 100, 25, 0", len(w.searchMS), len(w.mutateMS), w.failed)
	}
	if len(w.lagMS) != 125 {
		t.Fatalf("%d lag samples, want one per op", len(w.lagMS))
	}
}

// An open loop times each op from when it was due, so a server slower than
// the offered rate shows a growing queue; send-to-reply timing would report
// the flat service time and hide it.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	// 100 ops/s offered, two connections serve at most 2/30ms = 66/s.
	p := fakePlan(t, spec{openRate: 100, writeRate: 1}, 300*time.Millisecond)
	w, err := p.measure(slowServer(t, service))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.searchMS) != 30 {
		t.Fatalf("%d of the 30 due ops completed: an open loop must not drop late ops", len(w.searchMS))
	}
	// Op 29 was due at 290 ms and cannot start before the 14 pairs ahead
	// of it finished at 420 ms: at least 160 ms from its due time.
	if worst := percentile(w.searchMS, 1); worst < 100 {
		t.Fatalf("worst latency %.1f ms: queueing behind the slow server was not charged", worst)
	}
	if first := percentile(w.searchMS, 0.01); first > 3*ms(service) {
		t.Fatalf("first op took %.1f ms against a %.0f ms service time", first, ms(service))
	}
	if w.elapsed < 400*time.Millisecond {
		t.Fatalf("window closed after %v with ops still queued", w.elapsed)
	}
}

// Writes are paced by the clock: a faster read path must not raise the
// write rate.
func TestClosedLoopWritesFollowTheSchedule(t *testing.T) {
	for _, delay := range []time.Duration{0, 4 * time.Millisecond} {
		p := fakePlan(t, spec{writeRate: 100}, 300*time.Millisecond)
		w, err := p.measure(slowServer(t, delay))
		if err != nil {
			t.Fatal(err)
		}
		if w.writes < 29 || w.writes > 30 {
			t.Errorf("server delay %v: %d writes in 0.3 s at 100/s, want 30", delay, w.writes)
		}
		if len(w.searchMS) < 10 {
			t.Errorf("server delay %v: only %d reads", delay, len(w.searchMS))
		}
	}
}

// The smoke test boots a real kwsd per workload for a one-second window and
// runs every output check, the crash-recovery check included.
func TestSmokeEveryWorkload(t *testing.T) {
	lay, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	kwsd, err := lay.buildKwsd()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, s := range specs {
		r, err := newRunner(ctx, lay, kwsd, s, 1, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		rd, err := r.runRound(ctx, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, p := range r.problems {
			t.Errorf("%s: %s", s.name, p)
		}
		if rd.win.writes == 0 || len(rd.win.searchMS) == 0 {
			t.Errorf("%s: %d searches and %d writes in the window", s.name, len(rd.win.searchMS), rd.win.writes)
		}
		for _, m := range endToEnd {
			if rd.e2e[m.name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", s.name, m.name, rd.e2e[m.name])
			}
		}
	}
}
