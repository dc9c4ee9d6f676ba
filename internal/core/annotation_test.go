package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/relation"
)

// TestHubStatsComputesEachCountOnce is the regression test for the doubled
// hub-statistics work: LeftCount, RightCount and AssociatedPairs used to
// recompute the same instance-level counts, costing four relatedCount calls
// per hub instead of two on the annotation hot path.
func TestHubStatsComputesEachCountOnce(t *testing.T) {
	f := newFixture(t)
	calls := 0
	// The observer is construction-time instrumentation: the analyzer stays
	// immutable once built, as its concurrency contract requires.
	analyzer, err := Derive(f.db, withCountObserver(func(relation.TupleID, string) { calls++ }))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	conn := paperConnections(t, f.graph)[6] // p2 - d2 - e2: one general-entity hub at d2
	an, err := analyzer.Analyze(conn)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Hubs) != 1 {
		t.Fatalf("Hubs = %d, want 1 (the general entity d2)", len(an.Hubs))
	}
	if want := 2 * len(an.Hubs); calls != want {
		t.Errorf("relatedCount ran %d times for %d hub(s), want %d (each side counted once)", calls, len(an.Hubs), want)
	}
	hub := an.Hubs[0]
	if hub.AssociatedPairs != hub.LeftCount*hub.RightCount {
		t.Errorf("AssociatedPairs = %d, want LeftCount*RightCount = %d", hub.AssociatedPairs, hub.LeftCount*hub.RightCount)
	}
	if hub.LeftCount == 0 || hub.RightCount == 0 {
		t.Errorf("hub counts = (%d, %d), want both non-zero for d2", hub.LeftCount, hub.RightCount)
	}
}

// TestAnalyzerConcurrentInstanceAnalysis exercises the documented contract
// that one Analyzer serves concurrent AnalyzeWithInstanceContext calls — the
// annotation pipeline analyses many answers at once — and that concurrent
// results match the sequential ones. Run under -race, this also proves the
// analyzer touches no shared mutable state.
func TestAnalyzerConcurrentInstanceAnalysis(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)[1:]
	ctx := context.Background()
	want := make([]Analysis, len(conns))
	for i, c := range conns {
		an, err := f.analyzer.AnalyzeWithInstanceContext(ctx, c, f.graph)
		if err != nil {
			t.Fatalf("sequential AnalyzeWithInstanceContext(%d): %v", i+1, err)
		}
		want[i] = an
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(conns))
	for r := 0; r < rounds; r++ {
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c Connection) {
				defer wg.Done()
				an, err := f.analyzer.AnalyzeWithInstanceContext(ctx, c, f.graph)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(an, want[i]) {
					errs <- errors.New("concurrent analysis differs from sequential result")
				}
			}(i, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAnalyzeAllContextCancellation is the regression test for dropped
// cancellation in instance corroboration: a cancelled caller must not pay for
// the witness walk of any connection that needs one. Close connections never
// walk, so they still analyse.
func TestAnalyzeAllContextCancellation(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, c := range paperConnections(t, f.graph)[1:] {
		schema, err := f.analyzer.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.analyzer.AnalyzeWithInstanceContext(ctx, c, f.graph)
		if schema.Close && err != nil {
			t.Errorf("connection %d is close and needs no walk, got %v", i+1, err)
		}
		if !schema.Close && !errors.Is(err, context.Canceled) {
			t.Errorf("connection %d: cancelled corroboration = %v, want context.Canceled", i+1, err)
		}
	}
}
