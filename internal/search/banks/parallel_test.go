package banks

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestSearchContextParallelDeterminism asserts that running the per-keyword
// expansions across worker pools of any size returns exactly the trees of
// the sequential path, in the same order.
func TestSearchContextParallelDeterminism(t *testing.T) {
	db := workload.MustGenerate(workload.ScaledConfig(2, 42))
	e := build(t, db, Options{MaxDepth: 3, MaxResults: 20})
	ctx := context.Background()
	for _, q := range workload.Queries(4, 42) {
		seq, seqErr := e.SearchContext(ctx, q.Keywords, Options{MaxDepth: 3, MaxResults: 20, Parallelism: 1})
		for _, workers := range []int{0, 2, 8} {
			par, parErr := e.SearchContext(ctx, q.Keywords, Options{MaxDepth: 3, MaxResults: 20, Parallelism: workers})
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("query %v workers=%d: error mismatch: %v vs %v", q.Keywords, workers, seqErr, parErr)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("query %v workers=%d: trees differ from sequential run", q.Keywords, workers)
			}
		}
	}
}

// TestEarlyStopMatchesExhaustiveSearch pins the MaxResults early-stop: the
// truncated search must return exactly the prefix the exhaustive search
// would keep, for several cut sizes.
func TestEarlyStopMatchesExhaustiveSearch(t *testing.T) {
	db := workload.MustGenerate(workload.ScaledConfig(2, 42))
	e := build(t, db, Options{})
	ctx := context.Background()
	for _, q := range workload.Queries(4, 42) {
		exhaustive, err := e.SearchContext(ctx, q.Keywords, Options{MaxDepth: 3, MaxResults: 1 << 20})
		if err != nil {
			continue // some generated queries may have no common root
		}
		for _, max := range []int{1, 3, 10} {
			got, err := e.SearchContext(ctx, q.Keywords, Options{MaxDepth: 3, MaxResults: max})
			if err != nil {
				t.Fatalf("query %v max=%d: %v", q.Keywords, max, err)
			}
			want := exhaustive
			if len(want) > max {
				want = want[:max]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %v max=%d: early-stopped results diverge from exhaustive prefix", q.Keywords, max)
			}
		}
	}
}
