package paths

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/workload"
)

// TestSearchContextParallelDeterminism asserts that fanning the per-source
// enumerations across worker pools of any size yields exactly the answers of
// the sequential walk, in the same order.
func TestSearchContextParallelDeterminism(t *testing.T) {
	db := workload.MustGenerate(workload.ScaledConfig(2, 42))
	e := build(t, db, Options{MaxEdges: 3})
	ctx := context.Background()
	for _, q := range workload.Queries(4, 42) {
		seq, seqErr := e.SearchContext(ctx, q.Keywords, Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 1})
		for _, workers := range []int{0, 2, 8} {
			par, parErr := e.SearchContext(ctx, q.Keywords, Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: workers})
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("query %v workers=%d: error mismatch: %v vs %v", q.Keywords, workers, seqErr, parErr)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("query %v workers=%d: answers differ from sequential run", q.Keywords, workers)
			}
		}
	}
}

// TestStreamParallelPreservesDiscoveryOrder asserts that the streamed
// sequence (before any sorting) is identical for sequential and parallel
// enumeration — the ordered-consumer design, not just the sorted output.
func TestStreamParallelPreservesDiscoveryOrder(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3, RequireAllKeywords: true})
	collect := func(workers int) []string {
		var keys []string
		err := e.Stream(context.Background(), paperdb.QuerySmithXML,
			Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: workers},
			func(a Answer) bool {
				keys = append(keys, a.Connection.Key())
				return true
			})
		if err != nil {
			t.Fatalf("Stream(workers=%d): %v", workers, err)
		}
		return keys
	}
	seq := collect(1)
	if len(seq) == 0 {
		t.Fatal("sanity: no streamed answers")
	}
	for _, workers := range []int{2, 8} {
		if par := collect(workers); !reflect.DeepEqual(par, seq) {
			t.Fatalf("workers=%d: discovery order differs:\nparallel:   %v\nsequential: %v", workers, par, seq)
		}
	}
}

// TestStreamParallelStopsEarly checks that a yield returning false tears the
// worker pool down cleanly and Stream returns nil.
func TestStreamParallelStopsEarly(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3, RequireAllKeywords: true})
	got := 0
	err := e.Stream(context.Background(), paperdb.QuerySmithXML,
		Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 4},
		func(Answer) bool {
			got++
			return false
		})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if got != 1 {
		t.Fatalf("yield ran %d times after returning false", got)
	}
}

// TestStreamParallelCancellation checks that a cancelled context aborts the
// parallel enumeration with ctx.Err().
func TestStreamParallelCancellation(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3, RequireAllKeywords: true})
	ctx, cancel := context.WithCancel(context.Background())
	err := e.Stream(ctx, paperdb.QuerySmithXML,
		Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 4},
		func(Answer) bool {
			cancel()
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream = %v, want context.Canceled", err)
	}
}
