package paths

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/workload"
)

// renderAnswers flattens answers into one deterministic byte string — the
// connection, its full analysis, the matched keywords and the scores — so
// two runs can be compared byte for byte.
func renderAnswers(answers []Answer) string {
	var b strings.Builder
	for _, a := range answers {
		fmt.Fprintf(&b, "%s|%s|rdb=%d er=%d class=%s close=%v corr=%v nm=%d loose=%d bridges=%d hubs=%v|kw=%v|content=%.6f\n",
			a.Connection.Key(),
			a.Analysis.FormatWithCardinalities(nil, a.Matches),
			a.Analysis.RDBLength, a.Analysis.ERLength, a.Analysis.Class,
			a.Analysis.Close, a.Analysis.CorroboratedAtInstance,
			a.Analysis.TransitiveNM, a.Analysis.LoosenessDegree, a.Analysis.Bridges,
			a.Analysis.Hubs,
			coveredKeywords(a), a.ContentScore)
	}
	return b.String()
}

// TestAnnotationPipelineDeterminism asserts the acceptance criterion of the
// pipelined annotation stage: with instance corroboration on, the answers are
// byte-identical across Parallelism 1, 2 and GOMAXPROCS, for both the paper
// database and a generated workload.
func TestAnnotationPipelineDeterminism(t *testing.T) {
	run := func(t *testing.T, e *Engine, keywords []string) {
		ctx := context.Background()
		seq, err := e.SearchContext(ctx, keywords, Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("sequential SearchContext: %v", err)
		}
		if len(seq) == 0 {
			t.Fatal("sanity: no sequential answers")
		}
		want := renderAnswers(seq)
		for _, workers := range []int{2, 0} {
			par, err := e.SearchContext(ctx, keywords, Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: workers})
			if err != nil {
				t.Fatalf("workers=%d SearchContext: %v", workers, err)
			}
			if got := renderAnswers(par); got != want {
				t.Errorf("workers=%d: rendered answers differ from sequential run:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Errorf("workers=%d: answer structs differ from sequential run", workers)
			}
		}
	}
	t.Run("paperdb", func(t *testing.T) {
		run(t, newEngine(t, Options{}), paperdb.QuerySmithXML)
	})
	t.Run("workload", func(t *testing.T) {
		db := workload.MustGenerate(workload.ScaledConfig(2, 42))
		e := build(t, db, Options{MaxEdges: 3})
		ran := 0
		for _, q := range workload.Queries(4, 42) {
			probe, err := e.SearchContext(context.Background(), q.Keywords, Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: 1})
			if err != nil || len(probe) == 0 {
				continue // keyword missing or unconnected at this scale
			}
			run(t, e, q.Keywords)
			ran++
		}
		if ran == 0 {
			t.Fatal("sanity: no answerable workload query")
		}
	})
}

// TestStreamPipelinedDiscoveryOrder asserts that the streamed (unsorted)
// sequence with instance corroboration on matches the sequential walk
// exactly — the order-preserving emitter, not just the sorted output.
func TestStreamPipelinedDiscoveryOrder(t *testing.T) {
	e := newEngine(t, Options{})
	collect := func(workers int) []string {
		var keys []string
		err := e.Stream(context.Background(), paperdb.QuerySmithXML,
			Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: workers},
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

// TestStreamPipelinedStopsAndMaxResults checks that yield returning false —
// on the first answer, or on a later one as kws's TopK cap does — tears the
// annotation pipeline down cleanly.
func TestStreamPipelinedStopsAndMaxResults(t *testing.T) {
	e := newEngine(t, Options{})
	opts := Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: 4}
	got := 0
	err := e.Stream(context.Background(), paperdb.QuerySmithXML, opts, func(Answer) bool {
		got++
		return false
	})
	if err != nil || got != 1 {
		t.Fatalf("stop-early stream: yields=%d err=%v", got, err)
	}
	got = 0
	err = e.Stream(context.Background(), paperdb.QuerySmithXML, opts, func(Answer) bool {
		got++
		return got < 2
	})
	if err != nil || got != 2 {
		t.Fatalf("stop-after-two stream: yields=%d err=%v", got, err)
	}
}

// TestStreamPipelinedCancellation checks that cancelling mid-stream, with
// corroboration on and the pipeline active, aborts with ctx.Err() and stops
// delivering answers promptly.
func TestStreamPipelinedCancellation(t *testing.T) {
	e := newEngine(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	err := e.Stream(ctx, paperdb.QuerySmithXML,
		Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: 4},
		func(Answer) bool {
			got++
			cancel()
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream = %v, want context.Canceled", err)
	}
	if got != 1 {
		t.Fatalf("stream delivered %d answers after cancellation, want 1", got)
	}
}

// pairDB builds the smallest database whose parallel enumeration finishes
// deterministically after its last answer: two A tuples matching "alpha",
// two B tuples matching "beta", and exactly the edges a1—b1 and a2—b2, so
// every walk's final operation is yielding its connection (no context checks
// can run between the last answer and the end of the enumeration).
func pairDB(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase("pairs")
	ta := db.MustCreateTable(relation.MustSchema("A",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "NOTE", Type: relation.TypeText},
		},
		[]string{"ID"}))
	tb := db.MustCreateTable(relation.MustSchema("B",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "A_ID", Type: relation.TypeString},
			{Name: "NOTE", Type: relation.TypeText},
		},
		[]string{"ID"},
		relation.ForeignKey{Name: "B_OF_A", Columns: []string{"A_ID"}, RefRelation: "A", RefColumns: []string{"ID"}}))
	for _, row := range []map[string]relation.Value{
		{"ID": relation.String("a1"), "NOTE": relation.Text("alpha")},
		{"ID": relation.String("a2"), "NOTE": relation.Text("alpha")},
	} {
		if _, err := ta.Insert(row); err != nil {
			t.Fatalf("insert A: %v", err)
		}
	}
	for _, row := range []map[string]relation.Value{
		{"ID": relation.String("b1"), "A_ID": relation.String("a1"), "NOTE": relation.Text("beta")},
		{"ID": relation.String("b2"), "A_ID": relation.String("a2"), "NOTE": relation.Text("beta")},
	} {
		if _, err := tb.Insert(row); err != nil {
			t.Fatalf("insert B: %v", err)
		}
	}
	return db
}

// TestWalkConnectionsCompleteSetLateCancel is the regression test for the
// spurious-cancellation bug: the parallel consumer used to return ctx.Err()
// even when every task had been queued and every stream drained cleanly. A
// context cancelled while emitting the final connection — after which no
// walk performs another context check — must yield a nil error, exactly like
// the sequential path.
func TestWalkConnectionsCompleteSetLateCancel(t *testing.T) {
	db := pairDB(t)
	e := build(t, db, Options{MaxEdges: 3})
	keywords := []string{"alpha", "beta"}
	q := e.resolve(keywords)
	if len(q.matchLess["alpha"]) != 2 || len(q.matchLess["beta"]) != 2 {
		t.Fatalf("sanity: resolved match sets alpha=%d beta=%d, want 2 and 2",
			len(q.matchLess["alpha"]), len(q.matchLess["beta"]))
	}
	opts := Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 2}

	// Uncancelled baseline: two connections (a1—b1 and a2—b2).
	want := 0
	if err := e.walkConnections(context.Background(), q, opts, func(core.Connection) error {
		want++
		return nil
	}); err != nil {
		t.Fatalf("uncancelled parallel walk: %v", err)
	}
	if want != 2 {
		t.Fatalf("sanity: parallel walk found %d connections, want 2", want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := 0
	err := e.walkConnections(ctx, q, opts, func(core.Connection) error {
		count++
		if count == want {
			cancel() // the complete set is delivered; cancellation arrives "late"
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walkConnections after late cancel = %v, want nil (complete answer set was delivered)", err)
	}
	if count != want {
		t.Fatalf("late-cancel walk delivered %d connections, want %d", count, want)
	}
}

// TestStreamPipelinedCompleteSetLateCancel checks the same alignment through
// the full pipeline: a context cancelled while yielding the final answer
// must not turn a completely delivered stream into a cancellation error.
func TestStreamPipelinedCompleteSetLateCancel(t *testing.T) {
	db := pairDB(t)
	e := build(t, db, Options{MaxEdges: 3})
	keywords := []string{"alpha", "beta"}
	seq, err := e.SearchContext(context.Background(), keywords, Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 1})
	if err != nil {
		t.Fatalf("sequential SearchContext: %v", err)
	}
	if len(seq) != 2 {
		t.Fatalf("sanity: sequential search found %d answers, want 2", len(seq))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	err = e.Stream(ctx, keywords, Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 2}, func(Answer) bool {
		got++
		if got == len(seq) {
			cancel()
		}
		return true
	})
	if err != nil {
		t.Fatalf("Stream after late cancel = %v, want nil (complete answer set was delivered)", err)
	}
	if got != len(seq) {
		t.Fatalf("late-cancel stream delivered %d answers, want %d", got, len(seq))
	}
}

// TestWalkPairSameTupleHonorsYieldStop is the regression test for the yield
// contract of the degenerate same-tuple pair: the single-tuple connection is
// yielded exactly once and a false return stops the walk with a nil error,
// like every other walk.
func TestWalkPairSameTupleHonorsYieldStop(t *testing.T) {
	e := newEngine(t, Options{})
	target := id("DEPARTMENT", "d1")
	dense, ok := e.graph.Tuples().Lookup(target)
	if !ok {
		t.Fatalf("target %v not interned", target)
	}
	called := 0
	err := e.walkPair(context.Background(), dense, dense, Options{MaxEdges: 3}, func(p core.DensePath) bool {
		called++
		if got := e.graph.Tuples().ID(p.Nodes[0]); got != target {
			t.Errorf("yielded path starts at %v, want %v", got, target)
		}
		return false
	})
	if err != nil {
		t.Fatalf("walkPair: %v", err)
	}
	if called != 1 {
		t.Fatalf("yield ran %d times, want exactly 1 (false must stop the walk)", called)
	}
}
