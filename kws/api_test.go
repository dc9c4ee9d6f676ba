package kws

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ranking"
)

// allEngineKinds are the built-in strategies every cross-engine test covers.
var allEngineKinds = []EngineKind{EnginePaths, EngineMTJNT, EngineBANKS}

// TestConcurrentMixedQueries drives one shared engine from many goroutines,
// each with its own engine kind, ranking, TopK and labeler, and checks every
// result set against the sequential baseline. Run with -race.
func TestConcurrentMixedQueries(t *testing.T) {
	engine, err := New(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []Query{
		{Keywords: []string{"Smith", "XML"}, Engine: EnginePaths, Ranking: RankCloseFirst, MaxJoins: 3},
		{Keywords: []string{"Smith", "XML"}, Engine: EnginePaths, Ranking: RankERLength, MaxJoins: 3, TopK: 2},
		{Keywords: []string{"Smith", "XML"}, Engine: EngineMTJNT, Ranking: RankRDBLength, MaxJoins: 3},
		{Keywords: []string{"Smith", "XML"}, Engine: EngineBANKS, Ranking: RankCloseFirst, MaxJoins: 3},
		{Keywords: []string{"Alice", "XML"}, Engine: EnginePaths, Ranking: RankLoosenessPenalty, MaxJoins: 4},
		{Keywords: []string{"Smith", "XML"}, Engine: EnginePaths, Ranking: RankCombined, MaxJoins: 3, InstanceChecks: ToggleOff},
		{Keywords: []string{"Smith", "XML"}, Engine: EnginePaths, Ranking: RankCloseFirst, MaxJoins: 3, Labeler: PaperLabeler()},
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		if want[i], err = engine.Search(ctx, q); err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				got, err := engine.Search(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("query %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("query %d: concurrent result diverges from sequential baseline", i)
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCancellationBeforeSearch checks that an already-cancelled context
// aborts every engine before it enumerates anything.
func TestCancellationBeforeSearch(t *testing.T) {
	engine, err := New(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range allEngineKinds {
		_, err := engine.Search(ctx, Query{Keywords: []string{"Smith", "XML"}, Engine: kind, MaxJoins: 3})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Search on cancelled context = %v, want context.Canceled", kind, err)
		}
	}
}

// TestCancellationMidStream cancels the context from inside the first yield
// and checks that each engine stops mid-enumeration with ctx.Err() instead
// of finishing the query.
func TestCancellationMidStream(t *testing.T) {
	engine, err := New(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allEngineKinds {
		q := Query{Keywords: []string{"Smith", "XML"}, Engine: kind, MaxJoins: 3}
		total := 0
		if err := engine.Stream(context.Background(), q, func(Result) bool {
			total++
			return true
		}); err != nil {
			t.Fatalf("%s: uncancelled stream: %v", kind, err)
		}
		if total < 2 {
			t.Fatalf("%s: need at least 2 answers to observe a mid-stream cancel, got %d", kind, total)
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := engine.Stream(ctx, q, func(Result) bool {
			seen++
			cancel() // keep streaming from the caller's side ...
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-stream cancel = %v, want context.Canceled", kind, err)
		}
		if seen == 0 || seen >= total {
			t.Errorf("%s: cancelled stream delivered %d of %d answers, want a strict prefix", kind, seen, total)
		}
	}
}

// TestGoldenShimEquivalence pins the contract the removed Open/LegacyEngine
// shim stood for: options frozen at construction (WithDefaults) and a bare
// keyword query answer exactly like a default engine given the same options
// per query — for every engine kind and ranking strategy, on the paper's
// running example.
func TestGoldenShimEquivalence(t *testing.T) {
	engine, err := New(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range allEngineKinds {
		for _, strategy := range []RankStrategy{RankRDBLength, RankERLength, RankCloseFirst, RankLoosenessPenalty, RankHubPenalty, RankCombined} {
			frozen, err := New(PaperExample(), WithDefaults(Config{Engine: kind, Ranking: strategy, MaxJoins: 3}))
			if err != nil {
				t.Fatalf("New(%s, %s): %v", kind, strategy, err)
			}
			want, err := frozen.Search(ctx, Query{Keywords: []string{"Smith", "XML"}})
			if err != nil {
				t.Fatalf("Search with frozen defaults (%s, %s): %v", kind, strategy, err)
			}
			got, err := engine.Search(ctx, Query{
				Keywords: []string{"Smith", "XML"},
				Engine:   kind,
				Ranking:  strategy,
				MaxJoins: 3,
			})
			if err != nil {
				t.Fatalf("Search(%s, %s): %v", kind, strategy, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: per-query options diverge from the same options as defaults:\n got %+v\nwant %+v", kind, strategy, got, want)
			}
		}
	}
}

// TestStreamIsUnrankedAndCapped checks the streaming contract: results are
// unranked, arrive capped by TopK, and are always a subset of the batch
// answers.
func TestStreamIsUnrankedAndCapped(t *testing.T) {
	engine, err := New(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	all, err := engine.Search(ctx, Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3, TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	batch := make(map[string]bool, len(all))
	for _, r := range all {
		batch[r.Connection] = true
	}
	var streamed []Result
	err = engine.Stream(ctx, Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3, TopK: 3}, func(r Result) bool {
		streamed = append(streamed, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 3 {
		t.Fatalf("streamed %d results, want TopK=3", len(streamed))
	}
	for _, r := range streamed {
		if r.Rank != 0 {
			t.Errorf("streamed result has rank %d, want unranked", r.Rank)
		}
		if !batch[r.Connection] {
			t.Errorf("streamed %q missing from batch results", r.Connection)
		}
	}
}

// closeOnly is a custom searcher for the registry test: it delegates to the
// built-in paths engine and keeps only guaranteed-close answers.
type closeOnly struct{ inner Searcher }

func (s closeOnly) Stream(ctx context.Context, q Query, yield func(Answer) bool) error {
	return s.inner.Stream(ctx, q, func(a Answer) bool {
		if !a.Analysis.Close {
			return true
		}
		return yield(a)
	})
}

// TestRegistries exercises RegisterEngine and RegisterRanker with custom
// strategies and checks that unknown names fail with the registered list.
func TestRegistries(t *testing.T) {
	RegisterEngine("close-only", func(c Components) (Searcher, error) {
		inner, err := newPathsSearcher(c)
		if err != nil {
			return nil, err
		}
		return closeOnly{inner: inner}, nil
	})
	RegisterRanker("content-only", func(Query) (ranking.Scorer, error) {
		return ranking.Content{}, nil
	})

	engine, err := New(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := engine.Search(ctx, Query{
		Keywords: []string{"Smith", "XML"},
		Engine:   "close-only",
		Ranking:  "content-only",
		MaxJoins: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("close-only engine returned %d answers, want the 3 close ones", len(got))
	}
	for _, r := range got {
		if !r.Close {
			t.Errorf("close-only engine leaked loose answer %q", r.Connection)
		}
	}

	if _, err := engine.Search(ctx, Query{Keywords: []string{"x"}, Engine: "bogus"}); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown engine error = %v, want the registered kinds listed", err)
	}
	if _, err := engine.Search(ctx, Query{Keywords: []string{"x"}, Ranking: "bogus"}); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown ranking error = %v, want the registered strategies listed", err)
	}
}

// TestValidationBeforeConstruction checks that New rejects unknown engine
// and ranking names before looking at the database at all: a database with a
// broken catalog still reports the configuration error first.
func TestValidationBeforeConstruction(t *testing.T) {
	broken := NewDatabase("broken")
	if err := broken.AddTable(TableSpec{
		Name:       "T",
		Columns:    []ColumnSpec{{Name: "A", Type: "string"}, {Name: "B", Type: "string"}},
		PrimaryKey: []string{"A"},
		ForeignKeys: []ForeignKeySpec{
			{Columns: []string{"B"}, RefTable: "MISSING", RefColumns: []string{"ID"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := New(broken, WithDefaults(Config{Engine: "bogus"}))
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("New error = %v, want the engine validated before the database", err)
	}
	_, err = New(broken, WithDefaults(Config{Ranking: "bogus"}))
	if err == nil || !strings.Contains(err.Error(), "unknown ranking") {
		t.Errorf("New error = %v, want the ranking validated before the database", err)
	}
	// With a valid configuration the database error surfaces as before.
	if _, err := New(broken); err == nil {
		t.Error("New should reject the broken catalog")
	}
}

// TestPerQueryLabeler checks that a query labeler overrides the engine
// labeler for that call only.
func TestPerQueryLabeler(t *testing.T) {
	engine, err := New(PaperExample(), WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3, TopK: 1}
	withPaper, err := engine.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withPaper[0].Connection, "e1") {
		t.Errorf("engine labeler not applied: %q", withPaper[0].Connection)
	}
	q.Labeler = func(id TupleID) string { return "<" + id.Relation + ">" }
	overridden, err := engine.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(overridden[0].Connection, "<EMPLOYEE>") {
		t.Errorf("query labeler not applied: %q", overridden[0].Connection)
	}
	// The engine default is untouched for later queries.
	q.Labeler = nil
	again, err := engine.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Connection != withPaper[0].Connection {
		t.Errorf("engine labeler lost after per-query override: %q", again[0].Connection)
	}
}

// TestOptionOrderDoesNotMatter checks that WithDefaults merges instead of
// overwriting, so it composes with WithLabeler in either order.
func TestOptionOrderDoesNotMatter(t *testing.T) {
	for _, opts := range [][]Option{
		{WithLabeler(PaperLabeler()), WithDefaults(Config{MaxJoins: 3})},
		{WithDefaults(Config{MaxJoins: 3}), WithLabeler(PaperLabeler())},
	} {
		engine, err := New(PaperExample(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := engine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}, TopK: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rs[0].Connection, "e1") && !strings.Contains(rs[0].Connection, "e2") {
			t.Errorf("labeler lost to option order: %q", rs[0].Connection)
		}
	}
}
