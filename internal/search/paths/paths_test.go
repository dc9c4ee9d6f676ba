package paths

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

func id(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

// build constructs an engine over a freshly built graph, index and analyzer
// of db.
func build(t testing.TB, db *relation.Database, opts Options) *Engine {
	t.Helper()
	analyzer, err := core.Derive(db)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	tuples := symtab.ForDatabase(db)
	e, err := NewWithComponents(db, datagraph.BuildParallelWith(db, tuples, 0), index.BuildParallelWith(db, tuples, 0), analyzer, opts)
	if err != nil {
		t.Fatalf("NewWithComponents: %v", err)
	}
	return e
}

func newEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	return build(t, paperdb.MustLoad(), opts)
}

// coveredKeywords returns the distinct query keywords the answer covers,
// sorted.
func coveredKeywords(a Answer) []string {
	set := make(map[string]bool)
	for _, kws := range a.Matches {
		for _, k := range kws {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// formatted renders the answers in the paper's Table 2 notation.
func formatted(answers []Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Connection.Format(paperdb.DisplayLabel, a.Matches)
	}
	return out
}

// TestSearchSmithXMLReproducesTable2 checks that the engine finds the seven
// "Smith XML" connections of the paper's Table 2 (within 3 joins) including
// the ones MTJNT would lose.
func TestSearchSmithXMLReproducesTable2(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true})
	answers, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	got := formatted(answers)
	want := []string{
		"d1(XML) - e1(Smith)",                  // connection 1
		"p1(XML) - w_f1 - e1(Smith)",           // connection 2
		"p1(XML) - d1(XML) - e1(Smith)",        // connection 3
		"d1(XML) - p1(XML) - w_f1 - e1(Smith)", // connection 4
		"d2(XML) - e2(Smith)",                  // connection 5
		"p2(XML) - d2(XML) - e2(Smith)",        // connection 6
		"d2(XML) - p3 - w_f2 - e2(Smith)",      // connection 7
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w || g == reverseFormat(w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing connection %q in results:\n%s", w, strings.Join(got, "\n"))
		}
	}
	// Every answer covers both keywords under AND semantics.
	for _, a := range answers {
		kws := coveredKeywords(a)
		if len(kws) != 2 {
			t.Errorf("answer %q covers %v", a.Connection.Format(paperdb.DisplayLabel, a.Matches), kws)
		}
	}
}

// reverseFormat flips "a - b - c" into "c - b - a" so membership checks are
// direction-insensitive.
func reverseFormat(s string) string {
	parts := strings.Split(s, " - ")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " - ")
}

func TestSearchResultsOrderedAndDeduplicated(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 4})
	answers, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, a := range answers {
		if seen[a.Connection.Key()] {
			t.Errorf("duplicate connection %q", a.Connection.String())
		}
		seen[a.Connection.Key()] = true
		if i > 0 && answers[i-1].Connection.RDBLength() > a.Connection.RDBLength() {
			t.Error("answers not ordered by ascending RDB length")
		}
	}
}

func TestSearchAliceXMLFindsConnections8And9(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 4})
	answers, err := e.SearchContext(context.Background(), paperdb.QueryAliceXML, Options{MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := formatted(answers)
	for _, w := range []string{
		"d1(XML) - e3 - t1(Alice)",
		"d2(XML) - p2(XML) - w_f3 - e3 - t1(Alice)",
	} {
		found := false
		for _, g := range got {
			if g == w || g == reverseFormat(w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing connection %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}
}

func TestSearchAnalysisAttached(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3, InstanceCorroboration: true})
	answers, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxEdges: 3, InstanceCorroboration: true})
	if err != nil {
		t.Fatal(err)
	}
	closeCount, looseCount := 0, 0
	for _, a := range answers {
		if a.Analysis.RDBLength != a.Connection.RDBLength() {
			t.Error("analysis not computed for the answer's connection")
		}
		if a.Analysis.Close {
			closeCount++
		} else {
			looseCount++
		}
		if a.ContentScore <= 0 {
			t.Errorf("answer %q has non-positive content score", a.Connection.String())
		}
	}
	if closeCount == 0 || looseCount == 0 {
		t.Errorf("expected both close and loose answers, got %d close / %d loose", closeCount, looseCount)
	}
}

func TestSearchSingleKeyword(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3})
	answers, err := e.SearchContext(context.Background(), []string{"XML"}, Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("single-keyword answers = %d, want 4", len(answers))
	}
	for _, a := range answers {
		if a.Connection.RDBLength() != 0 {
			t.Errorf("single-keyword answer should be a single tuple, got %v", a.Connection)
		}
	}
}

func TestSearchSingleTupleCoversBothKeywords(t *testing.T) {
	// "information xml" are both in d2's description: the single tuple d2
	// is itself an answer.
	e := newEngine(t, Options{MaxEdges: 2})
	answers, err := e.SearchContext(context.Background(), []string{"information", "XML"}, Options{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	foundSingle := false
	for _, a := range answers {
		if a.Connection.RDBLength() == 0 && a.Connection.Start() == id("DEPARTMENT", "d2") {
			foundSingle = true
		}
	}
	if !foundSingle {
		t.Error("expected the single tuple d2 as an answer covering both keywords")
	}
}

func TestSearchRequireAllKeywordsSemantics(t *testing.T) {
	// With AND semantics a keyword without matches fails the query.
	e := newEngine(t, Options{MaxEdges: 3, RequireAllKeywords: true})
	if _, err := e.SearchContext(context.Background(), []string{"Smith", "blockchain"}, Options{MaxEdges: 3, RequireAllKeywords: true}); err == nil {
		t.Error("AND semantics with an unmatched keyword should fail")
	}
	// With OR semantics the query still returns the Smith-XML style pairs
	// among the matched keywords.
	e = newEngine(t, Options{MaxEdges: 3, RequireAllKeywords: false})
	answers, err := e.SearchContext(context.Background(), []string{"Smith", "Miller"}, Options{MaxEdges: 3, RequireAllKeywords: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Error("OR semantics should return connections between Smith and Miller tuples")
	}
}

func TestSearchMaxResultsAndBudget(t *testing.T) {
	// A budget of 1 join only finds the immediate connections 1 and 5.
	e := newEngine(t, Options{MaxEdges: 1})
	answers, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Errorf("budget 1 answers = %d, want 2", len(answers))
	}
}

func TestSearchErrors(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.SearchContext(context.Background(), nil, Options{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := NewWithComponents(nil, nil, nil, nil, Options{}); err == nil {
		t.Error("NewWithComponents with nil components should fail")
	}
}

func TestNewWithComponentsSharesState(t *testing.T) {
	db := paperdb.MustLoad()
	analyzer, err := core.Derive(db)
	if err != nil {
		t.Fatal(err)
	}
	tuples := symtab.ForDatabase(db)
	opts := Options{MaxEdges: 3}
	e, err := NewWithComponents(db, datagraph.BuildParallelWith(db, tuples, 1), index.BuildParallelWith(db, tuples, 1), analyzer, opts)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := newEngine(t, opts).SearchContext(context.Background(), paperdb.QuerySmithXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The per-call budget is left unset: it falls back to the constructor's.
	a2, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Errorf("shared-component engine returned %d answers, want %d", len(a2), len(a1))
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions()
	if opts.MaxEdges != 5 || !opts.RequireAllKeywords || !opts.InstanceCorroboration {
		t.Errorf("DefaultOptions = %+v", opts)
	}
}

// TestMatchedKeywordOrderFollowsQuery pins the per-tuple matched-keyword
// order to the query's keyword order. The construction used to iterate the
// keyword->matches map, so a tuple matching several keywords (here the
// department descriptions containing both "teaching" and "XML") rendered its
// keyword list in random map order, making repeated identical searches
// disagree byte-for-byte.
func TestMatchedKeywordOrderFollowsQuery(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 2, RequireAllKeywords: true})
	for _, keywords := range [][]string{{"teaching", "XML"}, {"XML", "teaching"}} {
		answers, err := e.SearchContext(context.Background(), keywords, Options{MaxEdges: 2, RequireAllKeywords: true})
		if err != nil {
			t.Fatalf("Search(%v): %v", keywords, err)
		}
		checked := false
		for _, a := range answers {
			for _, kws := range a.Matches {
				if len(kws) < 2 {
					continue
				}
				checked = true
				if kws[0] != keywords[0] || kws[1] != keywords[1] {
					t.Fatalf("query %v rendered matched keywords %v; want query order", keywords, kws)
				}
			}
		}
		if !checked {
			t.Fatalf("fixture: no tuple matched both keywords of %v", keywords)
		}
	}
}
