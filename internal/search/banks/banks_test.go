package banks

import (
	"context"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

func id(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

// build constructs an engine over a freshly built graph and index of db.
func build(t testing.TB, db *relation.Database, opts Options) *Engine {
	t.Helper()
	tuples := symtab.ForDatabase(db)
	e, err := NewWithComponents(db, datagraph.BuildParallelWith(db, tuples, 0), index.BuildParallelWith(db, tuples, 0), opts)
	if err != nil {
		t.Fatalf("NewWithComponents: %v", err)
	}
	return e
}

func newEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	return build(t, paperdb.MustLoad(), opts)
}

func TestSearchSmithXMLTopTrees(t *testing.T) {
	e := newEngine(t, Options{MaxDepth: 4, MaxResults: 20})
	trees, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxDepth: 4, MaxResults: 20})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(trees) == 0 {
		t.Fatal("no answer trees")
	}
	// Weights are non-decreasing.
	for i := 1; i < len(trees); i++ {
		if trees[i-1].Weight > trees[i].Weight {
			t.Error("trees not ordered by weight")
		}
	}
	// The best answers have weight 1: the immediate d1-e1 and d2-e2
	// connections of the paper.
	if trees[0].Weight != 1 {
		t.Errorf("best tree weight = %d, want 1", trees[0].Weight)
	}
	foundD1E1 := false
	for _, tr := range trees {
		hasD1, hasE1 := false, false
		for _, n := range tr.Nodes {
			if n == id("DEPARTMENT", "d1") {
				hasD1 = true
			}
			if n == id("EMPLOYEE", "e1") {
				hasE1 = true
			}
		}
		if hasD1 && hasE1 && tr.Weight == 1 {
			foundD1E1 = true
		}
	}
	if !foundD1E1 {
		t.Error("missing the d1-e1 answer among weight-1 trees")
	}
}

func TestSearchTreesCoverAllKeywords(t *testing.T) {
	e := newEngine(t, Options{MaxDepth: 4, MaxResults: 15})
	trees, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxDepth: 4, MaxResults: 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if len(tr.KeywordPaths) != 2 {
			t.Fatalf("tree rooted at %v has %d keyword paths", tr.Root, len(tr.KeywordPaths))
		}
		covered := make(map[string]bool)
		for kw, path := range tr.KeywordPaths {
			end := path.End()
			for _, matchKw := range tr.Matches[end] {
				if matchKw == kw {
					covered[kw] = true
				}
			}
			// Every keyword path starts at the root.
			if path.Start() != tr.Root {
				t.Errorf("keyword path for %q does not start at the root", kw)
			}
		}
		if len(covered) != 2 {
			t.Errorf("tree rooted at %v does not cover both keywords: %v", tr.Root, covered)
		}
		if tr.Weight != len(tr.Edges) {
			t.Errorf("weight %d != edge count %d", tr.Weight, len(tr.Edges))
		}
	}
}

func TestSearchNoDuplicateTrees(t *testing.T) {
	e := newEngine(t, Options{MaxDepth: 5, MaxResults: 50})
	trees, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxDepth: 5, MaxResults: 50})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, tr := range trees {
		sig := tr.Signature()
		if seen[sig] {
			t.Errorf("duplicate tree %s", sig)
		}
		seen[sig] = true
	}
}

func TestSearchMaxResults(t *testing.T) {
	e := newEngine(t, Options{MaxDepth: 4, MaxResults: 3})
	trees, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxDepth: 4, MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 3 {
		t.Errorf("MaxResults not applied: %d trees", len(trees))
	}
}

func TestTreeAsConnection(t *testing.T) {
	e := newEngine(t, Options{MaxDepth: 4, MaxResults: 30})
	trees, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxDepth: 4, MaxResults: 30})
	if err != nil {
		t.Fatal(err)
	}
	pathShaped := 0
	for _, tr := range trees {
		c, ok := tr.AsConnection()
		if !ok {
			continue
		}
		pathShaped++
		if c.RDBLength() != tr.Weight {
			t.Errorf("flattened connection length %d != tree weight %d", c.RDBLength(), tr.Weight)
		}
		// Endpoints of the flattened connection are keyword matches.
		if len(tr.Matches[c.Start()]) == 0 || len(tr.Matches[c.End()]) == 0 {
			t.Errorf("flattened connection endpoints are not keyword matches: %v", c)
		}
	}
	if pathShaped == 0 {
		t.Error("expected at least one path-shaped tree for a two-keyword query")
	}
}

func TestSearchAliceXML(t *testing.T) {
	e := newEngine(t, Options{MaxDepth: 5, MaxResults: 10})
	trees, err := e.SearchContext(context.Background(), paperdb.QueryAliceXML, Options{MaxDepth: 5, MaxResults: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatal("no trees for Alice XML")
	}
	// The closest connection d1 - e3 - t1 has weight 2.
	if trees[0].Weight != 2 {
		t.Errorf("best Alice-XML tree weight = %d, want 2", trees[0].Weight)
	}
}

func TestSearchErrors(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.SearchContext(context.Background(), nil, Options{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := e.SearchContext(context.Background(), []string{"Smith", "blockchain"}, Options{}); err == nil {
		t.Error("unmatched keyword should fail")
	}
	if _, err := NewWithComponents(nil, nil, nil, Options{}); err == nil {
		t.Error("NewWithComponents with nils should fail")
	}
}

func TestMaxDepthLimitsAnswers(t *testing.T) {
	// With a depth of 1 per keyword expansion, only trees of weight <= 2
	// can be found.
	e := newEngine(t, Options{MaxDepth: 1, MaxResults: 50})
	trees, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxDepth: 1, MaxResults: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if tr.Weight > 2 {
			t.Errorf("tree weight %d exceeds what MaxDepth 1 allows", tr.Weight)
		}
	}
}

func TestDefaultOptionsApplied(t *testing.T) {
	e := newEngine(t, Options{})
	if e.opts.MaxDepth != 5 || e.opts.MaxResults != 10 {
		t.Errorf("defaults not applied: %+v", e.opts)
	}
}
