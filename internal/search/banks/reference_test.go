package banks

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/workload"
)

// referenceSearch is the candidate loop SearchContext replaced, kept as an
// oracle: it builds the string-space Tree of every candidate root,
// deduplicates on Tree.Signature (keeping the first root that produced it),
// sorts on (Weight, Signature) and truncates to MaxResults. It shares the
// keyword expansions and the candidate roots with SearchContext, and it
// never cuts early.
func referenceSearch(ctx context.Context, e *Engine, keywords []string, opts Options) ([]Tree, error) {
	applyDefaults(&opts, e.opts)
	q, err := e.expandAll(ctx, keywords, opts)
	if err != nil {
		return nil, err
	}
	defer q.release()
	var out []Tree
	seen := make(map[string]bool)
	for _, cand := range q.roots {
		tree := e.buildTree(cand.root, q)
		if seen[tree.Signature()] {
			continue
		}
		seen[tree.Signature()] = true
		out = append(out, tree)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight < out[j].Weight
		}
		return out[i].Signature() < out[j].Signature()
	})
	if len(out) > opts.MaxResults {
		out = out[:opts.MaxResults]
	}
	return out, nil
}

// oracleQueries widens two-keyword base queries with the shapes whose
// handling differs inside the engine: each pair reversed, a repeated
// keyword, and a third keyword borrowed from the next pair. The first pair
// also yields a query of one keyword twice, whose every reached tuple is a
// candidate root.
func oracleQueries(pairs [][]string) [][]string {
	var out [][]string
	for i, p := range pairs {
		a, b := p[0], p[1]
		c := pairs[(i+1)%len(pairs)][1]
		out = append(out, []string{a, b}, []string{b, a}, []string{a, b, a})
		if i == 0 {
			out = append(out, []string{a, a})
		}
		if c != a && c != b {
			out = append(out, []string{a, b, c})
		}
	}
	return out
}

// matchingPairs returns up to limit of the candidate pairs whose keywords
// all match some tuple of e's index, in order.
func matchingPairs(e *Engine, candidates [][]string, limit int) [][]string {
	var out [][]string
	for _, p := range candidates {
		if len(e.index.MatchIDs(p[0])) > 0 && len(e.index.MatchIDs(p[1])) > 0 && p[0] != p[1] {
			out = append(out, p)
		}
		if len(out) == limit {
			break
		}
	}
	return out
}

// companyPairs is every surname x topic pair, the benchmark's cold pool
// before filtering.
func companyPairs() [][]string {
	var out [][]string
	for _, s := range workload.Surnames() {
		for _, t := range workload.Topics() {
			out = append(out, []string{s, t})
		}
	}
	return out
}

func queryKeywords(qs []workload.Query) [][]string {
	out := make([][]string, len(qs))
	for i, q := range qs {
		out[i] = q.Keywords
	}
	return out
}

// TestSearchContextMatchesReference pins the dense root selection to the
// string-space loop it replaced: for every dataset, query shape, depth and
// result cap, SearchContext returns exactly the reference's trees, in the
// same order, or the same error.
func TestSearchContextMatchesReference(t *testing.T) {
	paper := paperdb.MustLoad()
	paperEngine := build(t, paper, Options{})
	// Every eighth pair of the paper's vocabulary, plus its two queries.
	vocab := paperEngine.index.Vocabulary()
	var paperPairs [][]string
	n := 0
	for i, a := range vocab {
		for _, b := range vocab[i+1:] {
			if n%8 == 0 {
				paperPairs = append(paperPairs, []string{a, b})
			}
			n++
		}
	}
	paperPairs = append(paperPairs, paperdb.QuerySmithXML, paperdb.QueryAliceXML)

	// Pool sizes keep the exhaustive reference affordable under -race at
	// MaxDepth 5 on the larger datasets.
	type dataset struct {
		name  string
		db    *relation.Database
		pairs func(e *Engine) [][]string
	}
	datasets := []dataset{
		{"paper", paper, func(*Engine) [][]string { return paperPairs }},
		{"scaled-2-42", workload.MustGenerate(workload.ScaledConfig(2, 42)), func(e *Engine) [][]string {
			return matchingPairs(e, queryKeywords(workload.Queries(12, 42)), 12)
		}},
		{"company-8", workload.MustGenerate(workload.ScaledConfig(8, 1)), func(e *Engine) [][]string {
			return matchingPairs(e, companyPairs(), 6)
		}},
		{"company-24", workload.MustGenerate(workload.ScaledConfig(24, 1)), func(e *Engine) [][]string {
			return matchingPairs(e, companyPairs(), 2)
		}},
		{"docs-4", workload.MustGenerateDocs(workload.ScaledDocsConfig(4, 1)), func(e *Engine) [][]string {
			return matchingPairs(e, queryKeywords(workload.DocQueries(64, 1)), 3)
		}},
	}
	ctx := context.Background()
	caps := []int{1, 3, 10, 100, 1 << 20}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			e := build(t, ds.db, Options{})
			queries := oracleQueries(ds.pairs(e))
			if len(queries) == 0 {
				t.Fatal("no matching queries")
			}
			for _, kws := range queries {
				for depth := 2; depth <= 5; depth++ {
					// Truncation is a prefix of the exhaustive order, so one
					// exhaustive reference serves every cap.
					ref, refErr := referenceSearch(ctx, e, kws, Options{MaxDepth: depth, MaxResults: 1 << 20})
					for _, max := range caps {
						opts := Options{MaxDepth: depth, MaxResults: max}
						got, err := e.SearchContext(ctx, kws, opts)
						if fmt.Sprint(err) != fmt.Sprint(refErr) {
							t.Fatalf("%v %+v: error %v, reference %v", kws, opts, err, refErr)
						}
						want := ref
						if len(want) > max {
							want = want[:max]
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%v %+v: trees differ from the reference (%d vs %d)", kws, opts, len(got), len(want))
						}
					}
				}
			}
		})
	}
}
