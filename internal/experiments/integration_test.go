package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/search/banks"
	"repro/internal/search/mtjnt"
	"repro/internal/search/paths"
	"repro/internal/workload"
)

// TestEngineInvariantsOnSyntheticDatabases checks cross-engine invariants on
// seeded synthetic databases: every MTJNT answer is also found by the
// connection-enumeration engine, every answer covers all keywords, ER length
// never exceeds RDB length, and close answers have zero transitive N:M
// sub-paths.
func TestEngineInvariantsOnSyntheticDatabases(t *testing.T) {
	for _, scale := range []int{1, 2} {
		db := workload.MustGenerate(workload.ScaledConfig(scale, 13))
		g, idx, analyzer, err := buildComponents(db)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		pathOpts := paths.Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true}
		pathEngine, err := paths.NewWithComponents(db, g, idx, analyzer, pathOpts)
		if err != nil {
			t.Fatal(err)
		}
		mtjntOpts := mtjnt.Options{MaxEdges: 3}
		mtjntEngine, err := mtjnt.NewWithComponents(db, g, idx, mtjntOpts)
		if err != nil {
			t.Fatal(err)
		}
		banksOpts := banks.Options{MaxDepth: 3, MaxResults: 10}
		banksEngine, err := banks.NewWithComponents(db, g, idx, banksOpts)
		if err != nil {
			t.Fatal(err)
		}

		ran := 0
		for _, q := range workload.Queries(6, 100+int64(scale)) {
			answers, err := pathEngine.SearchContext(ctx, q.Keywords, pathOpts)
			if err != nil {
				continue // keyword absent at this scale
			}
			ran++
			answerKeys := make(map[string]bool, len(answers))
			keywordSets := make(map[string]map[string]bool, len(q.Keywords))
			for _, kw := range q.Keywords {
				set := make(map[string]bool)
				for id := range idx.KeywordTuples(kw) {
					set[id.String()] = true
				}
				keywordSets[kw] = set
			}
			for _, a := range answers {
				answerKeys[a.Connection.Key()] = true
				if a.Analysis.ERLength > a.Analysis.RDBLength {
					t.Errorf("scale %d: ER length %d exceeds RDB length %d", scale, a.Analysis.ERLength, a.Analysis.RDBLength)
				}
				if a.Analysis.Close && a.Analysis.TransitiveNM != 0 {
					t.Errorf("scale %d: close answer with transitive N:M sub-paths: %v", scale, a.Connection)
				}
				for _, kw := range q.Keywords {
					covered := false
					for _, tup := range a.Connection.Tuples {
						if keywordSets[kw][tup.String()] {
							covered = true
							break
						}
					}
					if !covered {
						t.Errorf("scale %d: answer %v does not cover keyword %q", scale, a.Connection, kw)
					}
				}
			}

			minimal, err := mtjntEngine.SearchContext(ctx, q.Keywords, mtjntOpts)
			if err != nil {
				t.Errorf("scale %d: MTJNT failed where paths succeeded: %v", scale, err)
				continue
			}
			for _, n := range minimal {
				if !answerKeys[n.Connection.Key()] {
					t.Errorf("scale %d: MTJNT answer %v not found by the path engine", scale, n.Connection)
				}
			}

			trees, err := banksEngine.SearchContext(ctx, q.Keywords, banksOpts)
			if err != nil {
				t.Errorf("scale %d: BANKS failed where paths succeeded: %v", scale, err)
				continue
			}
			for _, tr := range trees {
				if len(tr.KeywordPaths) != len(q.Keywords) {
					t.Errorf("scale %d: BANKS tree misses keyword paths", scale)
				}
			}
		}
		if ran == 0 {
			t.Errorf("scale %d: no query produced answers", scale)
		}
	}
}

// TestAnalyzerAgreesWithSchemaClassification checks, over a synthetic
// database, that the instance-level analysis of every enumerated connection
// classifies exactly like the cardinality algebra applied to its conceptual
// steps (the analyzer must not invent or drop looseness).
func TestAnalyzerAgreesWithSchemaClassification(t *testing.T) {
	db := workload.MustGenerate(workload.ScaledConfig(1, 29))
	g, idx, analyzer, err := buildComponents(db)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	smithLike := idx.KeywordTuples("Smith")
	topicLike := idx.KeywordTuples("databases")
	for from := range smithLike {
		for to := range topicLike {
			conns, err := core.EnumerateConnectionsContext(context.Background(), g, from, to, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range conns {
				an, err := analyzer.Analyze(c)
				if err != nil {
					t.Fatal(err)
				}
				if an.Close != an.Class.Close() && an.RDBLength > 0 {
					t.Errorf("analysis closeness %v disagrees with class %v for %v", an.Close, an.Class, c)
				}
				if an.ERLength != len(an.Steps) {
					t.Errorf("ER length %d != steps %d", an.ERLength, len(an.Steps))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Skip("generated database has no Smith/databases connections at this seed")
	}
}
