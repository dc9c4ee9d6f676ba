package repro

// Benchmarks regenerating the paper's figures and tables and the extended
// experiments of DESIGN.md. Each benchmark corresponds to one experiment id
// (see the per-experiment index in DESIGN.md and the measured results in
// EXPERIMENTS.md):
//
//	E-F1     BenchmarkFigure1SchemaConstruction
//	E-F2     BenchmarkFigure2InstanceLoad
//	E-T1     BenchmarkTable1Classification
//	E-T2     BenchmarkTable2Connections
//	E-T3     BenchmarkTable3Annotation
//	E-MTJNT  BenchmarkMTJNTLoss
//	E-RANK   BenchmarkRankingStrategies
//	E-SCALE  BenchmarkScaleLossRate
//	E-ENGINE BenchmarkEnginesComparison
//	E-ABL    BenchmarkAblationERLength / BenchmarkAblationLooseness
//
// The component benchmarks at the end measure the substrates in isolation.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/er"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/search/banks"
	"repro/internal/search/mtjnt"
	"repro/internal/search/paths"
	"repro/internal/symtab"
	"repro/internal/workload"
	"repro/kws"
)

// buildGraph and buildIndex build one substrate over the database's
// canonical tuple table with the given worker count (0 means GOMAXPROCS).
func buildGraph(db *relation.Database, workers int) *datagraph.Graph {
	return datagraph.BuildParallelWith(db, symtab.ForDatabase(db), workers)
}

func buildIndex(db *relation.Database, workers int) *index.Index {
	return index.BuildParallelWith(db, symtab.ForDatabase(db), workers)
}

// paperAnswers runs the paper's "Smith XML" query within 3 joins through the
// connection-enumeration engine, with AND semantics and corroboration.
func paperAnswers(b *testing.B) []paths.Answer {
	b.Helper()
	db := paperdb.MustLoad()
	analyzer, err := core.Derive(db)
	if err != nil {
		b.Fatal(err)
	}
	opts := paths.Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true}
	engine, err := paths.NewWithComponents(db, buildGraph(db, 0), buildIndex(db, 0), analyzer, opts)
	if err != nil {
		b.Fatal(err)
	}
	answers, err := engine.SearchContext(context.Background(), paperdb.QuerySmithXML, opts)
	if err != nil {
		b.Fatal(err)
	}
	return answers
}

// BenchmarkFigure1SchemaConstruction regenerates Figure 1: building the ER
// schema of the running example and describing its relationships.
func BenchmarkFigure1SchemaConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFigure2InstanceLoad regenerates Figure 2: loading and dumping the
// relational instance.
func BenchmarkFigure2InstanceLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1Classification regenerates Table 1: enumerating the
// conceptual relationship paths and classifying their cardinality
// combinations.
func BenchmarkTable1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable2Connections regenerates Table 2: enumerating the
// connections of the running queries and computing their RDB and ER lengths.
func BenchmarkTable2Connections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable3Annotation regenerates Table 3: the same connections with
// per-join cardinalities and close/loose classification.
func BenchmarkTable3Annotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkMTJNTLoss regenerates the Section 3 comparison: which connections
// the MTJNT principle keeps and which it loses.
func BenchmarkMTJNTLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MTJNTLoss(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkRankingStrategies ranks the "Smith XML" answers under every
// strategy the experiments compare (E-RANK).
func BenchmarkRankingStrategies(b *testing.B) {
	answers := paperAnswers(b)
	items := make([]ranking.Item, len(answers))
	for i, a := range answers {
		items[i] = ranking.Item{Analysis: a.Analysis, Content: a.ContentScore}
	}
	for _, scorer := range ranking.Strategies() {
		b.Run(scorer.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := ranking.Rank(items, scorer); len(got) != len(items) {
					b.Fatal("lost items while ranking")
				}
			}
		})
	}
}

// BenchmarkScaleLossRate measures the MTJNT loss-rate sweep at increasing
// database sizes (E-SCALE).
func BenchmarkScaleLossRate(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		b.Run(benchName("scale", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, _, err := experiments.ScaleExperiment(context.Background(), experiments.ScaleOptions{
					Scales: []int{scale}, Queries: 4, MaxEdges: 3, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 1 {
					b.Fatal("unexpected result count")
				}
			}
		})
	}
}

// BenchmarkEnginesComparison measures the three engines on the same
// generated workload (E-ENGINE).
func BenchmarkEnginesComparison(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(2, 42))
	analyzer, err := core.Derive(db)
	if err != nil {
		b.Fatal(err)
	}
	g := buildGraph(db, 0)
	idx := buildIndex(db, 0)
	queries := workload.Queries(4, 42)

	ctx := context.Background()
	pathOpts := paths.Options{MaxEdges: 3, RequireAllKeywords: true}
	pathEngine, err := paths.NewWithComponents(db, g, idx, analyzer, pathOpts)
	if err != nil {
		b.Fatal(err)
	}
	mtjntOpts := mtjnt.Options{MaxEdges: 3}
	mtjntEngine, err := mtjnt.NewWithComponents(db, g, idx, mtjntOpts)
	if err != nil {
		b.Fatal(err)
	}
	banksOpts := banks.Options{MaxDepth: 3, MaxResults: 20}
	banksEngine, err := banks.NewWithComponents(db, g, idx, banksOpts)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_, _ = pathEngine.SearchContext(ctx, q.Keywords, pathOpts)
			}
		}
	})
	b.Run("mtjnt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_, _ = mtjntEngine.SearchContext(ctx, q.Keywords, mtjntOpts)
			}
		}
	})
	b.Run("banks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_, _ = banksEngine.SearchContext(ctx, q.Keywords, banksOpts)
			}
		}
	})
}

// BenchmarkAblationERLength measures the ablation of the conceptual-length
// design choice: analysing and ranking the paper's connections when middle
// relations are collapsed (ER length) versus counted (RDB length).
func BenchmarkAblationERLength(b *testing.B) {
	answers := paperAnswers(b)
	items := make([]ranking.Item, len(answers))
	for i, a := range answers {
		items[i] = ranking.Item{Analysis: a.Analysis, Content: a.ContentScore}
	}
	b.Run("rdb-length", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ranking.Rank(items, ranking.RDBLength{})
		}
	})
	b.Run("er-length", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ranking.Rank(items, ranking.ERLength{})
		}
	})
}

// BenchmarkAblationLooseness measures the looseness-penalty ablation: the
// full ablation experiment comparing ranking configurations on the running
// example.
func BenchmarkAblationLooseness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Ablation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// Component benchmarks.

// BenchmarkIndexBuild measures building the keyword index over a scaled
// synthetic database.
func BenchmarkIndexBuild(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(4, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := buildIndex(db, 0)
		if idx.DocCount() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkDataGraphBuild measures building the tuple graph over a scaled
// synthetic database.
func BenchmarkDataGraphBuild(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(4, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := buildGraph(db, 0)
		if g.NodeCount() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkConnectionAnalysis measures the core contribution in isolation:
// lifting and classifying the paper's nine connections.
func BenchmarkConnectionAnalysis(b *testing.B) {
	db := paperdb.MustLoad()
	analyzer, err := core.Derive(db)
	if err != nil {
		b.Fatal(err)
	}
	g := buildGraph(db, 0)
	idx := buildIndex(db, 0)
	var conns []core.Connection
	for from := range idx.KeywordTuples("XML") {
		for to := range idx.KeywordTuples("Smith") {
			found, err := core.EnumerateConnectionsContext(context.Background(), g, from, to, 3)
			if err != nil {
				b.Fatal(err)
			}
			conns = append(conns, found...)
		}
	}
	if len(conns) == 0 {
		b.Fatal("no connections to analyse")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range conns {
			if _, err := analyzer.Analyze(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCardinalityClassification measures the cardinality algebra alone.
func BenchmarkCardinalityClassification(b *testing.B) {
	paths := [][]er.Cardinality{
		{er.OneToMany},
		{er.OneToMany, er.OneToMany},
		{er.OneToMany, er.ManyToMany},
		{er.ManyToOne, er.OneToMany},
		{er.OneToMany, er.ManyToMany, er.OneToMany},
		{er.ManyToOne, er.OneToMany, er.ManyToOne, er.OneToMany},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			_ = er.ClassifyPath(p)
			_ = er.TransitiveNMCount(p)
			_ = er.LoosenessDegree(p)
		}
	}
}

// BenchmarkPublicAPISearch measures an end-to-end search through the public
// kws facade on the paper database.
func BenchmarkPublicAPISearch(b *testing.B) {
	engine, err := kws.New(kws.PaperExample())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	query := kws.Query{Keywords: []string{"Smith", "XML"}, Ranking: kws.RankCloseFirst, MaxJoins: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := engine.Search(ctx, query)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 7 {
			b.Fatalf("results = %d", len(results))
		}
	}
}

// BenchmarkPublicAPISearchParallel measures the same search issued from many
// goroutines against one shared engine — the concurrent serving shape the
// per-query API is designed for.
func BenchmarkPublicAPISearchParallel(b *testing.B) {
	engine, err := kws.New(kws.PaperExample())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	query := kws.Query{Keywords: []string{"Smith", "XML"}, Ranking: kws.RankCloseFirst, MaxJoins: 3}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			results, err := engine.Search(ctx, query)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != 7 {
				b.Fatalf("results = %d", len(results))
			}
		}
	})
}

// BenchmarkPublicAPIStream measures streaming the first answer out of the
// facade — the time-to-first-result the batch API cannot offer.
func BenchmarkPublicAPIStream(b *testing.B) {
	engine, err := kws.New(kws.PaperExample())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	query := kws.Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		err := engine.Stream(ctx, query, func(kws.Result) bool {
			got++
			return false // stop at the first answer
		})
		if err != nil || got != 1 {
			b.Fatalf("stream: got=%d err=%v", got, err)
		}
	}
}

// Parallel-execution benchmarks: the same work at worker counts 1 (the
// sequential baseline) and 0 (GOMAXPROCS), so the build/search/batch
// speedups stay recorded in the perf trajectory. Outputs are deterministic
// at every worker count (see the determinism tests), so the sub-benchmarks
// do identical work.

// BenchmarkDataGraphBuildParallel measures the per-table fan-out of the
// tuple-graph build against the sequential path.
func BenchmarkDataGraphBuildParallel(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(8, 42))
	for _, workers := range []int{1, 0} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := buildGraph(db, workers)
				if g.NodeCount() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkIndexBuildParallel measures the per-table fan-out of the inverted
// index build against the sequential path.
func BenchmarkIndexBuildParallel(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(8, 42))
	for _, workers := range []int{1, 0} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := buildIndex(db, workers)
				if idx.DocCount() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// BenchmarkBANKSParallelExpansion measures the parallel per-keyword
// expansions of the BANKS engine against the sequential path.
func BenchmarkBANKSParallelExpansion(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(4, 42))
	engine, err := banks.NewWithComponents(db, buildGraph(db, 0), buildIndex(db, 0), banks.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	queries := benchSearchableQueries(b, func(kws []string) error {
		_, err := engine.SearchContext(ctx, kws, banks.Options{MaxDepth: 3, MaxResults: 20, Parallelism: 1})
		return err
	})
	for _, workers := range []int{1, 0} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := engine.SearchContext(ctx, q.Keywords, banks.Options{
						MaxDepth: 3, MaxResults: 20, Parallelism: workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPathsParallelEnumeration measures the bounded per-source fan-out
// of the paths engine against the sequential walk.
func BenchmarkPathsParallelEnumeration(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(2, 42))
	analyzer, err := core.Derive(db)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := paths.NewWithComponents(db, buildGraph(db, 0), buildIndex(db, 0), analyzer, paths.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	queries := benchSearchableQueries(b, func(kws []string) error {
		_, err := engine.SearchContext(ctx, kws, paths.Options{MaxEdges: 3, RequireAllKeywords: true, Parallelism: 1})
		return err
	})
	for _, workers := range []int{1, 0} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := engine.SearchContext(ctx, q.Keywords, paths.Options{
						MaxEdges: 3, RequireAllKeywords: true, Parallelism: workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAnnotationPipeline measures the ordered annotation pipeline of
// the paths engine — dedup on one goroutine, buildAnswer (association
// analysis, instance-level corroboration, content scoring) fanned across a
// bounded pool, order-preserving emission — against the fully sequential
// consumer. Corroboration is on, so the per-answer work dominates; the
// determinism tests guarantee both settings produce identical answers.
func BenchmarkAnnotationPipeline(b *testing.B) {
	// Scale 4 with a 4-join budget makes the corroboration walks the
	// dominant cost (roughly half to two thirds of each query), which is
	// the regime the pipeline exists for.
	db := workload.MustGenerate(workload.ScaledConfig(4, 42))
	analyzer, err := core.Derive(db)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := paths.NewWithComponents(db, buildGraph(db, 0), buildIndex(db, 0), analyzer, paths.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	queries := benchSearchableQueries(b, func(kws []string) error {
		_, err := engine.SearchContext(ctx, kws, paths.Options{
			MaxEdges: 4, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: 1,
		})
		return err
	})
	for _, workers := range []int{1, 0} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := engine.SearchContext(ctx, q.Keywords, paths.Options{
						MaxEdges: 4, RequireAllKeywords: true, InstanceCorroboration: true, Parallelism: workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchSearchableQueries filters the generated workload queries down to the
// ones the engine under test can answer, so the timed loops never measure
// the immediate-error path; it fails the benchmark when nothing is left.
func benchSearchableQueries(b *testing.B, probe func(keywords []string) error) []workload.Query {
	b.Helper()
	var out []workload.Query
	for _, q := range workload.Queries(4, 42) {
		if probe(q.Keywords) == nil {
			out = append(out, q)
		}
	}
	if len(out) == 0 {
		b.Fatal("no searchable benchmark queries")
	}
	return out
}

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s-%d", prefix, n)
}
