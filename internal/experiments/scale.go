package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/paperdb"
	"repro/internal/ranking"
	"repro/internal/search/banks"
	"repro/internal/search/mtjnt"
	"repro/internal/search/paths"
	"repro/internal/workload"
)

// ScaleOptions configure the scaled-up experiments.
type ScaleOptions struct {
	// Scales are the workload scale factors to sweep (see
	// workload.ScaledConfig).
	Scales []int
	// Queries is the number of generated two-keyword queries per scale.
	Queries int
	// MaxEdges is the join budget of the engines.
	MaxEdges int
	// Seed drives the workload and query generators.
	Seed int64
}

// DefaultScaleOptions returns a sweep small enough for tests but large
// enough to show the trends; cmd/repro uses larger scales.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{Scales: []int{1, 2, 4}, Queries: 8, MaxEdges: 3, Seed: 42}
}

// ScaleResult is the aggregate outcome of one scale point.
type ScaleResult struct {
	Scale          int
	Tuples         int
	QueriesRun     int
	QueriesSkipped int
	PathAnswers    int
	MTJNTAnswers   int
	LostAnswers    int
	LostClose      int // lost answers that are close or corroborated at the instance level
	CloseAnswers   int
	LooseAnswers   int
	Corroborated   int
	PathElapsed    time.Duration
	MTJNTElapsed   time.Duration
}

// LossRate is the fraction of path-engine answers that the MTJNT principle
// drops.
func (r ScaleResult) LossRate() float64 {
	if r.PathAnswers == 0 {
		return 0
	}
	return float64(r.LostAnswers) / float64(r.PathAnswers)
}

// ScaleExperiment sweeps database sizes and measures, per scale, how many
// answers the connection-enumeration engine finds, how many of them the
// MTJNT principle loses, and how the close/loose split evolves. This turns
// the paper's qualitative claim ("MTJNT loses semantic connections or
// fragments the results") into a measurable loss rate.
func ScaleExperiment(ctx context.Context, opts ScaleOptions) ([]ScaleResult, Report, error) {
	if len(opts.Scales) == 0 {
		opts = DefaultScaleOptions()
	}
	var results []ScaleResult
	r := Report{ID: "scale", Title: "MTJNT answer loss and closeness distribution versus database size"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-7s %-8s %-9s %-12s %-13s %-10s %-11s %-8s %-8s %-13s",
		"scale", "tuples", "queries", "pathAnswers", "mtjntAnswers", "lost", "lossRate", "close", "loose", "corroborated"))
	for _, scale := range opts.Scales {
		db := workload.MustGenerate(workload.ScaledConfig(scale, opts.Seed))
		g, idx, analyzer, err := buildComponents(db)
		if err != nil {
			return nil, Report{}, err
		}
		pathOpts := paths.Options{MaxEdges: opts.MaxEdges, RequireAllKeywords: true, InstanceCorroboration: true}
		pathEngine, err := paths.NewWithComponents(db, g, idx, analyzer, pathOpts)
		if err != nil {
			return nil, Report{}, err
		}
		mtjntOpts := mtjnt.Options{MaxEdges: opts.MaxEdges}
		mtjntEngine, err := mtjnt.NewWithComponents(db, g, idx, mtjntOpts)
		if err != nil {
			return nil, Report{}, err
		}
		res := ScaleResult{Scale: scale, Tuples: db.TupleCount()}
		for _, q := range workload.Queries(opts.Queries, opts.Seed+int64(scale)) {
			start := time.Now()
			answers, err := pathEngine.SearchContext(ctx, q.Keywords, pathOpts)
			res.PathElapsed += time.Since(start)
			var minimal []mtjnt.Network
			if err == nil {
				start = time.Now()
				minimal, err = mtjntEngine.SearchContext(ctx, q.Keywords, mtjntOpts)
				res.MTJNTElapsed += time.Since(start)
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, Report{}, cerr
			}
			if err != nil {
				// A keyword may not occur at this scale; skip the query.
				res.QueriesSkipped++
				continue
			}
			res.QueriesRun++
			kept := make(map[string]bool, len(minimal))
			for _, n := range minimal {
				kept[n.Connection.Key()] = true
			}
			res.PathAnswers += len(answers)
			res.MTJNTAnswers += len(minimal)
			for _, a := range answers {
				if a.Analysis.Close {
					res.CloseAnswers++
				} else {
					res.LooseAnswers++
				}
				if a.Analysis.CorroboratedAtInstance {
					res.Corroborated++
				}
				if !kept[a.Connection.Key()] {
					res.LostAnswers++
					if a.Analysis.Close || a.Analysis.CorroboratedAtInstance {
						res.LostClose++
					}
				}
			}
		}
		results = append(results, res)
		r.Lines = append(r.Lines, fmt.Sprintf("%-7d %-8d %-9d %-12d %-13d %-10d %-11.2f %-8d %-8d %-13d",
			res.Scale, res.Tuples, res.QueriesRun, res.PathAnswers, res.MTJNTAnswers,
			res.LostAnswers, res.LossRate(), res.CloseAnswers, res.LooseAnswers, res.Corroborated))
	}
	return results, r, nil
}

// EngineResult is the outcome of one engine on the engine-comparison
// experiment.
type EngineResult struct {
	Engine  string
	Answers int
	Elapsed time.Duration
	Queries int
	Skipped int
}

// EngineComparison runs the three engines (connection enumeration, MTJNT,
// BANKS backward expansion) over the same generated workload and reports
// answer counts and total latency. It quantifies the cost of returning the
// richer answer sets the paper advocates.
func EngineComparison(ctx context.Context, scale, queries int, maxEdges int, seed int64) ([]EngineResult, Report, error) {
	db := workload.MustGenerate(workload.ScaledConfig(scale, seed))
	g, idx, analyzer, err := buildComponents(db)
	if err != nil {
		return nil, Report{}, err
	}
	pathOpts := paths.Options{MaxEdges: maxEdges, RequireAllKeywords: true, InstanceCorroboration: false}
	pathEngine, err := paths.NewWithComponents(db, g, idx, analyzer, pathOpts)
	if err != nil {
		return nil, Report{}, err
	}
	mtjntOpts := mtjnt.Options{MaxEdges: maxEdges}
	mtjntEngine, err := mtjnt.NewWithComponents(db, g, idx, mtjntOpts)
	if err != nil {
		return nil, Report{}, err
	}
	banksOpts := banks.Options{MaxDepth: maxEdges, MaxResults: 20}
	banksEngine, err := banks.NewWithComponents(db, g, idx, banksOpts)
	if err != nil {
		return nil, Report{}, err
	}
	qs := workload.Queries(queries, seed)
	results := []EngineResult{{Engine: "paths"}, {Engine: "mtjnt"}, {Engine: "banks"}}
	run := func(i int, search func([]string) (int, error)) {
		for _, q := range qs {
			start := time.Now()
			n, err := search(q.Keywords)
			results[i].Elapsed += time.Since(start)
			if err != nil {
				results[i].Skipped++
				continue
			}
			results[i].Queries++
			results[i].Answers += n
		}
	}
	run(0, func(kw []string) (int, error) {
		a, err := pathEngine.SearchContext(ctx, kw, pathOpts)
		return len(a), err
	})
	run(1, func(kw []string) (int, error) {
		a, err := mtjntEngine.SearchContext(ctx, kw, mtjntOpts)
		return len(a), err
	})
	run(2, func(kw []string) (int, error) {
		a, err := banksEngine.SearchContext(ctx, kw, banksOpts)
		return len(a), err
	})
	// A cancelled run fails every remaining query fast and would read as a
	// table of skips; report it as what it is.
	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}

	r := Report{ID: "engines", Title: fmt.Sprintf("Engine comparison (scale %d, %d queries, budget %d joins)", scale, queries, maxEdges)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-8s %-9s %-9s %-9s %s", "engine", "queries", "skipped", "answers", "elapsed"))
	for _, res := range results {
		r.Lines = append(r.Lines, fmt.Sprintf("%-8s %-9d %-9d %-9d %v", res.Engine, res.Queries, res.Skipped, res.Answers, res.Elapsed.Round(time.Microsecond)))
	}
	return results, r, nil
}

// AblationResult records the rank assigned to the paper's connections under
// one ranking configuration.
type AblationResult struct {
	Strategy string
	// RankOfConnection4 and RankOfConnection7 are the positions of the two
	// corroborated loose connections; RankOfConnection6 the uncorroborated
	// one. Lower is better.
	RankOfConnection2 int
	RankOfConnection4 int
	RankOfConnection6 int
	RankOfConnection7 int
}

// Ablation compares ranking configurations on the paper's running example:
// counting middle relations (RDB length) versus collapsing them (ER length),
// and adding the looseness penalty. It shows which design choices move the
// close-association-preserving connections 2, 4 and 7 up and the loose
// connection 6 down.
func Ablation(ctx context.Context) ([]AblationResult, Report, error) {
	engine, _, err := paperEngines()
	if err != nil {
		return nil, Report{}, err
	}
	answers, err := paperAnswers(ctx, engine, paperdb.QuerySmithXML, 3)
	if err != nil {
		return nil, Report{}, err
	}
	items := make([]ranking.Item, len(answers))
	byName := make(map[string]string, len(answers))
	for i, a := range answers {
		items[i] = ranking.Item{Analysis: a.Analysis, Content: a.ContentScore}
		byName[a.Connection.Key()] = a.Connection.Format(paperdb.DisplayLabel, a.Matches)
	}
	findRank := func(ranked []ranking.Ranked, needle string) int {
		for _, rk := range ranked {
			name := byName[rk.Item.Analysis.Connection.Key()]
			if name == needle || name == reverseDashes(needle) {
				return rk.Rank
			}
		}
		return -1
	}
	strategies := []ranking.Scorer{
		ranking.RDBLength{},
		ranking.ERLength{},
		ranking.LoosenessPenalty{Lambda: 1},
		ranking.CloseFirst{},
		ranking.HubPenalty{Weight: 0.1},
	}
	var results []AblationResult
	r := Report{ID: "ablation", Title: "Ablation: ranks of connections 2, 4, 6 and 7 under each ranking configuration"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-28s %-8s %-8s %-8s %-8s", "strategy", "conn2", "conn4", "conn6", "conn7"))
	for _, s := range strategies {
		ranked := ranking.Rank(items, s)
		res := AblationResult{
			Strategy:          s.Name(),
			RankOfConnection2: findRank(ranked, "p1(XML) - w_f1 - e1(Smith)"),
			RankOfConnection4: findRank(ranked, "d1(XML) - p1(XML) - w_f1 - e1(Smith)"),
			RankOfConnection6: findRank(ranked, "p2(XML) - d2(XML) - e2(Smith)"),
			RankOfConnection7: findRank(ranked, "d2(XML) - p3 - w_f2 - e2(Smith)"),
		}
		results = append(results, res)
		r.Lines = append(r.Lines, fmt.Sprintf("%-28s %-8d %-8d %-8d %-8d",
			res.Strategy, res.RankOfConnection2, res.RankOfConnection4, res.RankOfConnection6, res.RankOfConnection7))
	}
	return results, r, nil
}

// reverseDashes flips "a - b - c" to "c - b - a" so connection lookups are
// direction-insensitive.
func reverseDashes(s string) string {
	parts := strings.Split(s, " - ")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " - ")
}

// All runs every paper-artifact experiment (not the scaled sweeps) and
// returns the reports in presentation order.
func All(ctx context.Context) ([]Report, error) {
	var out []Report
	for _, f := range []func(context.Context) (Report, error){Figure1, Figure2, Table1, Table2, Table3, MTJNTLoss, RankingComparison} {
		r, err := f(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	_, abl, err := Ablation(ctx)
	if err != nil {
		return nil, err
	}
	out = append(out, abl)
	return out, nil
}
