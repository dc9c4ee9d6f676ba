// Command repro regenerates the paper's figures and tables and runs the
// extended experiments.
//
// Usage:
//
//	repro                      # all paper artifacts (Figures 1-2, Tables 1-3, MTJNT loss, ranking, ablation)
//	repro -artifact table2     # one artifact: figure1, figure2, table1, table2, table3, mtjnt, ranking, ablation
//	repro -artifact search     # the running example through the public kws API
//	repro -artifact mutate     # the live engine: Apply mutations, search across generations
//	repro -artifact scale -scales 1,2,4,8 -queries 20
//	repro -artifact engines -scale 4 -queries 20
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/paperdb"
	"repro/kws"
)

func main() {
	var (
		artifact = flag.String("artifact", "all", "artifact to regenerate: all, figure1, figure2, table1, table2, table3, mtjnt, ranking, ablation, search, mutate, scale, engines")
		scales   = flag.String("scales", "1,2,4", "comma-separated workload scales for -artifact scale")
		scale    = flag.Int("scale", 2, "workload scale for -artifact engines")
		queries  = flag.Int("queries", 10, "number of generated queries for scaled experiments")
		maxJoins = flag.Int("maxjoins", 3, "connection budget in joins for scaled experiments")
		seed     = flag.Int64("seed", 42, "random seed for workload generation")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *artifact, *scales, *scale, *queries, *maxJoins, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, artifact, scales string, scale, queries, maxJoins int, seed int64) error {
	single := map[string]func(context.Context) (experiments.Report, error){
		"figure1": experiments.Figure1,
		"figure2": experiments.Figure2,
		"table1":  experiments.Table1,
		"table2":  experiments.Table2,
		"table3":  experiments.Table3,
		"mtjnt":   experiments.MTJNTLoss,
		"ranking": experiments.RankingComparison,
	}
	switch artifact {
	case "all":
		reports, err := experiments.All(ctx)
		if err != nil {
			return err
		}
		for _, r := range reports {
			fmt.Println(r.String())
		}
		return nil
	case "ablation":
		_, r, err := experiments.Ablation(ctx)
		if err != nil {
			return err
		}
		fmt.Println(r.String())
		return nil
	case "scale":
		parsed, err := parseScales(scales)
		if err != nil {
			return err
		}
		_, r, err := experiments.ScaleExperiment(ctx, experiments.ScaleOptions{
			Scales: parsed, Queries: queries, MaxEdges: maxJoins, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(r.String())
		return nil
	case "engines":
		_, r, err := experiments.EngineComparison(ctx, scale, queries, maxJoins, seed)
		if err != nil {
			return err
		}
		fmt.Println(r.String())
		return nil
	case "search":
		return searchArtifact(ctx, maxJoins)
	case "mutate":
		return mutateArtifact(ctx, maxJoins)
	default:
		f, ok := single[artifact]
		if !ok {
			return fmt.Errorf("unknown artifact %q", artifact)
		}
		r, err := f(ctx)
		if err != nil {
			return err
		}
		fmt.Println(r.String())
		return nil
	}
}

// searchArtifact runs the paper's running example ("Smith XML") through the
// public kws API with every engine kind, printing the answers in the paper's
// Table 2-3 notation. The paper labels (d1, p1, w_f1, ...) are not wired
// into the library any more: they are passed explicitly as the labeler.
func searchArtifact(ctx context.Context, maxJoins int) error {
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(paperdb.DisplayLabel))
	if err != nil {
		return err
	}
	fmt.Println("== Running example through the public kws API: query {Smith XML} ==")
	for _, kind := range kws.RegisteredEngines() {
		results, err := engine.Search(ctx, kws.Query{
			Keywords: []string{"Smith", "XML"},
			Engine:   kind,
			Ranking:  kws.RankCloseFirst,
			MaxJoins: maxJoins,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nengine %s (%d answers):\n", kind, len(results))
		for _, r := range results {
			fmt.Printf("%2d. %-50s len(RDB)=%d len(ER)=%d close=%v\n",
				r.Rank, r.ConnectionWithCardinalities, r.RDBLength, r.ERLength, r.Close)
		}
	}
	return nil
}

// mutateArtifact demonstrates the live engine on the paper's running
// example: it applies mutation batches with Engine.Apply — hiring an
// employee, moving her between departments, firing her — and reruns the
// "Smith XML" query on every published generation, printing how the answer
// set evolves while the graph and index are maintained incrementally.
func mutateArtifact(ctx context.Context, maxJoins int) error {
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(paperdb.DisplayLabel))
	if err != nil {
		return err
	}
	show := func(header string, keywords ...string) error {
		results, err := engine.Search(ctx, kws.Query{Keywords: keywords, MaxJoins: maxJoins})
		if err != nil {
			return err
		}
		fmt.Printf("\n[generation %d] %s — query %v (%d answers):\n",
			engine.Generation(), header, keywords, len(results))
		for _, r := range results {
			fmt.Printf("%2d. %-50s close=%v\n", r.Rank, r.ConnectionWithCardinalities, r.Close)
		}
		return nil
	}
	apply := func(label string, ops ...kws.Op) error {
		gen, err := engine.Apply(ctx, kws.Mutation{Ops: ops})
		if err != nil {
			return err
		}
		fmt.Printf("\n== Apply: %s -> generation %d ==\n", label, gen)
		return nil
	}

	fmt.Println("== Live engine on the running example: incremental Apply, snapshot generations ==")
	if err := show("initial database", "Smith", "XML"); err != nil {
		return err
	}
	if err := apply("hire Zoe Smith into d3 (the history department) and assign her to p1",
		kws.Insert("EMPLOYEE", map[string]any{"SSN": "e5", "L_NAME": "Smith", "S_NAME": "Zoe", "D_ID": "d3"}),
		kws.Insert("WORKS_ON", map[string]any{"ESSN": "e5", "P_ID": "p1", "HOURS": 20}),
	); err != nil {
		return err
	}
	if err := show("Zoe reaches XML only through her p1 assignment", "Smith", "XML"); err != nil {
		return err
	}
	if err := apply("move Zoe to d1, whose description matches XML directly",
		kws.Update("EMPLOYEE", map[string]any{"SSN": "e5"}, map[string]any{"D_ID": "d1"}),
	); err != nil {
		return err
	}
	if err := show("a close d1-Zoe association appears", "Smith", "XML"); err != nil {
		return err
	}
	if err := apply("fire Zoe again (assignment first, then the employee)",
		kws.Delete("WORKS_ON", map[string]any{"ESSN": "e5", "P_ID": "p1"}),
		kws.Delete("EMPLOYEE", map[string]any{"SSN": "e5"}),
	); err != nil {
		return err
	}
	if err := show("back to the paper's Table 2 answers", "Smith", "XML"); err != nil {
		return err
	}
	return nil
}

func parseScales(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid scale %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales given")
	}
	return out, nil
}
