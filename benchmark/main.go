// Command benchmark is the repository's benchmark: it builds cmd/kwsd from
// the checkout, boots it as a subprocess per workload, drives it over
// /v1/search and /v1/mutate from two keep-alive connections, checks the
// answers against an in-process twin, and prints every metric by name and
// unit. With --trace 1 it replays the same generated inputs in-process and
// times the calls into each layer instead. README.md has the design.
//
// Usage (from the repository root, or with go run . from benchmark/):
//
//	bash benchmark/run.sh --workload hot-read --seed 1 --seconds 27 --trace 0
//	bash benchmark/run.sh --trace 1            # per-layer run, all workloads
//	bash benchmark/run.sh --aa                 # self-check: two sets must agree
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the (last) workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// lists; TestBenchmarkJSONMatchesCode keeps the two from drifting.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd are the metrics a user of kwsd would see. Every workload reports
// all of them, each reduced over its rounds by reported. The bounds are the
// most the contract allows: on the two-core sandbox the host's own speed moves by a
// tenth to a quarter between quarter-hours (README.md, "Host noise").
//
// The upper percentiles are the highest that repeat: search p99 and mutate
// p95 did not (README.md, "Which percentiles"), and are reported without a
// bound by the traced run as loadgen.search_p99_ms and loadgen.mutate_p95_ms.
var endToEnd = []metricDef{
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"mutate_p50_ms", "ms", "lower", 0.25},
	{"mutate_p75_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is one workload's end-to-end run: its rounds and what they report.
type outcome struct {
	s        spec
	rounds   []*round
	problems []string
}

// reported reduces the rounds' values of one end-to-end metric to the one the
// workload reports. The latencies and the throughput of the window report
// their best round: whatever the shared host does to the guest slows it down,
// never speeds it up, so the least disturbed round is the nearest to kwsd's
// own speed, and it is still there when two rounds of three were disturbed
// (a median gives way at two). setup_s reports the median of the rounds'
// set-ups, as the benchmark contract asks, and so does mem_peak_mb, which a
// slow phase moves either way (fewer requests in flight, later collections).
func (o *outcome) reported(m metricDef) float64 {
	vals := make([]float64, len(o.rounds))
	for i, rd := range o.rounds {
		vals[i] = rd.e2e[m.name]
	}
	if m.name == "setup_s" || m.name == "mem_peak_mb" {
		return median(vals)
	}
	return best(vals, m.better)
}

func (o *outcome) result() result {
	res := result{Correct: len(o.problems) == 0, Metrics: make(map[string]value)}
	for _, rd := range o.rounds {
		res.Attempted += rd.win.attempted()
		res.Failed += rd.win.failed
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = value{o.reported(m), m.unit}
	}
	return res
}

// runSet runs every selected workload end to end. Rounds are interleaved
// round-robin across the workloads, so the host's slow drift falls on all of
// them alike instead of on whichever ran last.
func runSet(ctx context.Context, lay layout, kwsd string, selected []spec, seed int64, window time.Duration) ([]*outcome, error) {
	runners := make([]*runner, len(selected))
	outcomes := make([]*outcome, len(selected))
	for i, s := range selected {
		r, err := newRunner(ctx, lay, kwsd, s, seed, window)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		runners[i], outcomes[i] = r, &outcome{s: s}
	}
	for n := 0; n < rounds; n++ {
		for i, r := range runners {
			rd, err := r.runRoundValid(ctx, n, n == rounds-1)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", r.s.name, n, err)
			}
			outcomes[i].rounds = append(outcomes[i].rounds, rd)
		}
	}
	for i, r := range runners {
		outcomes[i].problems = r.problems
	}
	return outcomes, nil
}

// print writes the workload's human-readable block: every end-to-end metric
// by name and unit with its per-round values, and the validity gauges.
func (o *outcome) print() {
	res := o.result()
	fmt.Printf("\nworkload %s: %d rounds, attempted %d, failed %d, correct %v\n", o.s.name, len(o.rounds), res.Attempted, res.Failed, res.Correct)
	for _, m := range endToEnd {
		fmt.Printf("  %-18s %12.4f %-4s rounds:", m.name, res.Metrics[m.name].Value, m.unit)
		for _, rd := range o.rounds {
			fmt.Printf(" %.4f", rd.e2e[m.name])
		}
		fmt.Println()
	}
	fmt.Printf("  %-18s", "samples/round")
	for _, rd := range o.rounds {
		fmt.Printf(" %d searches + %d writes, hit share %.3f, generator lag p99 %.3f ms and cpu %.1f%%;", len(rd.win.searchMS), len(rd.win.mutateMS), rd.hitRate, rd.lagP99(), rd.win.cpuPct)
	}
	fmt.Println()
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

func printResult(res result) {
	line, _ := json.Marshal(res) // plain numbers and strings cannot fail to encode
	fmt.Println(string(line))
}

// selectSpecs resolves --workload: one name or "all".
func selectSpecs(arg string) ([]spec, error) {
	if arg == "all" {
		return specs, nil
	}
	s, ok := specByName(arg)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", arg)
	}
	return []spec{s}, nil
}

// aa runs the full set twice on the same code and compares the two: the
// benchmark's own statement of how far apart two honest runs can be. It
// returns false when a workload/metric pair disagrees by more than its bound.
func aa(ctx context.Context, lay layout, kwsd string, selected []spec, seed int64, window time.Duration) (bool, error) {
	var sides [2][]*outcome
	for i := range sides {
		var err error
		if sides[i], err = runSet(ctx, lay, kwsd, selected, seed, window); err != nil {
			return false, err
		}
		for _, o := range sides[i] {
			o.print()
		}
	}
	ok := true
	fmt.Printf("\n%-32s %12s %12s %8s %6s\n", "workload/metric", "A", "B", "diff", "bound")
	for i, a := range sides[0] {
		b := sides[1][i]
		if len(a.problems)+len(b.problems) > 0 {
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := a.reported(m), b.reported(m)
			diff := (vb - va) / va
			if m.better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > m.bound || -diff > m.bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-32s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", a.s.name+"/"+m.name, va, vb, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadArg := fs.String("workload", "all", `workload name or "all"`)
	seed := fs.Int64("seed", 1, "seed of the generated op sequence (datasets are pinned by inputs.lock)")
	seconds := fs.Int("seconds", 27, "measured seconds per workload, split over the rounds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end run")
	selfCheck := fs.Bool("aa", false, "run the end-to-end set twice and compare the two against the bounds")
	writeLock := fs.Bool("write-lock", false, "print inputs.lock for the current generators and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	selected, err := selectSpecs(*workloadArg)
	if err != nil {
		return fail(err)
	}
	if *writeLock {
		return printLock()
	}
	if *seconds < rounds {
		return fail(fmt.Errorf("--seconds %d is below one second per round", *seconds))
	}
	window := time.Duration(*seconds) * time.Second / rounds
	lay, err := findLayout()
	if err != nil {
		return fail(err)
	}
	ctx := context.Background()
	kwsd, err := lay.buildKwsd()
	if err != nil {
		return fail(err)
	}

	if *trace == 1 {
		var last result
		for _, s := range selected {
			if last, err = traceWorkload(ctx, lay, kwsd, s, *seed, window); err != nil {
				return fail(fmt.Errorf("%s: %w", s.name, err))
			}
		}
		printResult(last)
		return 0
	}
	if *selfCheck {
		ok, err := aa(ctx, lay, kwsd, selected, *seed, window)
		if err != nil {
			return fail(err)
		}
		if !ok {
			fmt.Println("A/A: FAIL")
			return 1
		}
		fmt.Println("A/A: ok")
		return 0
	}
	outcomes, err := runSet(ctx, lay, kwsd, selected, *seed, window)
	if err != nil {
		return fail(err)
	}
	for _, o := range outcomes {
		o.print()
	}
	printResult(outcomes[len(outcomes)-1].result())
	return 0
}

// printLock prints the lock file for the generators as they are now. Only
// a change that redefines the benchmark may commit its output.
func printLock() int {
	lines := make(map[string]string)
	for _, s := range specs {
		t, err := newTwin(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		digests, err := t.inputDigests()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for k, v := range digests {
			lines[k] = v
		}
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, lines[k])
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:])) }
