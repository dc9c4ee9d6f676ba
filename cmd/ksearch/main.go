// Command ksearch runs keyword queries against the built-in databases and
// prints ranked connections with their close/loose association analysis.
//
// Usage:
//
//	ksearch Smith XML
//	ksearch -db synthetic -scale 4 -ranking er-length -engine mtjnt databases Smith
//	ksearch -topk 5 -maxjoins 4 Alice XML
//	ksearch -stream -engine paths Smith XML   # print answers as they are found
//	ksearch -remote http://localhost:8080 Smith XML   # query a running kwsd
//
// With -remote the query is sent to a kwsd server over the wire format of
// docs/http-api.md instead of building a local engine; all query flags
// (-engine, -ranking, -maxjoins, -topk, -stream) work the same way.
//
// Interrupting a long search (Ctrl-C) cancels it through the query context.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"repro/internal/httpapi"
	"repro/internal/paperdb"
	"repro/kws"
)

// config carries one ksearch invocation; flags map onto it 1:1.
type config struct {
	database string
	scale    int
	seed     int64
	remote   string
	engine   kws.EngineKind
	rank     kws.RankStrategy
	maxJoins int
	topK     int
	stream   bool
	verbose  bool
	keywords []string
}

func main() {
	var (
		database = flag.String("db", "paper", `database to search: "paper" (the running example) or "synthetic"`)
		scale    = flag.Int("scale", 2, "scale factor for the synthetic database")
		seed     = flag.Int64("seed", 1, "seed for the synthetic database")
		remote   = flag.String("remote", "", "base URL of a kwsd server to query instead of building a local engine (e.g. http://localhost:8080)")
		engine   = flag.String("engine", string(kws.EnginePaths), fmt.Sprintf("search engine: %v", kws.RegisteredEngines()))
		rank     = flag.String("ranking", string(kws.RankCloseFirst), fmt.Sprintf("ranking: %v", kws.RegisteredRankers()))
		maxJoins = flag.Int("maxjoins", 3, "maximum number of joins per connection")
		topK     = flag.Int("topk", 0, "return only the top K results (0 = all)")
		stream   = flag.Bool("stream", false, "print unranked answers as they are discovered instead of waiting for the full ranking")
		verbose  = flag.Bool("v", false, "print the per-join cardinality rendering as well")
	)
	flag.Parse()
	keywords := flag.Args()
	if len(keywords) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ksearch [flags] KEYWORD [KEYWORD...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := config{
		database: *database,
		scale:    *scale,
		seed:     *seed,
		remote:   *remote,
		engine:   kws.EngineKind(*engine),
		rank:     kws.RankStrategy(*rank),
		maxJoins: *maxJoins,
		topK:     *topK,
		stream:   *stream,
		verbose:  *verbose,
		keywords: keywords,
	}
	if err := run(ctx, cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ksearch:", err)
		os.Exit(1)
	}
}

// run executes one search — locally or against a kwsd server — writing
// results to stdout and hints to stderr.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	query := kws.Query{
		Keywords: cfg.keywords,
		Engine:   cfg.engine,
		Ranking:  cfg.rank,
		MaxJoins: cfg.maxJoins,
		TopK:     cfg.topK,
	}
	if cfg.remote != "" {
		return runRemote(ctx, cfg, query, stdout, stderr)
	}
	return runLocal(ctx, cfg, query, stdout, stderr)
}

// noAnswersHint tells the user how to widen a search that came back empty:
// zero answers almost always mean the connection budget was too tight for
// the keywords' distance in the tuple graph.
func noAnswersHint(stderr io.Writer, maxJoins int) {
	fmt.Fprintf(stderr, "no answers (try -maxjoins %d)\n", maxJoins+1)
}

func runLocal(ctx context.Context, cfg config, query kws.Query, stdout, stderr io.Writer) error {
	var (
		db      *kws.Database
		labeler kws.Labeler
	)
	switch cfg.database {
	case "paper":
		db = kws.PaperExample()
		labeler = paperdb.DisplayLabel
	case "synthetic":
		db = kws.SyntheticCompany(cfg.scale, cfg.seed)
	default:
		return fmt.Errorf("unknown database %q (use paper or synthetic)", cfg.database)
	}
	e, err := kws.New(db, kws.WithLabeler(labeler))
	if err != nil {
		return err
	}
	rels, tuples, edges := e.Stats()
	fmt.Fprintf(stdout, "database: %s (%d relations, %d tuples, %d join edges)\n", cfg.database, rels, tuples, edges)
	fmt.Fprintf(stdout, "query: %v  engine: %s  ranking: %s  budget: %d joins\n\n", cfg.keywords, cfg.engine, cfg.rank, cfg.maxJoins)

	if cfg.stream {
		n := 0
		err := e.Stream(ctx, query, func(r kws.Result) bool {
			n++
			printResult(stdout, n, r, cfg.verbose)
			return true
		})
		if err != nil {
			return err
		}
		if n == 0 {
			fmt.Fprintln(stdout, "no connections found")
			noAnswersHint(stderr, cfg.maxJoins)
		}
		return nil
	}
	results, err := e.Search(ctx, query)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		fmt.Fprintln(stdout, "no connections found")
		noAnswersHint(stderr, cfg.maxJoins)
		return nil
	}
	for _, r := range results {
		printResult(stdout, r.Rank, r, cfg.verbose)
	}
	return nil
}

// runRemote sends the query to a kwsd server, speaking the wire format of
// docs/http-api.md, and prints the results exactly like a local run.
func runRemote(ctx context.Context, cfg config, query kws.Query, stdout, stderr io.Writer) error {
	q := httpapi.FromQuery(query)
	body, err := json.Marshal(httpapi.SearchRequest{Query: &q, Stream: cfg.stream})
	if err != nil {
		return err
	}
	url := strings.TrimSuffix(cfg.remote, "/") + "/v1/search"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er httpapi.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			return fmt.Errorf("remote %s: %s", resp.Status, er.Error)
		}
		return fmt.Errorf("remote %s", resp.Status)
	}
	fmt.Fprintf(stdout, "remote: %s\n", cfg.remote)
	fmt.Fprintf(stdout, "query: %v  engine: %s  ranking: %s  budget: %d joins\n\n", cfg.keywords, cfg.engine, cfg.rank, cfg.maxJoins)

	if cfg.stream {
		n := 0
		// json.Decoder handles NDJSON natively (values self-delimit) and,
		// unlike a line scanner, has no fixed line-length cap.
		dec := json.NewDecoder(resp.Body)
		for {
			var item httpapi.StreamItem
			if err := dec.Decode(&item); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("bad stream line from server: %w", err)
			}
			if item.Error != "" {
				return fmt.Errorf("remote: %s", item.Error)
			}
			n++
			printResult(stdout, n, item.Result.ToResult(), cfg.verbose)
		}
		if n == 0 {
			fmt.Fprintln(stdout, "no connections found")
			noAnswersHint(stderr, cfg.maxJoins)
		}
		return nil
	}
	var sr httpapi.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("bad response from server: %w", err)
	}
	if len(sr.Results) == 0 {
		fmt.Fprintln(stdout, "no connections found")
		noAnswersHint(stderr, cfg.maxJoins)
		return nil
	}
	for _, r := range sr.Results {
		printResult(stdout, r.Rank, r.ToResult(), cfg.verbose)
	}
	fmt.Fprintf(stdout, "\n(generation %d, cached: %v)\n", sr.Generation, sr.Cached)
	return nil
}

func printResult(w io.Writer, position int, r kws.Result, verbose bool) {
	closeness := "loose"
	if r.Close {
		closeness = "close"
	} else if r.CorroboratedAtInstance {
		closeness = "loose (close at instance level)"
	}
	fmt.Fprintf(w, "%2d. %s\n", position, r.Connection)
	fmt.Fprintf(w, "    len(RDB)=%d len(ER)=%d class=%s association=%s score=%.2f\n",
		r.RDBLength, r.ERLength, r.Class, closeness, r.Score)
	if verbose {
		fmt.Fprintf(w, "    %s\n", r.ConnectionWithCardinalities)
	}
}
