package kws_test

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/kws"
)

// ExampleEngine_Search runs the paper's running query — which employees
// named Smith connect to something about XML? — and prints the ranked
// connections with their association verdicts.
func ExampleEngine_Search() {
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		panic(err)
	}
	results, err := engine.Search(context.Background(), kws.Query{
		Keywords: []string{"Smith", "XML"},
		Ranking:  kws.RankCloseFirst,
		MaxJoins: 3,
		TopK:     3,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%d. %s close=%v\n", r.Rank, r.Connection, r.Close)
	}
	// Output:
	// 1. e1(Smith) - d1(XML) close=true
	// 2. e2(Smith) - d2(XML) close=true
	// 3. e1(Smith) - w_f1 - p1(XML) close=true
}

// ExampleEngine_Apply mutates the live engine: the insert publishes a new
// generation, immediately searchable, without rebuilding the graph or the
// index.
func ExampleEngine_Apply() {
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	gen, err := engine.Apply(ctx, kws.Mutation{Ops: []kws.Op{
		kws.Insert("EMPLOYEE", map[string]any{
			"SSN": "e5", "L_NAME": "Turing", "S_NAME": "Alan", "D_ID": "d1",
		}),
	}})
	if err != nil {
		panic(err)
	}
	fmt.Println("generation:", gen)
	fmt.Println("matches:", engine.Match("Turing"))
	// Output:
	// generation: 1
	// matches: [e5]
}

// ExampleCache fronts an engine with the generation-keyed result cache: the
// second identical query is a hit, and a mutation implicitly invalidates it
// by publishing a new generation.
func ExampleCache() {
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		panic(err)
	}
	cache := kws.NewCache(engine, kws.CacheOptions{MaxBytes: 1 << 20})
	ctx := context.Background()
	q := kws.Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}

	if _, info, err := cache.SearchInfo(ctx, q); err == nil {
		fmt.Printf("first: hit=%v generation=%d\n", info.Hit, info.Generation)
	}
	if _, info, err := cache.SearchInfo(ctx, q); err == nil {
		fmt.Printf("second: hit=%v generation=%d\n", info.Hit, info.Generation)
	}
	// A mutation publishes generation 1; the cached generation-0 entry is
	// simply never looked up again.
	if _, err := engine.Apply(ctx, kws.Mutation{Ops: []kws.Op{
		kws.Delete("DEPENDENT", map[string]any{"ID": "t2"}),
	}}); err != nil {
		panic(err)
	}
	if _, info, err := cache.SearchInfo(ctx, q); err == nil {
		fmt.Printf("after mutation: hit=%v generation=%d\n", info.Hit, info.Generation)
	}
	st := cache.Stats()
	fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// first: hit=false generation=0
	// second: hit=true generation=0
	// after mutation: hit=false generation=1
	// hits=1 misses=2
}

// Example_quickstart runs the paper's "Smith XML" query on its running
// example and prints the ranked connections with their close/loose
// analysis, then the same query ranked by raw join count, then the first
// answers streamed as they are discovered. One engine serves every query;
// the ranking is a per-query option.
func Example_quickstart() {
	ctx := context.Background()

	// The paper's Figure 2 database: departments, projects, employees, the
	// WORKS_ON assignments and dependents. The paper's tuple labels (d1,
	// p1, w_f1, ...) are opt-in through the labeler option.
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		panic(err)
	}

	// Enumerate connections up to 3 joins and rank close associations
	// first (the paper's proposal).
	query := kws.Query{
		Keywords: []string{"Smith", "XML"},
		Ranking:  kws.RankCloseFirst,
		MaxJoins: 3,
	}
	results, err := engine.Search(ctx, query)
	if err != nil {
		panic(err)
	}

	fmt.Println("query: Smith XML")
	for _, r := range results {
		association := "loose"
		if r.Close {
			association = "close"
		} else if r.CorroboratedAtInstance {
			association = "loose (but close at the instance level)"
		}
		fmt.Printf("%2d. %-45s len(RDB)=%d len(ER)=%d  %s\n",
			r.Rank, r.Connection, r.RDBLength, r.ERLength, association)
	}

	// Compare with the ranking a conventional system would use (number of
	// joins in the relational database) — same engine, different Query.
	query.Ranking = kws.RankRDBLength
	results, err = engine.Search(ctx, query)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nsame query ranked by raw join count:")
	for _, r := range results {
		fmt.Printf("%2d. %s\n", r.Rank, r.Connection)
	}

	// Streaming: answers arrive in discovery order, before the enumeration
	// finishes — no ranks, but no waiting either.
	fmt.Println("\nfirst three answers, streamed as they are discovered:")
	query.TopK = 3
	if err := engine.Stream(ctx, query, func(r kws.Result) bool {
		fmt.Printf("  - %s\n", r.Connection)
		return true
	}); err != nil {
		panic(err)
	}
	// Output:
	// query: Smith XML
	//  1. e1(Smith) - d1(XML)                           len(RDB)=1 len(ER)=1  close
	//  2. e2(Smith) - d2(XML)                           len(RDB)=1 len(ER)=1  close
	//  3. e1(Smith) - w_f1 - p1(XML)                    len(RDB)=2 len(ER)=1  close
	//  4. e1(Smith) - w_f1 - p1(XML) - d1(XML)          len(RDB)=3 len(ER)=2  loose (but close at the instance level)
	//  5. e2(Smith) - w_f2 - p3 - d2(XML)               len(RDB)=3 len(ER)=2  loose (but close at the instance level)
	//  6. e1(Smith) - d1(XML) - p1(XML)                 len(RDB)=2 len(ER)=2  loose (but close at the instance level)
	//  7. e2(Smith) - d2(XML) - p2(XML)                 len(RDB)=2 len(ER)=2  loose
	//
	// same query ranked by raw join count:
	//  1. e1(Smith) - d1(XML)
	//  2. e2(Smith) - d2(XML)
	//  3. e1(Smith) - d1(XML) - p1(XML)
	//  4. e1(Smith) - w_f1 - p1(XML)
	//  5. e2(Smith) - d2(XML) - p2(XML)
	//  6. e1(Smith) - w_f1 - p1(XML) - d1(XML)
	//  7. e2(Smith) - w_f2 - p3 - d2(XML)
	//
	// first three answers, streamed as they are discovered:
	//   - e1(Smith) - d1(XML)
	//   - e1(Smith) - w_f1 - p1(XML) - d1(XML)
	//   - e1(Smith) - d1(XML) - p1(XML)
}

// ExampleEngine_Search_batch answers several keyword queries over one shared
// engine. Every query carries its own options — here each one picks a
// different search engine or ranking — and a failing query reports its own
// error without affecting the others.
func ExampleEngine_Search_batch() {
	ctx := context.Background()
	engine, err := kws.New(kws.PaperExample(),
		kws.WithLabeler(kws.PaperLabeler()),
		kws.WithParallelism(4),
	)
	if err != nil {
		panic(err)
	}

	// Heterogeneous queries: different engines, rankings and budgets — plus
	// a deliberately broken one to show per-query errors.
	queries := []kws.Query{
		{Keywords: []string{"Smith", "XML"}, Ranking: kws.RankCloseFirst, MaxJoins: 3},
		{Keywords: []string{"Smith", "XML"}, Engine: kws.EngineMTJNT, MaxJoins: 3},
		{Keywords: []string{"Smith", "XML"}, Engine: kws.EngineBANKS, MaxJoins: 3},
		{Keywords: []string{"Alice", "XML"}, Ranking: kws.RankERLength, MaxJoins: 3},
		{Keywords: []string{"zzz-no-such-keyword"}},
	}
	for i, q := range queries {
		fmt.Printf("query %d %v:\n", i+1, q.Keywords)
		results, err := engine.Search(ctx, q)
		if err != nil {
			fmt.Printf("  error: %v\n", err)
			continue
		}
		for _, r := range results {
			fmt.Printf("  %2d. %s\n", r.Rank, r.Connection)
		}
	}
	// Output:
	// query 1 [Smith XML]:
	//    1. e1(Smith) - d1(XML)
	//    2. e2(Smith) - d2(XML)
	//    3. e1(Smith) - w_f1 - p1(XML)
	//    4. e1(Smith) - w_f1 - p1(XML) - d1(XML)
	//    5. e2(Smith) - w_f2 - p3 - d2(XML)
	//    6. e1(Smith) - d1(XML) - p1(XML)
	//    7. e2(Smith) - d2(XML) - p2(XML)
	// query 2 [Smith XML]:
	//    1. e1(Smith) - d1(XML)
	//    2. e2(Smith) - d2(XML)
	//    3. e1(Smith) - w_f1 - p1(XML)
	// query 3 [Smith XML]:
	//    1. e1(Smith) - d1(XML)
	//    2. e2(Smith) - d2(XML)
	//    3. e1(Smith) - w_f1 - p1(XML)
	//    4. e1(Smith) - d1(XML) - p1(XML)
	//    5. e2(Smith) - d2(XML) - p2(XML)
	//    6. e1(Smith) - d1(XML) - e3 - w_f3 - p2(XML)
	// query 4 [Alice XML]:
	//    1. t1(Alice) - e3 - d1(XML)
	//    2. t1(Alice) - e3 - w_f3 - p2(XML)
	//    3. t1(Alice) - e3 - d1(XML) - p1(XML)
	// query 5 [zzz-no-such-keyword]:
	//   error: paths: keyword "zzz-no-such-keyword" matches no tuple
}

// buildBibliography builds a custom bibliographic database (authors, papers,
// venues and an authorship junction) through the public API.
func buildBibliography() (*kws.Database, error) {
	db := kws.NewDatabase("bibliography")
	tables := []kws.TableSpec{
		{
			Name: "VENUE",
			Columns: []kws.ColumnSpec{
				{Name: "ID", Type: "string"},
				{Name: "NAME", Type: "string"},
				{Name: "SCOPE", Type: "text", Nullable: true},
			},
			PrimaryKey: []string{"ID"},
		},
		{
			Name: "AUTHOR",
			Columns: []kws.ColumnSpec{
				{Name: "ID", Type: "string"},
				{Name: "NAME", Type: "string"},
				{Name: "AFFILIATION", Type: "text", Nullable: true},
			},
			PrimaryKey: []string{"ID"},
		},
		{
			Name: "PAPER",
			Columns: []kws.ColumnSpec{
				{Name: "ID", Type: "string"},
				{Name: "VENUE_ID", Type: "string"},
				{Name: "TITLE", Type: "string"},
				{Name: "ABSTRACT", Type: "text", Nullable: true},
			},
			PrimaryKey: []string{"ID"},
			ForeignKeys: []kws.ForeignKeySpec{
				{Name: "PUBLISHED_AT", Columns: []string{"VENUE_ID"}, RefTable: "VENUE", RefColumns: []string{"ID"}},
			},
		},
		{
			// The junction implementing the N:M authorship relationship;
			// like WORKS_ON in the paper it must not add to the
			// conceptual length of a connection.
			Name: "AUTHORED",
			Columns: []kws.ColumnSpec{
				{Name: "AUTHOR_ID", Type: "string"},
				{Name: "PAPER_ID", Type: "string"},
			},
			PrimaryKey: []string{"AUTHOR_ID", "PAPER_ID"},
			ForeignKeys: []kws.ForeignKeySpec{
				{Name: "AUTHORED_AUTHOR", Columns: []string{"AUTHOR_ID"}, RefTable: "AUTHOR", RefColumns: []string{"ID"}},
				{Name: "AUTHORED_PAPER", Columns: []string{"PAPER_ID"}, RefTable: "PAPER", RefColumns: []string{"ID"}},
			},
		},
	}
	for _, t := range tables {
		if err := db.AddTable(t); err != nil {
			return nil, err
		}
	}
	rows := []struct {
		table string
		row   map[string]any
	}{
		{"VENUE", map[string]any{"ID": "v1", "NAME": "VLDB", "SCOPE": "very large data bases, keyword search, query processing"}},
		{"VENUE", map[string]any{"ID": "v2", "NAME": "SIGMOD", "SCOPE": "management of data, relational systems"}},
		{"AUTHOR", map[string]any{"ID": "a1", "NAME": "Hristidis", "AFFILIATION": "keyword search over relational databases"}},
		{"AUTHOR", map[string]any{"ID": "a2", "NAME": "Bhalotia", "AFFILIATION": "graph search in databases"}},
		{"AUTHOR", map[string]any{"ID": "a3", "NAME": "Kargar", "AFFILIATION": "meaningful keyword search with complex schemas"}},
		{"PAPER", map[string]any{"ID": "p1", "VENUE_ID": "v1", "TITLE": "DISCOVER keyword search", "ABSTRACT": "minimal total joining networks of tuples for keyword queries"}},
		{"PAPER", map[string]any{"ID": "p2", "VENUE_ID": "v1", "TITLE": "BANKS browsing and keyword searching", "ABSTRACT": "backward expanding search over tuple graphs"}},
		{"PAPER", map[string]any{"ID": "p3", "VENUE_ID": "v2", "TITLE": "MeanKS meaningful keyword search", "ABSTRACT": "role-aware ranking for keyword search"}},
		{"AUTHORED", map[string]any{"AUTHOR_ID": "a1", "PAPER_ID": "p1"}},
		{"AUTHORED", map[string]any{"AUTHOR_ID": "a2", "PAPER_ID": "p2"}},
		{"AUTHORED", map[string]any{"AUTHOR_ID": "a3", "PAPER_ID": "p3"}},
	}
	for _, r := range rows {
		if err := db.Insert(r.table, r.row); err != nil {
			return nil, err
		}
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

// Example_bibliography searches a custom bibliographic schema, showing how
// the close/loose analysis carries over to schemas other than the paper's
// running example — including streaming the answers of a query as they are
// discovered.
func Example_bibliography() {
	ctx := context.Background()
	db, err := buildBibliography()
	if err != nil {
		panic(err)
	}
	// The engine-level defaults cover all queries below; each Search could
	// still override them per call.
	engine, err := kws.New(db, kws.WithDefaults(kws.Config{
		Ranking:  kws.RankCloseFirst,
		MaxJoins: 4,
	}))
	if err != nil {
		panic(err)
	}

	queries := [][]string{
		{"Hristidis", "keyword"},
		{"Bhalotia", "VLDB"},
		{"Kargar", "keyword"},
	}
	for _, q := range queries {
		fmt.Printf("query: %v\n", q)
		results, err := engine.Search(ctx, kws.Query{Keywords: q})
		if err != nil {
			fmt.Printf("  (%v)\n\n", err)
			continue
		}
		for _, r := range results {
			association := "loose"
			if r.Close {
				association = "close"
			} else if r.CorroboratedAtInstance {
				association = "loose, close at instance level"
			}
			fmt.Printf("  %2d. %-75s len(ER)=%d  %s\n", r.Rank, r.Connection, r.ERLength, association)
		}
		fmt.Println()
	}

	// Demonstrate the conceptual-length point on this schema: an author
	// connected to a venue through AUTHORED + PAPER is 3 joins in the RDB
	// but only 2 relationships at the ER level. Stream the answers as the
	// enumeration discovers them.
	fmt.Println("author-to-venue connections, streamed (note ER length vs RDB length):")
	err = engine.Stream(ctx, kws.Query{Keywords: []string{"Hristidis", "VLDB"}}, func(r kws.Result) bool {
		fmt.Printf("  - %-75s len(RDB)=%d len(ER)=%d\n", r.Connection, r.RDBLength, r.ERLength)
		return true
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// query: [Hristidis keyword]
	//    1. AUTHOR[a1](Hristidis,keyword)                                               len(ER)=0  close
	//    2. AUTHOR[a1](Hristidis,keyword) - AUTHORED[a1p1] - PAPER[p1](keyword)        len(ER)=1  close
	//    3. AUTHOR[a1](Hristidis,keyword) - AUTHORED[a1p1] - PAPER[p1](keyword) - VENUE[v1](keyword) len(ER)=2  loose
	//    4. AUTHOR[a1](Hristidis,keyword) - AUTHORED[a1p1] - PAPER[p1](keyword) - VENUE[v1](keyword) - PAPER[p2](keyword) len(ER)=3  loose
	//
	// query: [Bhalotia VLDB]
	//    1. AUTHOR[a2](Bhalotia) - AUTHORED[a2p2] - PAPER[p2] - VENUE[v1](VLDB)        len(ER)=2  loose
	//
	// query: [Kargar keyword]
	//    1. AUTHOR[a3](Kargar,keyword)                                                  len(ER)=0  close
	//    2. AUTHOR[a3](Kargar,keyword) - AUTHORED[a3p3] - PAPER[p3](keyword)           len(ER)=1  close
	//
	// author-to-venue connections, streamed (note ER length vs RDB length):
	//   - AUTHOR[a1](Hristidis) - AUTHORED[a1p1] - PAPER[p1] - VENUE[v1](VLDB)       len(RDB)=3 len(ER)=2
}

// ExampleEngine_Apply_live mutates the database underneath a running engine
// while a concurrent reader keeps searching. Apply maintains the tuple graph
// and the keyword index incrementally (no rebuild) and publishes each batch
// as a new immutable generation; readers never block and never see a
// half-applied batch — an in-flight Search finishes on the generation it
// started on.
func ExampleEngine_Apply_live() {
	ctx := context.Background()
	db := kws.PaperExample()
	engine, err := kws.New(db, kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		panic(err)
	}

	// The database froze when the engine took ownership: direct writes
	// through the facade fail loudly instead of silently diverging from the
	// engine's graph and index — all changes go through Engine.Apply.
	if err := db.Insert("EMPLOYEE", map[string]any{"SSN": "e9"}); err != nil {
		fmt.Println("direct insert rejected:", err)
	}

	// A background reader hammers the engine while we mutate it. Each Search
	// call reads one consistent generation.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := engine.Search(ctx, kws.Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}); err != nil {
				panic(err)
			}
		}
	}()

	report := func(header string) {
		results, err := engine.Search(ctx, kws.Query{Keywords: []string{"Turing", "XML"}, MaxJoins: 3})
		if err != nil {
			// A keyword matching nothing is an error under AND semantics;
			// that is expected before the insert below.
			fmt.Printf("generation %d, %s: %v\n", engine.Generation(), header, err)
			return
		}
		fmt.Printf("generation %d, %s: %d answers\n", engine.Generation(), header, len(results))
		for _, r := range results {
			fmt.Printf("  %2d. %s\n", r.Rank, r.ConnectionWithCardinalities)
		}
	}

	report("before any mutation")

	// Batched, atomic, incremental: insert an employee and her assignment.
	// Later ops of a batch see earlier ones; on any error nothing publishes.
	if _, err := engine.Apply(ctx, kws.Mutation{Ops: []kws.Op{
		kws.Insert("EMPLOYEE", map[string]any{"SSN": "e5", "L_NAME": "Turing", "S_NAME": "Alan", "D_ID": "d1"}),
		kws.Insert("WORKS_ON", map[string]any{"ESSN": "e5", "P_ID": "p1", "HOURS": 35}),
	}}); err != nil {
		panic(err)
	}
	report("after hiring Turing")

	// Update re-resolves foreign keys and rewrites postings for the tuple.
	if _, err := engine.Apply(ctx, kws.Mutation{Ops: []kws.Op{
		kws.Update("EMPLOYEE", map[string]any{"SSN": "e5"}, map[string]any{"D_ID": "d2"}),
	}}); err != nil {
		panic(err)
	}
	report("after moving Turing to d2")

	// Deletes drop the tuple from the graph and the index; references to it
	// dangle harmlessly and would re-resolve if the key came back.
	if _, err := engine.Apply(ctx, kws.Mutation{Ops: []kws.Op{
		kws.Delete("WORKS_ON", map[string]any{"ESSN": "e5", "P_ID": "p1"}),
		kws.Delete("EMPLOYEE", map[string]any{"SSN": "e5"}),
	}}); err != nil {
		panic(err)
	}
	report("after firing Turing")

	close(stop)
	wg.Wait()
	// Output:
	// direct insert rejected: kws: database is frozen by an engine; apply changes through Engine.Apply
	// generation 0, before any mutation: paths: keyword "Turing" matches no tuple
	// generation 1, after hiring Turing: 4 answers
	//    1. e5(Turing) N:1 d1(XML)
	//    2. e5(Turing) 1:N WORKS_ON[e5p1] N:1 p1(XML)
	//    3. e5(Turing) 1:N WORKS_ON[e5p1] N:1 p1(XML) N:1 d1(XML)
	//    4. e5(Turing) N:1 d1(XML) 1:N p1(XML)
	// generation 2, after moving Turing to d2: 4 answers
	//    1. e5(Turing) N:1 d2(XML)
	//    2. e5(Turing) 1:N WORKS_ON[e5p1] N:1 p1(XML)
	//    3. e5(Turing) 1:N WORKS_ON[e5p1] N:1 p1(XML) N:1 d1(XML)
	//    4. e5(Turing) N:1 d2(XML) 1:N p2(XML)
	// generation 3, after firing Turing: paths: keyword "Turing" matches no tuple
}

// Example_mtjntLoss generates synthetic company databases of increasing
// size, runs two-keyword queries with both the connection enumeration engine
// and the MTJNT baseline, and reports how many answers — and how many close
// associations — the MTJNT principle drops as the database grows. One engine
// per database serves both strategies: the engine kind is a per-query
// option.
func Example_mtjntLoss() {
	ctx := context.Background()
	queries := [][]string{
		{"Smith", "XML"},
		{"Miller", "databases"},
		{"Virtanen", "information"},
		{"Walker", "security"},
		{"Korhonen", "networks"},
	}

	fmt.Printf("%-7s %-8s %-14s %-14s %-8s %s\n",
		"scale", "tuples", "pathAnswers", "mtjntAnswers", "lost", "lostClose")
	for _, scale := range []int{1, 2, 4, 8} {
		engine, err := kws.New(kws.SyntheticCompany(scale, 7))
		if err != nil {
			panic(err)
		}
		_, tuples, _ := engine.Stats()

		var pathAnswers, mtjntAnswers, lost, lostClose int
		for _, q := range queries {
			all, err := engine.Search(ctx, kws.Query{Keywords: q, Engine: kws.EnginePaths, MaxJoins: 3})
			if err != nil {
				continue // the keyword may not occur at this scale
			}
			minimal, err := engine.Search(ctx, kws.Query{Keywords: q, Engine: kws.EngineMTJNT, MaxJoins: 3})
			if err != nil {
				continue
			}
			kept := make(map[string]bool, len(minimal))
			for _, r := range minimal {
				kept[r.Connection] = true
			}
			pathAnswers += len(all)
			mtjntAnswers += len(minimal)
			for _, r := range all {
				if !kept[r.Connection] {
					lost++
					if r.Close || r.CorroboratedAtInstance {
						lostClose++
					}
				}
			}
		}
		fmt.Printf("%-7d %-8d %-14d %-14d %-8d %d\n",
			scale, tuples, pathAnswers, mtjntAnswers, lost, lostClose)
	}

	fmt.Println("\nlost       = answers returned by connection enumeration but not by MTJNT")
	fmt.Println("lostClose  = lost answers whose association is close (or close at the instance level)")
	// Output:
	// scale   tuples   pathAnswers    mtjntAnswers   lost     lostClose
	// 1       41       5              5              0        0
	// 2       195      13             13             0        0
	// 4       335      40             36             4        4
	// 8       690      65             56             9        8
	//
	// lost       = answers returned by connection enumeration but not by MTJNT
	// lostClose  = lost answers whose association is close (or close at the instance level)
}

// Example_university walks through the whole running example of the paper
// end to end — the database instance, the keyword matches, every connection
// of Table 2 with its RDB and ER lengths, the close/loose verdicts, and the
// answers that disappear when only minimal joining networks (MTJNT) are
// returned. A single engine serves every query; the join budget and the
// engine kind vary per call.
func Example_university() {
	ctx := context.Background()
	db := kws.PaperExample()

	fmt.Println("=== The database instance (Figure 2) ===")
	var dump strings.Builder
	if err := db.Dump(&dump); err != nil {
		panic(err)
	}
	// The aligned dump pads its last column; an Output block cannot hold
	// trailing blanks, so they are trimmed here.
	for _, line := range strings.Split(strings.TrimSuffix(dump.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	engine, err := kws.New(db, kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		panic(err)
	}

	fmt.Println("=== Keyword matches ===")
	for _, kw := range []string{"Smith", "XML", "Alice"} {
		fmt.Printf("%-8s -> %v\n", kw, engine.Match(kw))
	}

	fmt.Println("\n=== Connections for \"Smith XML\" (Table 2, ranked by ER length) ===")
	results, err := engine.Search(ctx, kws.Query{
		Keywords: []string{"Smith", "XML"},
		Ranking:  kws.RankERLength,
		MaxJoins: 3,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%2d. %-48s len(RDB)=%d len(ER)=%d class=%-14s close=%v\n",
			r.Rank, r.Connection, r.RDBLength, r.ERLength, r.Class, r.Close)
		fmt.Printf("    %s\n", r.ConnectionWithCardinalities)
	}

	fmt.Println("\n=== Connections for \"Alice XML\" (connections 8 and 9) ===")
	results, err = engine.Search(ctx, kws.Query{
		Keywords: []string{"Alice", "XML"},
		Ranking:  kws.RankERLength,
		MaxJoins: 4, // a wider budget, for this query only
	})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%2d. %-52s len(RDB)=%d len(ER)=%d close=%v instance-close=%v\n",
			r.Rank, r.Connection, r.RDBLength, r.ERLength, r.Close, r.CorroboratedAtInstance)
	}

	fmt.Println("\n=== What the MTJNT principle keeps ===")
	smithXML := kws.Query{Keywords: []string{"Smith", "XML"}, Ranking: kws.RankERLength, MaxJoins: 3}
	minimal := smithXML
	minimal.Engine = kws.EngineMTJNT
	kept, err := engine.Search(ctx, minimal)
	if err != nil {
		panic(err)
	}
	keptSet := make(map[string]bool, len(kept))
	for _, r := range kept {
		keptSet[r.Connection] = true
		fmt.Printf("kept: %s\n", r.Connection)
	}
	all, err := engine.Search(ctx, smithXML)
	if err != nil {
		panic(err)
	}
	for _, r := range all {
		if !keptSet[r.Connection] {
			fmt.Printf("LOST: %-48s (close=%v, close at instance level=%v)\n",
				r.Connection, r.Close, r.CorroboratedAtInstance)
		}
	}
	// Output:
	// === The database instance (Figure 2) ===
	// DEPARTMENT
	//   ID  D_NAME   D_DESCRIPTION
	//   d1  Cs       The main topics of teaching are programming, databases and XML.
	//   d2  inf      The main topics of teaching are information retrieval and XML.
	//   d3  history  The main topics of teaching are history of Scandinavian.
	//
	// PROJECT
	//   ID  D_ID  P_NAME      P_DESCRIPTION
	//   p1  d1    DB-project  Different data models are integrated, such as relational, object and XML
	//   p2  d2    XML and IR  XML offers a notation for structured documents.
	//   p3  d2    IR task     Task based information retrieval
	//
	// WORKS_ON
	//   ESSN  P_ID  HOURS
	//   e1    p1    40
	//   e2    p3    56
	//   e3    p2    70
	//   e4    p3    60
	//
	// EMPLOYEE
	//   SSN  L_NAME  S_NAME   D_ID
	//   e1   Smith   John     d1
	//   e2   Smith   Barbara  d2
	//   e3   Miller  Melina   d1
	//   e4   Walker  John     d2
	//
	// DEPENDENT
	//   ID  ESSN  DEPENDENT_NAME
	//   t1  e3    Alice
	//   t2  e3    Theodore
	//
	// === Keyword matches ===
	// Smith    -> [e1 e2]
	// XML      -> [p2 d1 d2 p1]
	// Alice    -> [t1]
	//
	// === Connections for "Smith XML" (Table 2, ranked by ER length) ===
	//  1. e1(Smith) - d1(XML)                              len(RDB)=1 len(ER)=1 class=immediate      close=true
	//     e1(Smith) N:1 d1(XML)
	//  2. e2(Smith) - d2(XML)                              len(RDB)=1 len(ER)=1 class=immediate      close=true
	//     e2(Smith) N:1 d2(XML)
	//  3. e1(Smith) - w_f1 - p1(XML)                       len(RDB)=2 len(ER)=1 class=immediate      close=true
	//     e1(Smith) 1:N w_f1 N:1 p1(XML)
	//  4. e1(Smith) - w_f1 - p1(XML) - d1(XML)             len(RDB)=3 len(ER)=2 class=mixed          close=false
	//     e1(Smith) 1:N w_f1 N:1 p1(XML) N:1 d1(XML)
	//  5. e2(Smith) - w_f2 - p3 - d2(XML)                  len(RDB)=3 len(ER)=2 class=mixed          close=false
	//     e2(Smith) 1:N w_f2 N:1 p3 N:1 d2(XML)
	//  6. e1(Smith) - d1(XML) - p1(XML)                    len(RDB)=2 len(ER)=2 class=transitive-N:M close=false
	//     e1(Smith) N:1 d1(XML) 1:N p1(XML)
	//  7. e2(Smith) - d2(XML) - p2(XML)                    len(RDB)=2 len(ER)=2 class=transitive-N:M close=false
	//     e2(Smith) N:1 d2(XML) 1:N p2(XML)
	//
	// === Connections for "Alice XML" (connections 8 and 9) ===
	//  1. t1(Alice) - e3 - d1(XML)                             len(RDB)=2 len(ER)=2 close=true instance-close=true
	//  2. t1(Alice) - e3 - w_f3 - p2(XML)                      len(RDB)=3 len(ER)=2 close=false instance-close=false
	//  3. t1(Alice) - e3 - w_f3 - p2(XML) - d2(XML)            len(RDB)=4 len(ER)=3 close=false instance-close=false
	//  4. t1(Alice) - e3 - d1(XML) - p1(XML)                   len(RDB)=3 len(ER)=3 close=false instance-close=false
	//
	// === What the MTJNT principle keeps ===
	// kept: e1(Smith) - d1(XML)
	// kept: e2(Smith) - d2(XML)
	// kept: e1(Smith) - w_f1 - p1(XML)
	// LOST: e1(Smith) - w_f1 - p1(XML) - d1(XML)             (close=false, close at instance level=true)
	// LOST: e2(Smith) - w_f2 - p3 - d2(XML)                  (close=false, close at instance level=true)
	// LOST: e1(Smith) - d1(XML) - p1(XML)                    (close=false, close at instance level=true)
	// LOST: e2(Smith) - d2(XML) - p2(XML)                    (close=false, close at instance level=false)
}
