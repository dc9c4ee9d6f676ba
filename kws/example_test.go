package kws_test

import (
	"context"
	"fmt"

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
