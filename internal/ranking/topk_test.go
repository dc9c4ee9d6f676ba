package ranking

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/search/paths"
	"repro/internal/symtab"
)

// paperEngine builds the connection-enumeration engine over the paper's
// running example.
func paperEngine(t testing.TB) *paths.Engine {
	t.Helper()
	db := paperdb.MustLoad()
	analyzer, err := core.Derive(db)
	if err != nil {
		t.Fatal(err)
	}
	tuples := symtab.ForDatabase(db)
	engine, err := paths.NewWithComponents(db, datagraph.BuildParallelWith(db, tuples, 0), index.BuildParallelWith(db, tuples, 0), analyzer, paths.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// paperItems builds a real item set from the paper's running example so the
// heap selection is exercised on genuine analyses with tie-heavy scores.
func paperItems(t *testing.T) []Item {
	t.Helper()
	opts := paths.Options{MaxEdges: 4, RequireAllKeywords: true, InstanceCorroboration: true}
	answers, err := paperEngine(t).SearchContext(context.Background(), []string{"Smith", "XML"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(answers))
	for i, a := range answers {
		items[i] = Item{Analysis: a.Analysis, Content: a.ContentScore}
	}
	return items
}

// TestTopKMatchesRankPrefix checks that the bounded-heap selection returns
// exactly the first k elements of the full ranking, for every k, every
// strategy and shuffled inputs.
func TestTopKMatchesRankPrefix(t *testing.T) {
	items := paperItems(t)
	if len(items) < 4 {
		t.Fatalf("need a few items, got %d", len(items))
	}
	rng := rand.New(rand.NewSource(7))
	for _, scorer := range Strategies() {
		shuffled := append([]Item(nil), items...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		full := Rank(shuffled, scorer)
		for k := 1; k <= len(items)+1; k++ {
			got := TopK(shuffled, scorer, k)
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: TopK(%d) diverges from Rank prefix", scorer.Name(), k)
			}
		}
	}
}
