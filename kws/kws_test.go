package kws

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// bookstore builds a small custom database through the public API.
func bookstore(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("bookstore")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.AddTable(TableSpec{
		Name: "AUTHOR",
		Columns: []ColumnSpec{
			{Name: "ID", Type: "string"},
			{Name: "NAME", Type: "string"},
			{Name: "BIO", Type: "text", Nullable: true},
		},
		PrimaryKey: []string{"ID"},
	}))
	must(db.AddTable(TableSpec{
		Name: "BOOK",
		Columns: []ColumnSpec{
			{Name: "ID", Type: "string"},
			{Name: "TITLE", Type: "string"},
			{Name: "ABSTRACT", Type: "text", Nullable: true},
			{Name: "YEAR", Type: "int", Nullable: true},
		},
		PrimaryKey: []string{"ID"},
	}))
	must(db.AddTable(TableSpec{
		Name: "WROTE",
		Columns: []ColumnSpec{
			{Name: "AUTHOR_ID", Type: "string"},
			{Name: "BOOK_ID", Type: "string"},
		},
		PrimaryKey: []string{"AUTHOR_ID", "BOOK_ID"},
		ForeignKeys: []ForeignKeySpec{
			{Name: "wrote_author", Columns: []string{"AUTHOR_ID"}, RefTable: "AUTHOR", RefColumns: []string{"ID"}},
			{Name: "wrote_book", Columns: []string{"BOOK_ID"}, RefTable: "BOOK", RefColumns: []string{"ID"}},
		},
	}))
	must(db.Insert("AUTHOR", map[string]any{"ID": "a1", "NAME": "Codd", "BIO": "relational model pioneer"}))
	must(db.Insert("AUTHOR", map[string]any{"ID": "a2", "NAME": "Gray", "BIO": "transactions and databases"}))
	must(db.Insert("BOOK", map[string]any{"ID": "b1", "TITLE": "Relational Databases", "ABSTRACT": "foundations of the relational model", "YEAR": 1980}))
	must(db.Insert("BOOK", map[string]any{"ID": "b2", "TITLE": "Transaction Processing", "ABSTRACT": "concepts and techniques for transactions", "YEAR": 1992}))
	must(db.Insert("WROTE", map[string]any{"AUTHOR_ID": "a1", "BOOK_ID": "b1"}))
	must(db.Insert("WROTE", map[string]any{"AUTHOR_ID": "a2", "BOOK_ID": "b2"}))
	return db
}

func TestDatabaseBuildingAndValidation(t *testing.T) {
	db := bookstore(t)
	if err := db.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := db.Tables(); len(got) != 3 || got[0] != "AUTHOR" {
		t.Errorf("Tables = %v", got)
	}
	if db.TupleCount() != 6 {
		t.Errorf("TupleCount = %d", db.TupleCount())
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Codd") {
		t.Error("Dump missing data")
	}
}

func TestDatabaseErrors(t *testing.T) {
	db := NewDatabase("x")
	if err := db.AddTable(TableSpec{Name: "T", Columns: []ColumnSpec{{Name: "A", Type: "blob"}}, PrimaryKey: []string{"A"}}); err == nil {
		t.Error("unknown column type should fail")
	}
	if err := db.Insert("NOPE", map[string]any{"A": 1}); err == nil {
		t.Error("insert into unknown table should fail")
	}
	if err := db.AddTable(TableSpec{Name: "T", Columns: []ColumnSpec{{Name: "A", Type: "string"}}, PrimaryKey: []string{"A"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", map[string]any{"B": "x"}); err == nil {
		t.Error("insert with unknown column should fail")
	}
	if err := db.Insert("T", map[string]any{"A": struct{}{}}); err == nil {
		t.Error("unsupported value type should fail")
	}
	// Dangling reference is caught by Validate.
	if err := db.AddTable(TableSpec{
		Name:       "U",
		Columns:    []ColumnSpec{{Name: "ID", Type: "string"}, {Name: "T_A", Type: "string"}},
		PrimaryKey: []string{"ID"},
		ForeignKeys: []ForeignKeySpec{
			{Columns: []string{"T_A"}, RefTable: "T", RefColumns: []string{"A"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("U", map[string]any{"ID": "u1", "T_A": "missing"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err == nil {
		t.Error("Validate should report the dangling reference")
	}
}

func TestOpenAndSearchPaperExample(t *testing.T) {
	engine, err := New(PaperExample(), WithDefaults(Config{Ranking: RankCloseFirst, MaxJoins: 3}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	results, err := engine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 7 {
		t.Fatalf("results = %d, want 7 (connections 1-7)", len(results))
	}
	// Ranks are 1..n and scores non-decreasing.
	for i, r := range results {
		if r.Rank != i+1 {
			t.Errorf("rank %d at position %d", r.Rank, i)
		}
		if i > 0 && results[i-1].Score > r.Score {
			t.Error("scores not non-decreasing")
		}
	}
	// Under close-first the top results are the close associations.
	for _, r := range results[:3] {
		if !r.Close {
			t.Errorf("top result %q is not close", r.Connection)
		}
	}
	// The annotations of the best result (connection 1 or 5) are correct.
	top := results[0]
	if top.RDBLength != 1 || top.ERLength != 1 || top.Class != "immediate" || !top.CorroboratedAtInstance {
		t.Errorf("top result = %+v", top)
	}
	if len(top.Tuples) != 2 {
		t.Errorf("top result tuples = %v", top.Tuples)
	}
	if len(top.MatchedKeywords) != 2 {
		t.Errorf("top result matches = %v", top.MatchedKeywords)
	}
	// The rendering includes the join cardinality (1:N or N:1 depending on
	// the direction the connection was enumerated in).
	if !strings.Contains(top.ConnectionWithCardinalities, "1:N") && !strings.Contains(top.ConnectionWithCardinalities, "N:1") {
		t.Errorf("cardinalities rendering = %q", top.ConnectionWithCardinalities)
	}
}

func TestSearchRankingStrategies(t *testing.T) {
	for _, strategy := range []RankStrategy{RankRDBLength, RankERLength, RankCloseFirst, RankLoosenessPenalty, RankHubPenalty, RankCombined} {
		engine, err := New(PaperExample(), WithDefaults(Config{Ranking: strategy, MaxJoins: 3}))
		if err != nil {
			t.Fatalf("New(%s): %v", strategy, err)
		}
		results, err := engine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
		if err != nil {
			t.Fatalf("Search(%s): %v", strategy, err)
		}
		if len(results) != 7 {
			t.Errorf("%s: results = %d", strategy, len(results))
		}
	}
	// ER length promotes connection 2 into the top ranks. The paper labels
	// (w_f1, ...) are opt-in now, through the Labeler option.
	engine, _ := New(PaperExample(), WithDefaults(Config{Ranking: RankERLength, MaxJoins: 3, Labeler: PaperLabeler()}))
	results, _ := engine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	top3 := results[:3]
	found := false
	for _, r := range top3 {
		if strings.Contains(r.Connection, "w_f1") {
			found = true
		}
	}
	if !found {
		t.Errorf("ER ranking should place connection 2 in the top 3: %+v", top3)
	}
}

func TestSearchEngineChoices(t *testing.T) {
	// The MTJNT engine returns fewer answers than the paths engine.
	pathsEngine, err := New(PaperExample(), WithDefaults(Config{Engine: EnginePaths, MaxJoins: 3}))
	if err != nil {
		t.Fatal(err)
	}
	mtjntEngine, err := New(PaperExample(), WithDefaults(Config{Engine: EngineMTJNT, MaxJoins: 3}))
	if err != nil {
		t.Fatal(err)
	}
	banksEngine, err := New(PaperExample(), WithDefaults(Config{Engine: EngineBANKS, MaxJoins: 3}))
	if err != nil {
		t.Fatal(err)
	}
	pa, err := pathsEngine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := mtjntEngine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := banksEngine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ma) >= len(pa) {
		t.Errorf("MTJNT (%d answers) should return fewer answers than paths (%d)", len(ma), len(pa))
	}
	if len(ba) == 0 {
		t.Error("BANKS returned no answers")
	}
	// Every MTJNT answer is also found by the paths engine.
	pathSet := make(map[string]bool, len(pa))
	for _, r := range pa {
		pathSet[r.Connection] = true
	}
	for _, r := range ma {
		if !pathSet[r.Connection] {
			t.Errorf("MTJNT answer %q missing from paths answers", r.Connection)
		}
	}
}

func TestSearchCustomDatabase(t *testing.T) {
	engine, err := New(bookstore(t), WithDefaults(Config{MaxJoins: 3, Ranking: RankERLength}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Search(context.Background(), Query{Keywords: []string{"Codd", "relational"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results on the bookstore database")
	}
	// The best answer connects the author Codd to the relational book
	// through the WROTE junction: 2 joins in the RDB, 1 at the ER level.
	var best *Result
	for i := range results {
		if strings.Contains(results[i].Connection, "AUTHOR[a1]") && results[i].RDBLength == 2 {
			best = &results[i]
			break
		}
	}
	// a1's BIO itself contains "relational", so the single tuple a1 also
	// answers the query; accept either but require the junction answer to
	// exist with ER length 1.
	if best == nil {
		t.Fatalf("missing the AUTHOR-WROTE-BOOK answer: %+v", results)
	}
	if best.ERLength != 1 || best.Class != "immediate" {
		t.Errorf("junction answer analysis = %+v", best)
	}
}

func TestTopKAndMatchAndStats(t *testing.T) {
	engine, err := New(PaperExample(), WithDefaults(Config{MaxJoins: 3, TopK: 2}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("TopK results = %d", len(results))
	}
	matches := engine.Match("XML")
	if len(matches) != 4 {
		t.Errorf("Match(XML) = %v", matches)
	}
	rels, tuples, edges := engine.Stats()
	if rels != 5 || tuples != 16 || edges != 17 {
		t.Errorf("Stats = %d, %d, %d", rels, tuples, edges)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := New(nil, WithDefaults(Config{})); err == nil {
		t.Error("New(nil) should fail")
	}
	if _, err := New(PaperExample(), WithDefaults(Config{Ranking: "bogus"})); err == nil {
		t.Error("unknown ranking should fail")
	}
	if _, err := New(PaperExample(), WithDefaults(Config{Engine: "bogus"})); err == nil {
		t.Error("unknown engine should fail")
	}
	engine, err := New(PaperExample(), WithDefaults(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Search(context.Background(), Query{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := engine.Search(context.Background(), Query{Keywords: []string{"nonexistentkeyword", "XML"}}); err == nil {
		t.Error("unmatched keyword should fail under AND semantics")
	}
}

func TestSyntheticCompanyFixture(t *testing.T) {
	db := SyntheticCompany(1, 5)
	if db.TupleCount() == 0 {
		t.Fatal("synthetic database is empty")
	}
	engine, err := New(db, WithDefaults(Config{MaxJoins: 3, DisableInstanceChecks: true}))
	if err != nil {
		t.Fatal(err)
	}
	// At least one topic keyword yields matches.
	if len(engine.Match("XML")) == 0 && len(engine.Match("databases")) == 0 {
		t.Error("synthetic database has no searchable topics")
	}
}
