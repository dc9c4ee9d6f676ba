package ranking

import (
	"context"
	"strings"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/search/paths"
)

// smithXMLItems returns the ranking items for the paper's "Smith XML" query
// restricted to 3 joins (connections 1-7), keyed by their Table 2 rendering.
func smithXMLItems(t testing.TB) ([]Item, map[string]string) {
	t.Helper()
	opts := paths.Options{MaxEdges: 3, RequireAllKeywords: true, InstanceCorroboration: true}
	answers, err := paperEngine(t).SearchContext(context.Background(), paperdb.QuerySmithXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 0, len(answers))
	names := make(map[string]string)
	for _, a := range answers {
		items = append(items, Item{Analysis: a.Analysis, Content: a.ContentScore})
		names[a.Connection.Key()] = a.Connection.Format(paperdb.DisplayLabel, a.Matches)
	}
	return items, names
}

func rankedNames(ranked []Ranked, names map[string]string) []string {
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = names[r.Item.Analysis.Connection.Key()]
	}
	return out
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want || s == reverseFormat(want) {
			return i
		}
	}
	return -1
}

func reverseFormat(s string) string {
	parts := strings.Split(s, " - ")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " - ")
}

// TestRDBLengthRanking reproduces the paper's observation that with RDB
// lengths "the best connections are 1 and 5 and the worst connections are 4
// and 7".
func TestRDBLengthRanking(t *testing.T) {
	items, names := smithXMLItems(t)
	ranked := Rank(items, RDBLength{})
	got := rankedNames(ranked, names)
	best := got[:2]
	for _, want := range []string{"d1(XML) - e1(Smith)", "d2(XML) - e2(Smith)"} {
		if indexOf(best, want) < 0 {
			t.Errorf("RDB ranking best two = %v, missing %q", best, want)
		}
	}
	worst := got[len(got)-2:]
	for _, want := range []string{"d1(XML) - p1(XML) - w_f1 - e1(Smith)", "d2(XML) - p3 - w_f2 - e2(Smith)"} {
		if indexOf(worst, want) < 0 {
			t.Errorf("RDB ranking worst two = %v, missing %q", worst, want)
		}
	}
}

// TestERLengthRanking reproduces "if the length of the ER-model were
// followed ... the best connections are 1, 2 and 5".
func TestERLengthRanking(t *testing.T) {
	items, names := smithXMLItems(t)
	ranked := Rank(items, ERLength{})
	got := rankedNames(ranked, names)
	best := got[:3]
	for _, want := range []string{"d1(XML) - e1(Smith)", "p1(XML) - w_f1 - e1(Smith)", "d2(XML) - e2(Smith)"} {
		if indexOf(best, want) < 0 {
			t.Errorf("ER ranking best three = %v, missing %q", best, want)
		}
	}
	// Connections 4 and 7 improve under ER length: their scores equal the
	// scores of connections 3 and 6.
	score := func(name string) float64 {
		for _, r := range ranked {
			n := names[r.Item.Analysis.Connection.Key()]
			if n == name || n == reverseFormat(name) {
				return r.Score
			}
		}
		t.Fatalf("connection %q not ranked", name)
		return 0
	}
	if score("d1(XML) - p1(XML) - w_f1 - e1(Smith)") != score("p1(XML) - d1(XML) - e1(Smith)") {
		t.Error("connections 3 and 4 should have equal ER-length scores")
	}
}

// TestCloseFirstRanking checks the paper's proposal: close associations are
// preferred, and among the loose ones those corroborated at the instance
// level (connections 4 and 7) rank above the uncorroborated 3 and 6.
func TestCloseFirstRanking(t *testing.T) {
	items, names := smithXMLItems(t)
	ranked := Rank(items, CloseFirst{})
	got := rankedNames(ranked, names)
	pos := func(name string) int {
		i := indexOf(got, name)
		if i < 0 {
			t.Fatalf("connection %q missing from ranking %v", name, got)
		}
		return i
	}
	// The three close connections come first.
	for _, want := range []string{"d1(XML) - e1(Smith)", "p1(XML) - w_f1 - e1(Smith)", "d2(XML) - e2(Smith)"} {
		if pos(want) > 2 {
			t.Errorf("close connection %q not among the top 3: %v", want, got)
		}
	}
	// Corroborated loose connections rank above uncorroborated ones.
	if !(pos("d1(XML) - p1(XML) - w_f1 - e1(Smith)") < pos("p2(XML) - d2(XML) - e2(Smith)")) {
		t.Errorf("corroborated connection 4 should rank above uncorroborated 6: %v", got)
	}
	if !(pos("d2(XML) - p3 - w_f2 - e2(Smith)") < pos("p2(XML) - d2(XML) - e2(Smith)")) {
		t.Errorf("corroborated connection 7 should rank above uncorroborated 6: %v", got)
	}
}

func TestLoosenessPenaltyRanking(t *testing.T) {
	items, names := smithXMLItems(t)
	ranked := Rank(items, LoosenessPenalty{Lambda: 2})
	// Close connections keep their plain ER-length score; loose ones pay 2
	// per transitive N:M sub-path.
	for _, r := range ranked {
		an := r.Item.Analysis
		want := float64(an.ERLength + 2*an.TransitiveNM)
		if r.Score != want {
			t.Errorf("%s: score = %g, want %g", names[an.Connection.Key()], r.Score, want)
		}
	}
	// Default lambda is 1.
	one := Rank(items, LoosenessPenalty{})
	for _, r := range one {
		an := r.Item.Analysis
		if r.Score != float64(an.ERLength+an.TransitiveNM) {
			t.Error("default lambda should be 1")
		}
	}
}

func TestHubPenaltyRanking(t *testing.T) {
	items, names := smithXMLItems(t)
	ranked := Rank(items, HubPenalty{Weight: 1})
	// Connection 6 passes through the d2 hub which associates 4
	// project-employee pairs, so its score is ER length 2 + 4 = 6.
	for _, r := range ranked {
		name := names[r.Item.Analysis.Connection.Key()]
		if name == "p2(XML) - d2(XML) - e2(Smith)" || name == reverseFormat("p2(XML) - d2(XML) - e2(Smith)") {
			if r.Score != 6 {
				t.Errorf("connection 6 hub-penalty score = %g, want 6", r.Score)
			}
		}
	}
}

func TestContentAndCombinedRanking(t *testing.T) {
	items, _ := smithXMLItems(t)
	byContent := Rank(items, Content{})
	for i := 1; i < len(byContent); i++ {
		if byContent[i-1].Item.Content < byContent[i].Item.Content {
			t.Error("content ranking should be by descending content score")
		}
	}
	combined := Combined{Structure: ERLength{}, ContentWeight: 0.5}
	ranked := Rank(items, combined)
	for _, r := range ranked {
		want := float64(r.Item.Analysis.ERLength) - 0.5*r.Item.Content
		if r.Score != want {
			t.Errorf("combined score = %g, want %g", r.Score, want)
		}
	}
	if combined.Name() != "combined(er-length+content)" {
		t.Errorf("combined name = %q", combined.Name())
	}
	// Nil structure defaults to ER length; zero weight defaults to 0.5.
	def := Combined{}
	if def.Name() != "combined(er-length+content)" {
		t.Errorf("default combined name = %q", def.Name())
	}
	if got := def.Score(items[0]); got != float64(items[0].Analysis.ERLength)-0.5*items[0].Content {
		t.Errorf("default combined score = %g", got)
	}
}

func TestRankDeterminismAndRanks(t *testing.T) {
	items, _ := smithXMLItems(t)
	a := Rank(items, ERLength{})
	b := Rank(items, ERLength{})
	if len(a) != len(b) {
		t.Fatal("rank lengths differ")
	}
	for i := range a {
		if a[i].Item.Analysis.Connection.Key() != b[i].Item.Analysis.Connection.Key() {
			t.Fatal("ranking is not deterministic")
		}
		if a[i].Rank != i+1 {
			t.Errorf("rank %d = %d", i, a[i].Rank)
		}
	}
	// The input slice is not reordered.
	before := items[0].Analysis.Connection.Key()
	Rank(items, RDBLength{})
	if items[0].Analysis.Connection.Key() != before {
		t.Error("Rank modified its input")
	}
}

func TestTopK(t *testing.T) {
	items, _ := smithXMLItems(t)
	top := TopK(items, RDBLength{}, 3)
	if len(top) != 3 {
		t.Errorf("TopK = %d items", len(top))
	}
	all := TopK(items, RDBLength{}, 0)
	if len(all) != len(items) {
		t.Errorf("TopK(0) = %d items, want all %d", len(all), len(items))
	}
	over := TopK(items, RDBLength{}, 1000)
	if len(over) != len(items) {
		t.Errorf("TopK(1000) = %d items", len(over))
	}
}

func TestStrategiesAndNames(t *testing.T) {
	strategies := Strategies()
	if len(strategies) != 6 {
		t.Fatalf("Strategies = %d", len(strategies))
	}
	seen := make(map[string]bool)
	for _, s := range strategies {
		if s.Name() == "" {
			t.Error("strategy with empty name")
		}
		if seen[s.Name()] {
			t.Errorf("duplicate strategy name %q", s.Name())
		}
		seen[s.Name()] = true
	}
	if (RDBLength{}).Name() == "" || (ERLength{}).Name() == "" || (CloseFirst{}).Name() == "" ||
		(LoosenessPenalty{}).Name() == "" || (HubPenalty{}).Name() == "" || (Content{}).Name() == "" {
		t.Error("scorer names must not be empty")
	}
}
