package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/er"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// buildGraph builds the tuple graph of db over its canonical tuple table.
func buildGraph(db *relation.Database) *datagraph.Graph {
	return datagraph.BuildParallelWith(db, symtab.ForDatabase(db), 0)
}

func id(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

func wid(essn, pid string) relation.TupleID {
	return relation.TupleID{Relation: "WORKS_ON", Key: relation.EncodeKey([]relation.Value{relation.String(essn), relation.String(pid)})}
}

// fixture bundles the Figure 2 database, its data graph and an analyzer.
type fixture struct {
	db       *relation.Database
	graph    *datagraph.Graph
	analyzer *Analyzer
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	db := paperdb.MustLoad()
	an, err := Derive(db)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return &fixture{db: db, graph: buildGraph(db), analyzer: an}
}

// connect builds a Connection visiting the given tuples in order, resolving
// each consecutive pair to the (unique) edge between them.
func connect(t testing.TB, g *datagraph.Graph, ids ...relation.TupleID) Connection {
	t.Helper()
	var edges []datagraph.Edge
	for i := 0; i+1 < len(ids); i++ {
		found := false
		for _, e := range g.Neighbors(ids[i]) {
			if e.To == ids[i+1] {
				edges = append(edges, e)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no edge between %v and %v", ids[i], ids[i+1])
		}
	}
	c, err := NewConnection(ids[0], edges)
	if err != nil {
		t.Fatalf("NewConnection: %v", err)
	}
	return c
}

// paperConnections returns the nine connections of the paper's Table 2,
// indexed 1..9 (index 0 unused).
func paperConnections(t testing.TB, g *datagraph.Graph) []Connection {
	t.Helper()
	d1, d2 := id("DEPARTMENT", "d1"), id("DEPARTMENT", "d2")
	p1, p2, p3 := id("PROJECT", "p1"), id("PROJECT", "p2"), id("PROJECT", "p3")
	e1, e2, e3 := id("EMPLOYEE", "e1"), id("EMPLOYEE", "e2"), id("EMPLOYEE", "e3")
	t1 := id("DEPENDENT", "t1")
	return []Connection{
		{},                                     // 0: unused
		connect(t, g, d1, e1),                  // 1
		connect(t, g, p1, wid("e1", "p1"), e1), // 2
		connect(t, g, p1, d1, e1),              // 3
		connect(t, g, d1, p1, wid("e1", "p1"), e1),     // 4
		connect(t, g, d2, e2),                          // 5
		connect(t, g, p2, d2, e2),                      // 6
		connect(t, g, d2, p3, wid("e2", "p3"), e2),     // 7
		connect(t, g, d1, e3, t1),                      // 8
		connect(t, g, d2, p2, wid("e3", "p2"), e3, t1), // 9
	}
}

// TestAnalyzeTable2Lengths reproduces Table 2: the RDB and ER lengths of the
// nine connections.
func TestAnalyzeTable2Lengths(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	want := []struct{ rdb, er int }{
		{}, {1, 1}, {2, 1}, {2, 2}, {3, 2}, {1, 1}, {2, 2}, {3, 2}, {2, 2}, {4, 3},
	}
	for i := 1; i <= 9; i++ {
		an, err := f.analyzer.Analyze(conns[i])
		if err != nil {
			t.Fatalf("Analyze(%d): %v", i, err)
		}
		if an.RDBLength != want[i].rdb {
			t.Errorf("connection %d: RDB length = %d, want %d", i, an.RDBLength, want[i].rdb)
		}
		if an.ERLength != want[i].er {
			t.Errorf("connection %d: ER length = %d, want %d", i, an.ERLength, want[i].er)
		}
	}
}

// TestAnalyzeCloseLooseClassification checks the schema-level close/loose
// verdicts discussed in Section 3: connections 1, 2, 5 and 8 are close;
// 3, 4, 6, 7 and 9 allow loose associations.
func TestAnalyzeCloseLooseClassification(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	wantClose := map[int]bool{1: true, 2: true, 5: true, 8: true, 3: false, 4: false, 6: false, 7: false, 9: false}
	for i, close := range wantClose {
		an, err := f.analyzer.Analyze(conns[i])
		if err != nil {
			t.Fatalf("Analyze(%d): %v", i, err)
		}
		if an.Close != close {
			t.Errorf("connection %d: Close = %v, want %v (class %v)", i, an.Close, close, an.Class)
		}
	}
	// Specific classes: connection 2 collapses to an immediate N:M
	// relationship, 3 and 6 are transitive N:M, 8 is functional.
	checks := map[int]er.PathClass{
		2: er.ClassImmediate,
		3: er.ClassTransitiveNM,
		6: er.ClassTransitiveNM,
		8: er.ClassFunctional,
		4: er.ClassMixed,
		9: er.ClassMixed,
	}
	for i, class := range checks {
		an, _ := f.analyzer.Analyze(conns[i])
		if an.Class != class {
			t.Errorf("connection %d: class = %v, want %v", i, an.Class, class)
		}
	}
}

// TestAnalyzeTable3Cardinalities reproduces the relationship annotations of
// Table 3 for representative connections.
func TestAnalyzeTable3Cardinalities(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	matched := map[relation.TupleID][]string{
		id("DEPARTMENT", "d1"): {"XML"},
		id("DEPARTMENT", "d2"): {"XML"},
		id("PROJECT", "p1"):    {"XML"},
		id("PROJECT", "p2"):    {"XML"},
		id("EMPLOYEE", "e1"):   {"Smith"},
		id("EMPLOYEE", "e2"):   {"Smith"},
		id("DEPENDENT", "t1"):  {"Alice"},
	}
	want := map[int]string{
		1: "d1(XML) 1:N e1(Smith)",
		2: "p1(XML) 1:N w_f1 N:1 e1(Smith)",
		3: "p1(XML) N:1 d1(XML) 1:N e1(Smith)",
		4: "d1(XML) 1:N p1(XML) 1:N w_f1 N:1 e1(Smith)",
		5: "d2(XML) 1:N e2(Smith)",
		6: "p2(XML) N:1 d2(XML) 1:N e2(Smith)",
		7: "d2(XML) 1:N p3 1:N w_f2 N:1 e2(Smith)",
		8: "d1(XML) 1:N e3 1:N t1(Alice)",
		9: "d2(XML) 1:N p2(XML) 1:N w_f3 N:1 e3 1:N t1(Alice)",
	}
	for i, wantStr := range want {
		an, err := f.analyzer.Analyze(conns[i])
		if err != nil {
			t.Fatalf("Analyze(%d): %v", i, err)
		}
		got := an.FormatWithCardinalities(paperdb.DisplayLabel, matched)
		if got != wantStr {
			t.Errorf("connection %d:\n got %q\nwant %q", i, got, wantStr)
		}
	}
	// Note: the paper annotates d1 and d2 with (XML) only in some rows of
	// Table 2/3; we annotate every matching tuple uniformly, which also
	// marks d2 in connections 8's department column when applicable.
}

// TestAnalyzeInstanceCorroboration reproduces the instance-level discussion:
// connections 3, 4 and 7 have a close association at the instance level
// (another, close connection between the same tuples exists), while
// connections 6 and 9 remain loose.
func TestAnalyzeInstanceCorroboration(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	want := map[int]bool{
		1: true, 2: true, 5: true, 8: true, // close connections are trivially corroborated
		3: true, 4: true, 7: true, // close at the instance level
		6: false, 9: false, // loose at both levels
	}
	for i, corroborated := range want {
		an, err := f.analyzer.AnalyzeWithInstanceContext(context.Background(), conns[i], f.graph)
		if err != nil {
			t.Fatalf("AnalyzeWithInstanceContext(%d): %v", i, err)
		}
		if an.CorroboratedAtInstance != corroborated {
			t.Errorf("connection %d: corroborated = %v, want %v", i, an.CorroboratedAtInstance, corroborated)
		}
	}
}

func TestAnalyzeLoosenessMetrics(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	type metrics struct{ degree, nm, bridges int }
	want := map[int]metrics{
		1: {0, 0, 0},
		2: {0, 0, 0},
		3: {1, 1, 1}, // project N:1 department 1:N employee: one hub (d1)
		4: {1, 1, 0}, // department 1:N project N:M employee
		6: {1, 1, 1},
		8: {0, 0, 0},
		9: {2, 1, 1}, // department 1:N project N:M employee 1:N dependent
	}
	for i, m := range want {
		an, _ := f.analyzer.Analyze(conns[i])
		if an.LoosenessDegree != m.degree || an.TransitiveNM != m.nm || an.Bridges != m.bridges {
			t.Errorf("connection %d: degree/nm/bridges = %d/%d/%d, want %d/%d/%d",
				i, an.LoosenessDegree, an.TransitiveNM, an.Bridges, m.degree, m.nm, m.bridges)
		}
	}
}

func TestAnalyzeHubStats(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	// Connection 6: p2 N:1 d2 1:N e2 — the hub d2 controls 2 projects and
	// has 2 employees, associating 4 (project, employee) pairs.
	an, err := f.analyzer.Analyze(conns[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Hubs) != 1 {
		t.Fatalf("hubs = %d, want 1", len(an.Hubs))
	}
	hub := an.Hubs[0]
	if hub.Hub != id("DEPARTMENT", "d2") {
		t.Errorf("hub = %v", hub.Hub)
	}
	if hub.LeftCount != 2 || hub.RightCount != 2 || hub.AssociatedPairs != 4 {
		t.Errorf("hub counts = %d x %d = %d", hub.LeftCount, hub.RightCount, hub.AssociatedPairs)
	}
	// Connection 8 (functional) has no hubs.
	an, _ = f.analyzer.Analyze(conns[8])
	if len(an.Hubs) != 0 {
		t.Errorf("functional connection has %d hubs", len(an.Hubs))
	}
}

func TestAnalyzeStepsAndRelationships(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	an, err := f.analyzer.Analyze(conns[4])
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(an.Steps))
	}
	if an.Steps[0].Relationship != "CONTROLS" || an.Steps[0].Cardinality != er.OneToMany {
		t.Errorf("step 1 = %+v", an.Steps[0])
	}
	if an.Steps[1].Relationship != "WORKS_ON" || an.Steps[1].Cardinality != er.ManyToMany {
		t.Errorf("step 2 = %+v", an.Steps[1])
	}
	if an.Steps[1].ViaJunction != wid("e1", "p1") {
		t.Errorf("step 2 junction = %v", an.Steps[1].ViaJunction)
	}
	// Composite cardinality of connection 8 (functional 1:N chain) is 1:N.
	an8, _ := f.analyzer.Analyze(conns[8])
	if an8.Composite != er.OneToMany {
		t.Errorf("connection 8 composite = %v", an8.Composite)
	}
}

func TestAnalyzeClosenessInvariantUnderReversal(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	for i := 1; i <= 9; i++ {
		fwd, err := f.analyzer.Analyze(conns[i])
		if err != nil {
			t.Fatal(err)
		}
		bwd, err := f.analyzer.Analyze(conns[i].Reverse())
		if err != nil {
			t.Fatal(err)
		}
		if fwd.Close != bwd.Close || fwd.ERLength != bwd.ERLength || fwd.RDBLength != bwd.RDBLength {
			t.Errorf("connection %d: analysis not direction-invariant (%v/%d/%d vs %v/%d/%d)",
				i, fwd.Close, fwd.ERLength, fwd.RDBLength, bwd.Close, bwd.ERLength, bwd.RDBLength)
		}
	}
}

func TestAnalyzeERLengthEqualsRDBMinusJunctions(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	for i := 1; i <= 9; i++ {
		an, _ := f.analyzer.Analyze(conns[i])
		junctions := 0
		for j, tup := range conns[i].Tuples {
			if j == 0 || j == len(conns[i].Tuples)-1 {
				continue
			}
			if f.analyzer.Mapping().IsMiddleRelation(tup.Relation) {
				junctions++
			}
		}
		if an.ERLength != an.RDBLength-junctions {
			t.Errorf("connection %d: ER length %d != RDB length %d - %d junctions",
				i, an.ERLength, an.RDBLength, junctions)
		}
	}
}

func TestAnalyzeSingleTupleConnectionIsClose(t *testing.T) {
	f := newFixture(t)
	c, err := NewConnection(id("DEPARTMENT", "d2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := f.analyzer.AnalyzeWithInstanceContext(context.Background(), c, f.graph)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Close || !an.CorroboratedAtInstance {
		t.Errorf("single-tuple connection should be close: %+v", an)
	}
	if an.RDBLength != 0 || an.ERLength != 0 {
		t.Errorf("single-tuple lengths = %d/%d", an.RDBLength, an.ERLength)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.analyzer.Analyze(Connection{}); err == nil {
		t.Error("analysing an empty connection should fail")
	}
	bad := Connection{Tuples: []relation.TupleID{id("EMPLOYEE", "e1"), id("DEPARTMENT", "d1")}}
	if _, err := f.analyzer.Analyze(bad); err == nil {
		t.Error("analysing a malformed connection should fail")
	}
	if _, err := NewAnalyzer(nil, nil, nil); err == nil {
		t.Error("NewAnalyzer without inputs should fail")
	}
	if _, err := Derive(nil); err == nil {
		t.Error("Derive(nil) should fail")
	}
}

func TestAnalyzerAccessorsAndOptions(t *testing.T) {
	f := newFixture(t)
	if f.analyzer.Schema() == nil || f.analyzer.Mapping() == nil {
		t.Error("analyzer accessors returned nil")
	}
}

// TestAnalyzeAll analyses the paper's nine connections one after the other
// with instance-level corroboration, and checks a malformed one is reported.
func TestAnalyzeAll(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	for i, c := range paperConnections(t, f.graph)[1:] {
		an, err := f.analyzer.AnalyzeWithInstanceContext(ctx, c, f.graph)
		if err != nil {
			t.Fatalf("connection %d: %v", i+1, err)
		}
		if an.Connection.Key() != c.Key() {
			t.Errorf("connection %d: analysis carries %v", i+1, an.Connection)
		}
	}
	if _, err := f.analyzer.AnalyzeWithInstanceContext(ctx, Connection{}, f.graph); err == nil {
		t.Error("analysing an empty connection should fail")
	}
}

func TestFormatWithCardinalitiesNilLabel(t *testing.T) {
	f := newFixture(t)
	conns := paperConnections(t, f.graph)
	an, _ := f.analyzer.Analyze(conns[1])
	got := an.FormatWithCardinalities(nil, nil)
	if !strings.Contains(got, "DEPARTMENT[d1] 1:N EMPLOYEE[e1]") {
		t.Errorf("FormatWithCardinalities = %q", got)
	}
}
