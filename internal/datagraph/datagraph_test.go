package datagraph

import (
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// build is BuildParallelWith over the database's canonical tuple table.
func build(db *relation.Database) *Graph { return buildParallel(db, 0) }

func buildParallel(db *relation.Database, workers int) *Graph {
	return BuildParallelWith(db, symtab.ForDatabase(db), workers)
}

func id(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

func wid(essn, pid string) relation.TupleID {
	return relation.TupleID{Relation: "WORKS_ON", Key: relation.EncodeKey([]relation.Value{relation.String(essn), relation.String(pid)})}
}

func paperGraph(t testing.TB) *Graph {
	t.Helper()
	return build(paperdb.MustLoad())
}

func TestBuildFigure2Graph(t *testing.T) {
	g := paperGraph(t)
	if got := g.NodeCount(); got != 16 {
		t.Errorf("nodes = %d, want 16", got)
	}
	// Edges: PROJECT->DEPARTMENT (3), EMPLOYEE->DEPARTMENT (4),
	// WORKS_ON->EMPLOYEE (4), WORKS_ON->PROJECT (4), DEPENDENT->EMPLOYEE (2).
	if got := g.EdgeCount(); got != 17 {
		t.Errorf("edges = %d, want 17", got)
	}
}

func TestNeighborsOfEmployeeE1(t *testing.T) {
	g := paperGraph(t)
	nbrs := g.Neighbors(id("EMPLOYEE", "e1"))
	// e1 works for d1 and has one WORKS_ON tuple (e1,p1).
	if len(nbrs) != 2 {
		t.Fatalf("e1 neighbors = %d, want 2", len(nbrs))
	}
	if nbrs[0].To != id("DEPARTMENT", "d1") {
		t.Errorf("first neighbor = %v", nbrs[0].To)
	}
	if nbrs[1].To != wid("e1", "p1") {
		t.Errorf("second neighbor = %v", nbrs[1].To)
	}
	for _, e := range nbrs {
		if e.From != id("EMPLOYEE", "e1") {
			t.Errorf("edge not oriented away from e1: %v", e)
		}
	}
	if got := len(g.Neighbors(id("EMPLOYEE", "e3"))); got != 4 {
		// e3: works for d1, works on p2, dependents t1 and t2.
		t.Errorf("degree(e3) = %d, want 4", got)
	}
}

func TestHasAndTupleResolution(t *testing.T) {
	g := paperGraph(t)
	if !g.Has(id("DEPARTMENT", "d3")) {
		t.Error("d3 should be a node even though it has no projects in common queries")
	}
	if g.Has(id("DEPARTMENT", "d9")) {
		t.Error("unknown tuple should not be a node")
	}
}

// hops returns the hop distance of every tuple reachable from start, walking
// the graph breadth-first through its string-space read view.
func hops(g *Graph, start relation.TupleID) map[relation.TupleID]int {
	if !g.Has(start) {
		return nil
	}
	dist := map[relation.TupleID]int{start: 0}
	for queue := []relation.TupleID{start}; len(queue) > 0; queue = queue[1:] {
		for _, e := range g.Neighbors(queue[0]) {
			if _, seen := dist[e.To]; !seen {
				dist[e.To] = dist[queue[0]] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

func TestBFSDistances(t *testing.T) {
	g := paperGraph(t)
	dist := hops(g, id("EMPLOYEE", "e1"))
	cases := map[relation.TupleID]int{
		id("EMPLOYEE", "e1"):   0,
		id("DEPARTMENT", "d1"): 1,
		wid("e1", "p1"):        1,
		id("PROJECT", "p1"):    2,
		id("EMPLOYEE", "e3"):   2, // via d1
		id("DEPENDENT", "t1"):  3, // e1 - d1 - e3 - t1
	}
	for node, want := range cases {
		if got := dist[node]; got != want {
			t.Errorf("dist(e1, %v) = %d, want %d", node, got, want)
		}
	}
	// Every tuple except the isolated history department d3 (no employees,
	// no projects in Figure 2) is reachable from e1.
	if len(dist) != 15 {
		t.Errorf("reachable nodes = %d, want 15", len(dist))
	}
	if _, reachable := dist[id("DEPARTMENT", "d3")]; reachable {
		t.Error("d3 should be isolated in the Figure 2 instance")
	}
	if got := hops(g, id("NOPE", "x")); len(got) != 0 {
		t.Errorf("hops from unknown node = %v", got)
	}
}

func TestShortestPathPaperConnections(t *testing.T) {
	g := paperGraph(t)
	for _, tc := range []struct {
		from, to relation.TupleID
		want     int
	}{
		{id("DEPARTMENT", "d1"), id("EMPLOYEE", "e1"), 1},  // connection 1: d1(XML) - e1(Smith)
		{id("PROJECT", "p1"), id("EMPLOYEE", "e1"), 2},     // connection 2: p1(XML) - w_f1 - e1(Smith)
		{id("DEPARTMENT", "d1"), id("DEPENDENT", "t1"), 2}, // connection 8: d1 - e3 - t1(Alice)
		{id("EMPLOYEE", "e1"), id("EMPLOYEE", "e1"), 0},
	} {
		if got, ok := hops(g, tc.from)[tc.to]; !ok || got != tc.want {
			t.Errorf("shortest %v..%v = %d (%v), want %d", tc.from, tc.to, got, ok, tc.want)
		}
	}
	// Unknown nodes are not connected.
	if _, ok := hops(g, id("EMPLOYEE", "e1"))[id("EMPLOYEE", "zz")]; ok {
		t.Error("path to unknown tuple should not exist")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := paperGraph(t)
	// Figure 2 has one large component plus the isolated department d3.
	if got := len(hops(g, id("EMPLOYEE", "e1"))); got != 15 {
		t.Errorf("component of e1 has %d nodes, want 15", got)
	}
	if got := len(hops(g, id("DEPARTMENT", "d3"))); got != 1 {
		t.Errorf("component of d3 has %d nodes, want 1", got)
	}

	// An isolated tuple forms its own component.
	db := relation.NewDatabase("iso")
	db.MustCreateTable(relation.MustSchema("A", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"}))
	a, _ := db.Table("A")
	if _, err := a.Insert(map[string]relation.Value{"ID": relation.String("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(map[string]relation.Value{"ID": relation.String("y")}); err != nil {
		t.Fatal(err)
	}
	g2 := build(db)
	for _, key := range []string{"x", "y"} {
		if got := len(hops(g2, id("A", key))); got != 1 {
			t.Errorf("component of isolated %s has %d nodes, want 1", key, got)
		}
	}
	if g2.EdgeCount() != 0 {
		t.Errorf("edges = %d, want 0", g2.EdgeCount())
	}
}

func TestDanglingReferencesAreSkipped(t *testing.T) {
	db := relation.NewDatabase("dangling")
	db.MustCreateTable(relation.MustSchema("B", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"}))
	db.MustCreateTable(relation.MustSchema("A",
		[]relation.Column{{Name: "ID", Type: relation.TypeString}, {Name: "B_ID", Type: relation.TypeString, Nullable: true}},
		[]string{"ID"},
		relation.ForeignKey{Name: "ab", Columns: []string{"B_ID"}, RefRelation: "B", RefColumns: []string{"ID"}}))
	a, _ := db.Table("A")
	if _, err := a.Insert(map[string]relation.Value{"ID": relation.String("a1"), "B_ID": relation.String("missing")}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(map[string]relation.Value{"ID": relation.String("a2")}); err != nil {
		t.Fatal(err)
	}
	g := build(db)
	if g.EdgeCount() != 0 {
		t.Errorf("dangling reference should not create an edge, got %d", g.EdgeCount())
	}
	if g.NodeCount() != 2 {
		t.Errorf("nodes = %d, want 2", g.NodeCount())
	}
}

func TestNodesSortedDeterministically(t *testing.T) {
	// Every node's adjacency comes back sorted by (other tuple, foreign
	// key) and oriented away from the node — the traversal order all
	// rendered output is defined by.
	db := paperdb.MustLoad()
	g := build(db)
	for _, tab := range db.Tables() {
		for _, tup := range tab.Tuples() {
			nbrs := g.Neighbors(tup.ID())
			for i, e := range nbrs {
				if e.From != tup.ID() {
					t.Fatalf("edge %v not oriented away from %v", e, tup.ID())
				}
				if i == 0 {
					continue
				}
				prev := nbrs[i-1]
				if e.To.Less(prev.To) || (e.To == prev.To && e.ForeignKey < prev.ForeignKey) {
					t.Fatalf("neighbors of %v not sorted at %d: %v before %v", tup.ID(), i, prev, e)
				}
			}
		}
	}
}

func TestEdgeStringRendering(t *testing.T) {
	e := Edge{From: id("EMPLOYEE", "e1"), To: id("DEPARTMENT", "d1"), ForeignKey: "WORKS_FOR"}
	got := e.String()
	if got != "EMPLOYEE[e1] -[WORKS_FOR]-> DEPARTMENT[d1]" {
		t.Errorf("String = %q", got)
	}
	r := e.Reverse()
	if r.From != id("DEPARTMENT", "d1") || r.To != id("EMPLOYEE", "e1") {
		t.Errorf("Reverse = %v", r)
	}
}
