package schemagraph

import (
	"strings"
	"testing"

	"repro/internal/er"
	"repro/internal/paperdb"
)

func relationalGraph(t *testing.T) *Graph {
	t.Helper()
	return FromDatabase(paperdb.MustLoad())
}

func conceptualGraph(t *testing.T) *Graph {
	t.Helper()
	schema, mapping, err := paperdb.Conceptual()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Conceptual(schema, mapping)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromDatabaseRelationalView(t *testing.T) {
	g := relationalGraph(t)
	if got := len(g.Nodes()); got != 5 {
		t.Errorf("nodes = %d, want 5", got)
	}
	// One edge per foreign key: CONTROLS, WORKS_FOR, WORKS_ON x2, DEPENDENTS_OF.
	if got := len(g.Edges()); got != 5 {
		t.Errorf("edges = %d, want 5", got)
	}
	n, ok := g.Node("WORKS_ON")
	if !ok || !n.IsJunction {
		t.Errorf("WORKS_ON node = %+v, %v", n, ok)
	}
	n, _ = g.Node("EMPLOYEE")
	if n.IsJunction {
		t.Error("EMPLOYEE should not be a junction")
	}
	// Foreign-key edges carry N:1 cardinality from owner to referenced.
	for _, e := range g.Edges() {
		if e.Cardinality != er.ManyToOne {
			t.Errorf("edge %s cardinality = %v, want N:1", e, e.Cardinality)
		}
	}
	if got := len(distances(g, "DEPARTMENT")); got != len(g.NodeNames()) {
		t.Errorf("Figure 2 schema graph should be connected: %d of %d nodes reachable", got, len(g.NodeNames()))
	}
}

func TestConceptualViewCollapsesJunction(t *testing.T) {
	g := conceptualGraph(t)
	if got := len(g.Nodes()); got != 4 {
		t.Errorf("conceptual nodes = %v", g.NodeNames())
	}
	if _, ok := g.Node("WORKS_ON"); ok {
		t.Error("junction must not be a node of the conceptual view")
	}
	if got := len(g.Edges()); got != 4 {
		t.Errorf("conceptual edges = %d, want 4", got)
	}
	var nm *Edge
	for _, e := range g.Edges() {
		if e.Cardinality == er.ManyToMany {
			cp := e
			nm = &cp
		}
	}
	if nm == nil {
		t.Fatal("conceptual view lost the N:M edge")
	}
	if nm.ViaJunction != "WORKS_ON" {
		t.Errorf("N:M edge ViaJunction = %q", nm.ViaJunction)
	}
	ends := map[string]bool{nm.From: true, nm.To: true}
	if !ends["EMPLOYEE"] || !ends["PROJECT"] {
		t.Errorf("N:M edge endpoints = %s - %s", nm.From, nm.To)
	}
}

func TestNeighborsSortedAndOriented(t *testing.T) {
	g := relationalGraph(t)
	nbrs := g.Neighbors("EMPLOYEE")
	if len(nbrs) != 3 {
		t.Fatalf("EMPLOYEE neighbors = %d, want 3 (DEPARTMENT, DEPENDENT, WORKS_ON)", len(nbrs))
	}
	for _, e := range nbrs {
		if e.From != "EMPLOYEE" {
			t.Errorf("neighbor edge not oriented away from EMPLOYEE: %s", e)
		}
	}
	// Sorted by target relation name.
	if nbrs[0].To != "DEPARTMENT" || nbrs[1].To != "DEPENDENT" || nbrs[2].To != "WORKS_ON" {
		t.Errorf("neighbors order = %v, %v, %v", nbrs[0].To, nbrs[1].To, nbrs[2].To)
	}
	// The EMPLOYEE -> DEPARTMENT edge keeps N:1; the reversed incoming
	// WORKS_ON edge becomes 1:N when read from EMPLOYEE.
	if nbrs[0].Cardinality != er.ManyToOne {
		t.Errorf("EMPLOYEE->DEPARTMENT cardinality = %v", nbrs[0].Cardinality)
	}
	if nbrs[2].Cardinality != er.OneToMany {
		t.Errorf("EMPLOYEE->WORKS_ON cardinality = %v", nbrs[2].Cardinality)
	}
	if got := len(g.Neighbors("DEPENDENT")); got != 1 {
		t.Errorf("DEPENDENT neighbors = %d, want 1", got)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{Relation: "A"})
	if err := g.AddEdge(Edge{From: "A", To: "B", Label: "x"}); err == nil {
		t.Error("edge to unknown node should fail")
	}
	if err := g.AddEdge(Edge{From: "B", To: "A", Label: "x"}); err == nil {
		t.Error("edge from unknown node should fail")
	}
	// Adding the same node twice is a no-op.
	g.AddNode(Node{Relation: "A", IsJunction: true})
	if n, _ := g.Node("A"); n.IsJunction {
		t.Error("re-adding a node must not overwrite it")
	}
}

// distances returns the minimum number of edges from the start node to every
// reachable node of g (breadth-first search).
func distances(g *Graph, start string) map[string]int {
	dist := map[string]int{start: 0}
	if _, ok := g.nodes[start]; !ok {
		return map[string]int{}
	}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(cur) {
			if _, seen := dist[e.To]; !seen {
				dist[e.To] = dist[cur] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

func TestDistancesAndConnected(t *testing.T) {
	g := relationalGraph(t)
	dist := distances(g, "DEPENDENT")
	want := map[string]int{"DEPENDENT": 0, "EMPLOYEE": 1, "DEPARTMENT": 2, "WORKS_ON": 2, "PROJECT": 3}
	for rel, d := range want {
		if dist[rel] != d {
			t.Errorf("dist(DEPENDENT, %s) = %d, want %d", rel, dist[rel], d)
		}
	}
	if got := distances(g, "NOPE"); len(got) != 0 {
		t.Errorf("distances from unknown node = %v", got)
	}
	lonely := NewGraph()
	lonely.AddNode(Node{Relation: "A"})
	lonely.AddNode(Node{Relation: "B"})
	if got := distances(lonely, "A"); len(got) != 1 {
		t.Errorf("two isolated nodes are not connected: distances(A) = %v", got)
	}
}

// TestConceptualPathsTable1 checks that the conceptual schema graph contains
// exactly the entity-to-entity paths the paper lists in Table 1 (up to 3
// relationships) with the right cardinalities.
func TestConceptualPathsTable1(t *testing.T) {
	g := conceptualGraph(t)

	// Relationship 3: department - employee - dependent.
	paths := g.EnumeratePaths("DEPARTMENT", "DEPENDENT", 2)
	if len(paths) != 1 {
		t.Fatalf("DEPARTMENT..DEPENDENT paths (<=2) = %d", len(paths))
	}
	if got := paths[0].String(); got != "DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT" {
		t.Errorf("path = %q", got)
	}
	if cls := er.ClassifyPath(paths[0].Cardinalities()); cls != er.ClassFunctional {
		t.Errorf("relationship 3 class = %v, want functional", cls)
	}

	// Relationships 1, 4 and 5: the three department..employee paths with
	// at most 2 relationships: the immediate 1:N, via PROJECT (1:N then
	// M:N read department->project->employee), and none other.
	paths = g.EnumeratePaths("DEPARTMENT", "EMPLOYEE", 2)
	if len(paths) != 2 {
		t.Fatalf("DEPARTMENT..EMPLOYEE paths (<=2) = %d, want 2", len(paths))
	}
	if got := paths[0].String(); got != "DEPARTMENT 1:N EMPLOYEE" {
		t.Errorf("shortest path = %q", got)
	}
	longer := paths[1]
	if len(longer.Edges) != 2 || longer.Nodes[1] != "PROJECT" {
		t.Errorf("longer path = %q", longer)
	}
	if cls := er.ClassifyPath(longer.Cardinalities()); cls.Close() {
		t.Errorf("department-project-employee should allow loose associations, class = %v", cls)
	}

	// Relationship 5 read from PROJECT to EMPLOYEE via DEPARTMENT.
	paths = g.EnumeratePaths("PROJECT", "EMPLOYEE", 2)
	var viaDept *Path
	for i := range paths {
		if len(paths[i].Nodes) == 3 && paths[i].Nodes[1] == "DEPARTMENT" {
			viaDept = &paths[i]
		}
	}
	if viaDept == nil {
		t.Fatal("missing project-department-employee path")
	}
	if cls := er.ClassifyPath(viaDept.Cardinalities()); cls != er.ClassTransitiveNM {
		t.Errorf("relationship 5 class = %v, want transitive N:M", cls)
	}
}

func TestEnumeratePathsRespectsBudgetAndSimplicity(t *testing.T) {
	g := relationalGraph(t)
	paths := g.EnumeratePaths("DEPARTMENT", "EMPLOYEE", 1)
	if len(paths) != 1 {
		t.Fatalf("paths within 1 edge = %d, want 1 (the WORKS_FOR edge)", len(paths))
	}
	paths = g.EnumeratePaths("DEPARTMENT", "EMPLOYEE", 4)
	for _, p := range paths {
		seen := make(map[string]bool)
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path %q repeats node %s", p, n)
			}
			seen[n] = true
		}
		if len(p.Edges) > 4 {
			t.Errorf("path %q exceeds budget", p)
		}
	}
	if got := g.EnumeratePaths("NOPE", "EMPLOYEE", 3); got != nil {
		t.Errorf("paths from unknown node = %v", got)
	}
	if got := g.EnumeratePaths("DEPARTMENT", "NOPE", 3); got != nil {
		t.Errorf("paths to unknown node = %v", got)
	}
}

func TestEdgeStringAndReverse(t *testing.T) {
	e := Edge{From: "EMPLOYEE", To: "DEPARTMENT", Label: "WORKS_FOR", Cardinality: er.ManyToOne}
	if got := e.String(); !strings.Contains(got, "EMPLOYEE N:1 DEPARTMENT") {
		t.Errorf("String = %q", got)
	}
	r := e.Reverse()
	if r.From != "DEPARTMENT" || r.To != "EMPLOYEE" || r.Cardinality != er.OneToMany {
		t.Errorf("Reverse = %+v", r)
	}
}

func TestConceptualRejectsIncompleteMapping(t *testing.T) {
	schema, _, err := paperdb.Conceptual()
	if err != nil {
		t.Fatal(err)
	}
	broken := &er.Mapping{EntityRelation: map[string]string{}, RelationshipMiddle: map[string]string{}}
	if _, err := Conceptual(schema, broken); err == nil {
		t.Error("Conceptual with incomplete mapping should fail")
	}
}
