package datagraph

import (
	"reflect"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/workload"
)

// dump projects a graph into a comparable form through its string-space read
// view: the nodes must be exactly db's tuples, each mapped to its sorted
// adjacency list; the edge count rides along.
func dump(t testing.TB, g *Graph, db *relation.Database) (map[relation.TupleID][]Edge, int) {
	t.Helper()
	if g.NodeCount() != db.TupleCount() {
		t.Fatalf("graph has %d nodes, its database %d tuples", g.NodeCount(), db.TupleCount())
	}
	adj := make(map[relation.TupleID][]Edge, g.NodeCount())
	for _, tab := range db.Tables() {
		for _, tup := range tab.Tuples() {
			if !g.Has(tup.ID()) {
				t.Fatalf("tuple %v is not a node", tup.ID())
			}
			adj[tup.ID()] = g.Neighbors(tup.ID())
		}
	}
	return adj, g.EdgeCount()
}

// requireEquivalent asserts the incrementally maintained graph matches a
// fresh build of the same database.
func requireEquivalent(t *testing.T, db *relation.Database, inc *Graph) {
	t.Helper()
	gotAdj, gotEdges := dump(t, inc, db)
	wantAdj, wantEdges := dump(t, build(db), db)
	if gotEdges != wantEdges {
		t.Fatalf("edge count = %d, fresh build has %d", gotEdges, wantEdges)
	}
	if !reflect.DeepEqual(gotAdj, wantAdj) {
		t.Fatalf("adjacency diverged from fresh build:\nincremental: %v\nfresh:       %v", gotAdj, wantAdj)
	}
}

// mutate applies removals and additions to the database itself (callers pass
// the tuples), keeping the test focused on the graph delta.
func del(t *testing.T, db *relation.Database, table, key string) *relation.Tuple {
	t.Helper()
	tab, ok := db.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	tup, ok := tab.Delete(key)
	if !ok {
		t.Fatalf("no tuple %s[%s]", table, key)
	}
	return tup
}

func ins(t *testing.T, db *relation.Database, table string, row map[string]relation.Value) *relation.Tuple {
	t.Helper()
	tab, ok := db.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	tup, err := tab.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	return tup
}

func TestApplyDeltaInsert(t *testing.T) {
	db := paperdb.MustLoad()
	g := build(db)
	str := relation.String
	e5 := ins(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": str("e5"), "L_NAME": str("Turing"), "S_NAME": str("Alan"), "D_ID": str("d3")})
	w5 := ins(t, db, "WORKS_ON", map[string]relation.Value{
		"ESSN": str("e5"), "P_ID": str("p1"), "HOURS": relation.Int(10)})
	ng := g.ApplyDelta(db, nil, []*relation.Tuple{e5, w5})
	requireEquivalent(t, db, ng)
	if got := len(ng.Neighbors(e5.ID())); got != 2 {
		t.Fatalf("degree of inserted employee = %d, want 2 (department + junction)", got)
	}
	// The old graph is untouched.
	if g.Has(e5.ID()) {
		t.Fatal("old graph gained the inserted node")
	}
}

func TestApplyDeltaDeleteRemovesIncidentEdges(t *testing.T) {
	db := paperdb.MustLoad()
	g := build(db)
	oldDegree := len(g.Neighbors(relation.TupleID{Relation: "DEPARTMENT", Key: "d1"}))
	if oldDegree == 0 {
		t.Fatal("fixture: d1 should have edges")
	}
	e1 := del(t, db, "EMPLOYEE", "e1")
	ng := g.ApplyDelta(db, []*relation.Tuple{e1}, nil)
	requireEquivalent(t, db, ng)
	if ng.Has(e1.ID()) {
		t.Fatal("deleted tuple still a node")
	}
	// d1 lost exactly the edge to e1; the referencing WORKS_ON tuple of e1
	// now dangles and lost its employee edge but keeps the project edge.
	if got := len(ng.Neighbors(relation.TupleID{Relation: "DEPARTMENT", Key: "d1"})); got != oldDegree-1 {
		t.Fatalf("d1 degree = %d, want %d", got, oldDegree-1)
	}
	wf1 := relation.TupleID{Relation: "WORKS_ON", Key: relation.EncodeKey([]relation.Value{relation.String("e1"), relation.String("p1")})}
	if got := len(ng.Neighbors(wf1)); got != 1 {
		t.Fatalf("dangling junction degree = %d, want 1", got)
	}
}

func TestApplyDeltaReResolvesDanglingReferences(t *testing.T) {
	db := paperdb.MustLoad()
	g0 := build(db)
	// Delete a referenced employee, then re-insert it: the dangling
	// WORKS_ON/DEPENDENT references must resolve again.
	e3 := del(t, db, "EMPLOYEE", "e3")
	g1 := g0.ApplyDelta(db, []*relation.Tuple{e3}, nil)
	requireEquivalent(t, db, g1)
	str := relation.String
	e3b := ins(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": str("e3"), "L_NAME": str("Miller"), "S_NAME": str("Melina"), "D_ID": str("d1")})
	g2 := g1.ApplyDelta(db, nil, []*relation.Tuple{e3b})
	requireEquivalent(t, db, g2)
	// Back to the original shape.
	wantAdj, wantEdges := dump(t, g0, db)
	gotAdj, gotEdges := dump(t, g2, db)
	if gotEdges != wantEdges || !reflect.DeepEqual(gotAdj, wantAdj) {
		t.Fatal("delete + re-insert did not restore the original graph")
	}
}

func TestApplyDeltaUpdateMovesEdges(t *testing.T) {
	db := paperdb.MustLoad()
	g := build(db)
	// "Update" e1's department from d1 to d3: remove + add with the same id.
	old := del(t, db, "EMPLOYEE", "e1")
	str := relation.String
	neu := ins(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": str("e1"), "L_NAME": str("Smith"), "S_NAME": str("John"), "D_ID": str("d3")})
	ng := g.ApplyDelta(db, []*relation.Tuple{old}, []*relation.Tuple{neu})
	requireEquivalent(t, db, ng)
	found := false
	for _, e := range ng.Neighbors(neu.ID()) {
		if e.To == (relation.TupleID{Relation: "DEPARTMENT", Key: "d3"}) {
			found = true
		}
		if e.To == (relation.TupleID{Relation: "DEPARTMENT", Key: "d1"}) {
			t.Fatal("stale edge to the old department survived the update")
		}
	}
	if !found {
		t.Fatal("updated employee not connected to the new department")
	}
}

func TestApplyDeltaIsolatedAndMissingNodes(t *testing.T) {
	db := paperdb.MustLoad()
	g := build(db)
	// A department nothing references yet is an isolated node.
	d9 := ins(t, db, "DEPARTMENT", map[string]relation.Value{
		"ID": relation.String("d9"), "D_NAME": relation.String("phys")})
	ng := g.ApplyDelta(db, nil, []*relation.Tuple{d9})
	requireEquivalent(t, db, ng)
	if !ng.Has(d9.ID()) || len(ng.Neighbors(d9.ID())) != 0 {
		t.Fatal("isolated inserted tuple should be a node with no edges")
	}
}

func TestApplyDeltaRandomizedAgainstRebuild(t *testing.T) {
	db, err := workload.Generate(workload.ScaledConfig(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	cur := build(db)
	str := relation.String
	// Mixed batches over the synthetic database, each applied to the data
	// first and then to the graph, and checked against a from-scratch build.
	emp, _ := db.Table("EMPLOYEE")
	firstEmp := emp.Tuples()[0]
	dept, _ := db.Table("DEPARTMENT")
	firstDept := dept.Tuples()[0].ID().Key
	proj, _ := db.Table("PROJECT")
	firstProj := proj.Tuples()[0]
	projDept := firstProj.Value("D_ID")

	// Batch 1: delete one employee and one project (their junction and
	// dependent references now dangle).
	del(t, db, "EMPLOYEE", firstEmp.ID().Key)
	del(t, db, "PROJECT", firstProj.ID().Key)
	cur = cur.ApplyDelta(db, []*relation.Tuple{firstEmp, firstProj}, nil)
	requireEquivalent(t, db, cur)

	// Batch 2: insert an employee referencing an existing department plus a
	// junction tuple referencing both the new employee and the (currently
	// deleted, so dangling) project.
	e := ins(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": str("zz1"), "L_NAME": str("Smith"), "S_NAME": str("Zoe"), "D_ID": str(firstDept)})
	w := ins(t, db, "WORKS_ON", map[string]relation.Value{
		"ESSN": str("zz1"), "P_ID": str(firstProj.ID().Key), "HOURS": relation.Int(5)})
	cur = cur.ApplyDelta(db, nil, []*relation.Tuple{e, w})
	requireEquivalent(t, db, cur)

	// Batch 3: re-insert the deleted project — the fresh junction and every
	// surviving original reference re-resolve.
	pb := ins(t, db, "PROJECT", map[string]relation.Value{
		"ID":     str(firstProj.ID().Key),
		"D_ID":   projDept,
		"P_NAME": str("revived"),
	})
	cur = cur.ApplyDelta(db, nil, []*relation.Tuple{pb})
	requireEquivalent(t, db, cur)
}
