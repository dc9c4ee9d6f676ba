package mtjnt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

func id(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

// build constructs an engine over a freshly built graph and index of db.
func build(t testing.TB, db *relation.Database, opts Options) *Engine {
	t.Helper()
	tuples := symtab.ForDatabase(db)
	e, err := NewWithComponents(db, datagraph.BuildParallelWith(db, tuples, 0), index.BuildParallelWith(db, tuples, 0), opts)
	if err != nil {
		t.Fatalf("NewWithComponents: %v", err)
	}
	return e
}

func newEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	return build(t, paperdb.MustLoad(), opts)
}

func formatted(nets []Network) []string {
	out := make([]string, len(nets))
	for i, n := range nets {
		out[i] = n.Connection.Format(paperdb.DisplayLabel, n.Matches)
	}
	return out
}

func reverseFormat(s string) string {
	parts := strings.Split(s, " - ")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " - ")
}

func contains(got []string, want string) bool {
	for _, g := range got {
		if g == want || g == reverseFormat(want) {
			return true
		}
	}
	return false
}

// TestSearchSmithXMLLosesLongConnections reproduces the paper's central
// observation: under the MTJNT principle the query "Smith XML" only returns
// the minimal networks (connections 1, 2 and 5 plus the symmetric p2/e2 and
// p1/e2-style minimal pairs), while connections 3, 4, 6 and 7 are lost.
func TestSearchSmithXMLLosesLongConnections(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3})
	nets, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxEdges: 3})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	got := formatted(nets)

	for _, want := range []string{
		"d1(XML) - e1(Smith)",        // connection 1
		"p1(XML) - w_f1 - e1(Smith)", // connection 2
		"d2(XML) - e2(Smith)",        // connection 5
	} {
		if !contains(got, want) {
			t.Errorf("MTJNT results missing %q:\n%s", want, strings.Join(got, "\n"))
		}
	}
	for _, lost := range []string{
		"p1(XML) - d1(XML) - e1(Smith)",        // connection 3
		"d1(XML) - p1(XML) - w_f1 - e1(Smith)", // connection 4
		"p2(XML) - d2(XML) - e2(Smith)",        // connection 6
		"d2(XML) - p3 - w_f2 - e2(Smith)",      // connection 7
	} {
		if contains(got, lost) {
			t.Errorf("MTJNT should lose %q but returned it", lost)
		}
	}
}

func TestIsMinimalTotalPredicates(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3})
	keywords := paperdb.QuerySmithXML
	var got []string
	if err := e.Stream(context.Background(), keywords, Options{MaxEdges: 3}, func(n Network) bool {
		got = append(got, n.Connection.Format(paperdb.DisplayLabel, n.Matches))
		covered := make(map[string]bool)
		for _, kws := range n.Matches {
			for _, kw := range kws {
				covered[kw] = true
			}
		}
		if len(covered) != len(keywords) {
			t.Errorf("streamed network %s is not total: covers %v", got[len(got)-1], covered)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	q, err := e.resolve(keywords)
	if err != nil {
		t.Fatal(err)
	}
	dense := func(ids ...relation.TupleID) []uint32 {
		t.Helper()
		out := make([]uint32, len(ids))
		for i, id := range ids {
			n, ok := e.graph.Tuples().Lookup(id)
			if !ok {
				t.Fatalf("unknown tuple %v", id)
			}
			out[i] = n
		}
		return out
	}
	wf := func(essn, pid string) relation.TupleID {
		return id("WORKS_ON", relation.EncodeKey([]relation.Value{relation.String(essn), relation.String(pid)}))
	}

	for _, kept := range []string{
		"d1(XML) - e1(Smith)",        // connection 1
		"p1(XML) - w_f1 - e1(Smith)", // connection 2: the junction tuple is required for joining
	} {
		if !contains(got, kept) {
			t.Errorf("%s should be an MTJNT; streamed:\n%s", kept, strings.Join(got, "\n"))
		}
	}
	// Connection 3 stays total without p1; connection 7 without its interior
	// project p3, whose removal leaves a set still joinable through the direct
	// works-for edge d2-e2. Both are total but not minimal, so neither streams.
	for name, lost := range map[string][]uint32{
		"p1(XML) - d1(XML) - e1(Smith)":   dense(id("PROJECT", "p1"), id("DEPARTMENT", "d1"), id("EMPLOYEE", "e1")),
		"d2(XML) - p3 - w_f2 - e2(Smith)": dense(id("DEPARTMENT", "d2"), id("PROJECT", "p3"), wf("e2", "p3"), id("EMPLOYEE", "e2")),
	} {
		if contains(got, name) {
			t.Errorf("%s should not be minimal, yet it streamed", name)
		}
		if !e.isTotalIDs(lost, q) || e.isMinimalTotalIDs(lost, q) {
			t.Errorf("%s should be total but not minimal", name)
		}
	}
	// A connection that misses a keyword entirely is not total.
	d1e3 := dense(id("DEPARTMENT", "d1"), id("EMPLOYEE", "e3"))
	if e.isTotalIDs(d1e3, q) || e.isMinimalTotalIDs(d1e3, q) {
		t.Error("d1-e3 does not contain Smith, so it is neither total nor an MTJNT")
	}
	// The empty connection is rejected.
	if e.isMinimalTotalIDs(nil, q) {
		t.Error("empty connection cannot be an MTJNT")
	}
}

func TestSearchSingleTupleNetwork(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3})
	// Both keywords occur in d2's description.
	nets, err := e.SearchContext(context.Background(), []string{"information", "XML"}, Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range nets {
		if n.Connection.RDBLength() == 0 && n.Connection.Start() == id("DEPARTMENT", "d2") {
			found = true
		}
	}
	if !found {
		t.Error("single-tuple MTJNT missing")
	}
}

func TestSearchOrderingAndLimits(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3})
	nets, err := e.SearchContext(context.Background(), paperdb.QuerySmithXML, Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nets); i++ {
		if nets[i-1].Connection.RDBLength() > nets[i].Connection.RDBLength() {
			t.Error("networks not ordered by size")
		}
	}
}

func TestSearchErrors(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.SearchContext(context.Background(), nil, Options{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := e.SearchContext(context.Background(), []string{"Smith", "blockchain"}, Options{}); err == nil {
		t.Error("keyword without matches should fail (MTJNT requires totality)")
	}
	if _, err := NewWithComponents(nil, nil, nil, Options{}); err == nil {
		t.Error("NewWithComponents with nils should fail")
	}
}

func TestCandidateNetworks(t *testing.T) {
	e := newEngine(t, Options{MaxEdges: 3})
	cns, err := e.CandidateNetworks(paperdb.QuerySmithXML, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cns) == 0 {
		t.Fatal("no candidate networks generated")
	}
	var rendered []string
	for _, cn := range cns {
		rendered = append(rendered, cn.String())
	}
	joined := strings.Join(rendered, "\n")
	// DEPARTMENT-EMPLOYEE (connection 1/5 shape) and
	// PROJECT-WORKS_ON-EMPLOYEE (connection 2 shape) must be present.
	for _, want := range []string{"DEPARTMENT-EMPLOYEE", "PROJECT-WORKS_ON-EMPLOYEE"} {
		found := false
		for _, r := range rendered {
			if r == want || r == reverseDashed(want) {
				found = true
			}
		}
		if !found {
			t.Errorf("candidate networks missing %s:\n%s", want, joined)
		}
	}
	// Ordered by size.
	for i := 1; i < len(cns); i++ {
		if len(cns[i-1].Relations) > len(cns[i].Relations) {
			t.Error("candidate networks not ordered by size")
		}
	}
	// No duplicates up to reversal.
	seen := make(map[string]bool)
	for _, cn := range cns {
		key := cn.String()
		if seen[key] || seen[reverseDashed(key)] {
			t.Errorf("duplicate candidate network %s", key)
		}
		seen[key] = true
	}
	if _, err := e.CandidateNetworks(nil, 3); err == nil {
		t.Error("empty query should fail")
	}
}

func reverseDashed(s string) string {
	parts := strings.Split(s, "-")
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "-")
}
