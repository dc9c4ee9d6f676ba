package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/paperdb"
	"repro/internal/relation"
)

func TestNewConnectionValidation(t *testing.T) {
	g := buildGraph(paperdb.MustLoad())
	e1, d1 := id("EMPLOYEE", "e1"), id("DEPARTMENT", "d1")
	var edge datagraph.Edge
	for _, e := range g.Neighbors(e1) {
		if e.To == d1 {
			edge = e
		}
	}
	c, err := NewConnection(e1, []datagraph.Edge{edge})
	if err != nil {
		t.Fatalf("NewConnection: %v", err)
	}
	if c.Start() != e1 || c.End() != d1 || c.RDBLength() != 1 {
		t.Errorf("connection = %v", c)
	}
	if len(c.Tuples) != 2 || c.Tuples[0] != e1 || c.Tuples[1] != d1 {
		t.Errorf("tuples = %v, want [e1 d1]", c.Tuples)
	}

	// Edge not continuing the walk.
	if _, err := NewConnection(d1, []datagraph.Edge{edge}); err == nil {
		t.Error("edge not starting at the path head should fail")
	}
	// Revisiting a tuple.
	back := edge.Reverse()
	if _, err := NewConnection(e1, []datagraph.Edge{edge, back}); err == nil {
		t.Error("revisiting a tuple should fail")
	}
}

func TestConnectionReverseAndKey(t *testing.T) {
	g := buildGraph(paperdb.MustLoad())
	c := connect(t, g, id("DEPARTMENT", "d1"), id("EMPLOYEE", "e3"), id("DEPENDENT", "t1"))
	r := c.Reverse()
	if r.Start() != c.End() || r.End() != c.Start() {
		t.Error("Reverse endpoints wrong")
	}
	if r.RDBLength() != c.RDBLength() {
		t.Error("Reverse changed length")
	}
	if c.Key() != r.Key() {
		t.Errorf("Key not direction-invariant: %q vs %q", c.Key(), r.Key())
	}
	other := connect(t, g, id("DEPARTMENT", "d1"), id("EMPLOYEE", "e1"))
	if other.Key() == c.Key() {
		t.Error("different connections must have different keys")
	}
}

func TestConnectionFormat(t *testing.T) {
	g := buildGraph(paperdb.MustLoad())
	c := connect(t, g, id("DEPARTMENT", "d1"), id("EMPLOYEE", "e1"))
	matched := map[relation.TupleID][]string{
		id("DEPARTMENT", "d1"): {"XML"},
		id("EMPLOYEE", "e1"):   {"Smith"},
	}
	got := c.Format(paperdb.DisplayLabel, matched)
	if got != "d1(XML) - e1(Smith)" {
		t.Errorf("Format = %q", got)
	}
	// Without labels and annotations the raw ids are used.
	raw := c.String()
	if !strings.Contains(raw, "DEPARTMENT[d1]") || !strings.Contains(raw, "EMPLOYEE[e1]") {
		t.Errorf("String = %q", raw)
	}
}

// enumerate is EnumerateConnectionsContext under a live context.
func enumerate(t testing.TB, g *datagraph.Graph, from, to relation.TupleID, maxEdges int) []Connection {
	t.Helper()
	out, err := EnumerateConnectionsContext(context.Background(), g, from, to, maxEdges)
	if err != nil {
		t.Fatalf("EnumerateConnectionsContext(%v, %v): %v", from, to, err)
	}
	return out
}

func TestEnumerateConnectionsPaperPairs(t *testing.T) {
	g := buildGraph(paperdb.MustLoad())
	d1, e1 := id("DEPARTMENT", "d1"), id("EMPLOYEE", "e1")

	// Between d1 and e1 with at most 3 joins the paper's connections 1 and
	// 4 exist (and nothing else).
	conns := enumerate(t, g, d1, e1, 3)
	if len(conns) != 2 {
		t.Fatalf("connections d1..e1 (<=3) = %d, want 2", len(conns))
	}
	if conns[0].RDBLength() != 1 || conns[1].RDBLength() != 3 {
		t.Errorf("connection lengths = %d, %d", conns[0].RDBLength(), conns[1].RDBLength())
	}

	// Between p1 and e1 with at most 2 joins: connections 2 and 3.
	p1 := id("PROJECT", "p1")
	conns = enumerate(t, g, p1, e1, 2)
	if len(conns) != 2 {
		t.Fatalf("connections p1..e1 (<=2) = %d, want 2", len(conns))
	}
	for _, c := range conns {
		if c.RDBLength() != 2 {
			t.Errorf("connection length = %d, want 2", c.RDBLength())
		}
	}

	// Ordering is deterministic: shorter connections first.
	conns = enumerate(t, g, d1, e1, 4)
	for i := 1; i < len(conns); i++ {
		if conns[i-1].RDBLength() > conns[i].RDBLength() {
			t.Fatal("connections not ordered by length")
		}
	}
}

func TestEnumerateConnectionsEdgeCases(t *testing.T) {
	g := buildGraph(paperdb.MustLoad())
	e1 := id("EMPLOYEE", "e1")
	if got := enumerate(t, g, e1, e1, 3); got != nil {
		t.Errorf("connections from a tuple to itself = %v", got)
	}
	if got := enumerate(t, g, e1, id("EMPLOYEE", "zz"), 3); got != nil {
		t.Errorf("connections to an unknown tuple = %v", got)
	}
	if got := enumerate(t, g, e1, id("DEPARTMENT", "d1"), 0); got != nil {
		t.Errorf("connections with zero budget = %v", got)
	}
	if got := enumerate(t, nil, e1, id("DEPARTMENT", "d1"), 2); got != nil {
		t.Errorf("connections on nil graph = %v", got)
	}
	// The isolated department d3 is connected to nothing.
	if got := enumerate(t, g, id("DEPARTMENT", "d3"), e1, 5); len(got) != 0 {
		t.Errorf("connections from isolated d3 = %d", len(got))
	}
}

func TestEnumerateConnectionsAreSimplePaths(t *testing.T) {
	g := buildGraph(paperdb.MustLoad())
	conns := enumerate(t, g, id("DEPARTMENT", "d2"), id("DEPENDENT", "t1"), 6)
	if len(conns) == 0 {
		t.Fatal("expected connections between d2 and t1")
	}
	for _, c := range conns {
		seen := make(map[relation.TupleID]bool)
		for _, tup := range c.Tuples {
			if seen[tup] {
				t.Fatalf("connection %v revisits %v", c, tup)
			}
			seen[tup] = true
		}
		if len(c.Edges) > 6 {
			t.Errorf("connection exceeds budget: %v", c)
		}
		cur := c.Start()
		for _, e := range c.Edges {
			if e.From != cur {
				t.Fatalf("connection %v edges do not chain", c)
			}
			cur = e.To
		}
	}
}
