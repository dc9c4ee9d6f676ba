// Package core implements the paper's primary contribution: lifting tuple
// connections (join paths found by keyword search) to the conceptual
// ER level, measuring their length both in the relational schema (number of
// joins) and at the conceptual level (middle relations collapse into their
// N:M relationship), classifying the association they establish as close or
// loose from the cardinality constraints along the path, and corroborating
// loose associations at the instance level.
package core

import (
	"fmt"
	"strings"

	"repro/internal/datagraph"
	"repro/internal/relation"
)

// Connection is a simple path of tuples in the data graph: the answer unit
// of the keyword-search engines. Tuples has one more element than Edges and
// Edges[i] connects Tuples[i] to Tuples[i+1].
type Connection struct {
	Tuples []relation.TupleID
	Edges  []datagraph.Edge
}

// NewConnection builds a connection from a start tuple and the edges walked
// from it, validating that the edges form a simple path.
func NewConnection(start relation.TupleID, edges []datagraph.Edge) (Connection, error) {
	c := Connection{Tuples: []relation.TupleID{start}, Edges: append([]datagraph.Edge(nil), edges...)}
	seen := map[relation.TupleID]bool{start: true}
	cur := start
	for _, e := range edges {
		if e.From != cur {
			return Connection{}, fmt.Errorf("core: edge %v does not continue the path at %v", e, cur)
		}
		if seen[e.To] {
			return Connection{}, fmt.Errorf("core: connection revisits tuple %v", e.To)
		}
		seen[e.To] = true
		c.Tuples = append(c.Tuples, e.To)
		cur = e.To
	}
	return c, nil
}

// Start returns the first tuple of the connection.
func (c Connection) Start() relation.TupleID { return c.Tuples[0] }

// End returns the last tuple of the connection.
func (c Connection) End() relation.TupleID { return c.Tuples[len(c.Tuples)-1] }

// RDBLength is the connection length in the relational database: the number
// of joins (edges) it contains.
func (c Connection) RDBLength() int { return len(c.Edges) }

// Reverse returns the connection read from its end to its start.
func (c Connection) Reverse() Connection {
	n := len(c.Tuples)
	out := Connection{
		Tuples: make([]relation.TupleID, n),
		Edges:  make([]datagraph.Edge, len(c.Edges)),
	}
	for i, t := range c.Tuples {
		out.Tuples[n-1-i] = t
	}
	for i, e := range c.Edges {
		out.Edges[len(c.Edges)-1-i] = e.Reverse()
	}
	return out
}

// Key is a canonical identifier of the connection's tuple sequence: the
// same path read in either direction yields the same key. Engines use it to
// deduplicate answers.
func (c Connection) Key() string {
	fwd := make([]string, len(c.Tuples))
	for i, t := range c.Tuples {
		fwd[i] = t.String()
	}
	bwd := make([]string, len(c.Tuples))
	for i := range fwd {
		bwd[i] = fwd[len(fwd)-1-i]
	}
	f, b := strings.Join(fwd, "|"), strings.Join(bwd, "|")
	if b < f {
		return b
	}
	return f
}

// Format renders the connection in the paper's Table 2 notation: tuple
// labels separated by " - ", with the keywords each tuple matches appended
// in parentheses. The label function may be nil (the tuple id rendering is
// used) and matched may be nil (no annotations).
func (c Connection) Format(label func(relation.TupleID) string, matched map[relation.TupleID][]string) string {
	if label == nil {
		label = func(id relation.TupleID) string { return id.String() }
	}
	parts := make([]string, len(c.Tuples))
	for i, t := range c.Tuples {
		s := label(t)
		if kws := matched[t]; len(kws) > 0 {
			s += "(" + strings.Join(kws, ",") + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, " - ")
}

// String renders the connection with raw tuple ids.
func (c Connection) String() string { return c.Format(nil, nil) }
