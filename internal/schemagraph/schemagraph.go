// Package schemagraph builds graph views of a relational catalog.
//
// Two views are provided. The relational view has one node per relation and
// one edge per foreign key (DISCOVER-style candidate-network generation
// operates on it). The conceptual view has one node per entity relation and
// one edge per ER relationship: foreign-key edges of non-junction relations
// become 1:N edges and junction relations collapse into a single N:M edge,
// which is how the paper counts connection lengths "at the conceptual
// level".
package schemagraph

import (
	"fmt"
	"sort"

	"repro/internal/er"
	"repro/internal/relation"
)

// Edge is an undirected schema edge with an orientation convention: it is
// stored from the referencing relation (the foreign-key owner) to the
// referenced relation, with the cardinality read in that direction
// (owner N:1 referenced for a plain foreign key).
type Edge struct {
	// From is the relation owning the foreign key (or, in the conceptual
	// view, the relationship's source entity relation).
	From string
	// To is the referenced relation (or the relationship's target).
	To string
	// Label names the foreign key or ER relationship implementing the edge.
	Label string
	// Cardinality is read From -> To.
	Cardinality er.Cardinality
	// ViaJunction is the name of the middle relation the edge collapses,
	// when the edge represents an N:M relationship in the conceptual view.
	ViaJunction string
}

// Reverse returns the edge read in the opposite direction.
func (e Edge) Reverse() Edge {
	return Edge{
		From:        e.To,
		To:          e.From,
		Label:       e.Label,
		Cardinality: e.Cardinality.Reverse(),
		ViaJunction: e.ViaJunction,
	}
}

// String renders the edge as "FROM card TO (label)".
func (e Edge) String() string {
	return fmt.Sprintf("%s %s %s (%s)", e.From, e.Cardinality, e.To, e.Label)
}

// Node is a schema-graph node.
type Node struct {
	// Relation is the relation name.
	Relation string
	// IsJunction reports whether the relation is a middle relation
	// implementing an N:M relationship.
	IsJunction bool
}

// Graph is an undirected multigraph over relations. Edges are stored once in
// their canonical orientation; adjacency returns them oriented away from the
// queried node.
type Graph struct {
	nodes     map[string]Node
	nodeOrder []string
	edges     []Edge
	adjacency map[string][]Edge
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]Node), adjacency: make(map[string][]Edge)}
}

// AddNode adds a node if not already present.
func (g *Graph) AddNode(n Node) {
	if _, ok := g.nodes[n.Relation]; ok {
		return
	}
	g.nodes[n.Relation] = n
	g.nodeOrder = append(g.nodeOrder, n.Relation)
}

// AddEdge adds an edge between existing nodes.
func (g *Graph) AddEdge(e Edge) error {
	if _, ok := g.nodes[e.From]; !ok {
		return fmt.Errorf("schemagraph: edge %s references unknown node %s", e.Label, e.From)
	}
	if _, ok := g.nodes[e.To]; !ok {
		return fmt.Errorf("schemagraph: edge %s references unknown node %s", e.Label, e.To)
	}
	g.edges = append(g.edges, e)
	g.adjacency[e.From] = append(g.adjacency[e.From], e)
	g.adjacency[e.To] = append(g.adjacency[e.To], e.Reverse())
	return nil
}

// Node returns the named node.
func (g *Graph) Node(name string) (Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// Nodes returns the nodes in insertion order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.nodeOrder))
	for _, n := range g.nodeOrder {
		out = append(out, g.nodes[n])
	}
	return out
}

// NodeNames returns the node names in insertion order.
func (g *Graph) NodeNames() []string { return append([]string(nil), g.nodeOrder...) }

// Edges returns the edges in insertion order (canonical orientation).
func (g *Graph) Edges() []Edge { return append([]Edge(nil), g.edges...) }

// Neighbors returns the edges incident to the node, oriented away from it
// and sorted by (other node, label) for determinism.
func (g *Graph) Neighbors(name string) []Edge {
	out := append([]Edge(nil), g.adjacency[name]...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Path is a walk through the schema graph: the visited relations and the
// edges between them (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes []string
	Edges []Edge
}

// Cardinalities returns the edge cardinalities read in walk direction.
func (p Path) Cardinalities() []er.Cardinality {
	out := make([]er.Cardinality, len(p.Edges))
	for i, e := range p.Edges {
		out[i] = e.Cardinality
	}
	return out
}

// String renders the path in the paper's notation
// ("DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT").
func (p Path) String() string {
	return er.FormatPath(p.Nodes, p.Cardinalities())
}

// EnumeratePaths returns every simple path (no repeated node) from one
// relation to another with at most maxEdges edges, in deterministic order.
// Both views use it: Table 1 enumerates conceptual paths between entity
// pairs, and the candidate-network generator enumerates relational paths.
func (g *Graph) EnumeratePaths(from, to string, maxEdges int) []Path {
	var out []Path
	if _, ok := g.nodes[from]; !ok {
		return nil
	}
	if _, ok := g.nodes[to]; !ok {
		return nil
	}
	visited := map[string]bool{from: true}
	var walk func(cur string, nodes []string, edges []Edge)
	walk = func(cur string, nodes []string, edges []Edge) {
		if cur == to && len(edges) > 0 {
			out = append(out, Path{Nodes: append([]string(nil), nodes...), Edges: append([]Edge(nil), edges...)})
			return
		}
		if len(edges) >= maxEdges {
			return
		}
		for _, e := range g.Neighbors(cur) {
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			walk(e.To, append(nodes, e.To), append(edges, e))
			visited[e.To] = false
		}
	}
	walk(from, []string{from}, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Edges) != len(out[j].Edges) {
			return len(out[i].Edges) < len(out[j].Edges)
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// FromDatabase builds the relational view of the catalog: one node per
// relation, one edge per foreign key, oriented owner -> referenced with
// cardinality N:1 (many referencing tuples share one referenced tuple).
func FromDatabase(db *relation.Database) *Graph {
	g := NewGraph()
	for _, s := range db.Schemas() {
		g.AddNode(Node{Relation: s.Name, IsJunction: s.IsJunction()})
	}
	for _, s := range db.Schemas() {
		for _, fk := range s.ForeignKeys {
			// Ignore dangling FKs; Database.Validate reports them.
			if _, ok := db.Table(fk.RefRelation); !ok {
				continue
			}
			_ = g.AddEdge(Edge{
				From:        s.Name,
				To:          fk.RefRelation,
				Label:       fk.Label(),
				Cardinality: er.ManyToOne,
			})
		}
	}
	return g
}

// Conceptual builds the conceptual view from a derived or given ER schema
// and its mapping: one node per entity relation, one edge per relationship.
// N:M relationships appear as a single edge carrying the junction relation's
// name in ViaJunction.
func Conceptual(schema *er.Schema, mapping *er.Mapping) (*Graph, error) {
	g := NewGraph()
	for _, e := range schema.Entities() {
		rel, ok := mapping.EntityRelation[e.Name]
		if !ok {
			return nil, fmt.Errorf("schemagraph: entity %s has no relation in the mapping", e.Name)
		}
		g.AddNode(Node{Relation: rel})
	}
	for _, r := range schema.Relationships() {
		from := mapping.EntityRelation[r.Source]
		to := mapping.EntityRelation[r.Target]
		e := Edge{
			From:        from,
			To:          to,
			Label:       r.Name,
			Cardinality: r.Cardinality,
		}
		if r.Cardinality == er.ManyToMany {
			e.ViaJunction = mapping.RelationshipMiddle[r.Name]
		}
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}
