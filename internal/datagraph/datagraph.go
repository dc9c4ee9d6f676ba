// Package datagraph builds the tuple graph of a relational database: one
// node per tuple, one undirected edge per resolved foreign-key reference.
// The BANKS-style search, the path enumerator and the instance-level
// association analysis all operate on it.
//
// Nodes are interned into the dense uint32 tuple-ID space of
// internal/symtab (the canonical symtab.ForDatabase assignment, shared with
// the inverted index) and adjacency is stored as slab-backed []DenseEdge
// slices indexed by dense ID. The exported surface speaks the string space
// (relation.TupleID, Edge) unless a method is explicitly suffixed with
// ID/IDs; traversal order everywhere remains defined by the string-space
// comparator (To.Less, then foreign-key label), so rendered outputs are
// independent of the internal ID assignment.
package datagraph

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Edge is an edge of the tuple graph, stored from the referencing tuple to
// the referenced tuple.
type Edge struct {
	// From is the referencing tuple (the foreign-key owner).
	From relation.TupleID
	// To is the referenced tuple.
	To relation.TupleID
	// ForeignKey is the label of the foreign key inducing the edge.
	ForeignKey string
}

// Reverse returns the edge read in the opposite direction.
func (e Edge) Reverse() Edge { return Edge{From: e.To, To: e.From, ForeignKey: e.ForeignKey} }

// String renders the edge as "from -[fk]-> to".
func (e Edge) String() string {
	return fmt.Sprintf("%s -[%s]-> %s", e.From, e.ForeignKey, e.To)
}

// DenseEdge is one adjacency entry in the interned space: the dense ID of
// the other endpoint and the interned foreign-key label. The owning node is
// implicit in the adjacency slot, halving the edge footprint versus Edge.
type DenseEdge struct {
	// To is the dense tuple ID of the other endpoint.
	To uint32
	// FK is the interned foreign-key label (see Graph.FKLabel).
	FK uint32
}

// Graph is the tuple graph. It is immutable once built; ApplyDelta derives
// new generations copy-on-write.
type Graph struct {
	tuples *symtab.Tuples
	fks    *symtab.Strings
	// adj is indexed by dense tuple ID; each slice is sorted by the
	// string-space order (To.Less, then FK label), nil for isolated nodes
	// and for removed tuples (whose dense IDs persist, unpresent).
	adj       [][]DenseEdge
	present   []bool
	nodeCount int
	edgeCount int
}

// rawEdge is an unsorted resolved reference in the dense space, produced by
// the build workers.
type rawEdge struct {
	from, to, fk uint32
}

// BuildParallelWith builds the tuple graph of the database over a
// pre-interned tuple table, which must contain every tuple of db
// (symtab.ForDatabase order). Dangling references are skipped
// (CheckIntegrity reports them); the graph only contains resolved edges.
// Tables are resolved by up to `workers` goroutines (0 or negative means
// GOMAXPROCS, 1 is the fully sequential path) and their edge lists are
// merged in table order, so the resulting graph is identical to a
// sequential build regardless of the worker count. Workers only read the
// tuple table.
func BuildParallelWith(db *relation.Database, tuples *symtab.Tuples, workers int) *Graph {
	tables := db.Tables()
	g := &Graph{tuples: tuples, fks: symtab.NewStrings()}

	// Intern every foreign-key label up front, so the parallel workers only
	// read the symbol tables.
	for _, t := range tables {
		for _, fk := range t.Schema().ForeignKeys {
			g.fks.Intern(fk.Label())
		}
	}

	// Per-table workers: each resolves the outgoing foreign-key edges of one
	// table into the dense space.
	perTable, _ := parallel.Map(context.Background(), workers, len(tables), func(_ context.Context, i int) ([]rawEdge, error) {
		t := tables[i]
		var edges []rawEdge
		for _, fk := range t.Schema().ForeignKeys {
			label, _ := g.fks.Lookup(fk.Label())
			for _, tup := range t.Tuples() {
				ref, ok := db.ReferencedTuple(tup, fk)
				if !ok {
					continue
				}
				from, _ := tuples.Lookup(tup.ID())
				to, _ := tuples.Lookup(ref.ID())
				edges = append(edges, rawEdge{from: from, to: to, fk: label})
			}
		}
		return edges, nil
	})

	// Slab-allocate the adjacency: count degrees, carve one contiguous
	// DenseEdge slab into per-node slices, then fill in table order followed
	// by per-table discovery order (exactly as the sequential loop appended).
	n := tuples.Len()
	deg := make([]int32, n)
	for _, edges := range perTable {
		for _, e := range edges {
			deg[e.from]++
			deg[e.to]++
			g.edgeCount++
		}
	}
	slab := make([]DenseEdge, 2*g.edgeCount)
	g.adj = make([][]DenseEdge, n)
	off := 0
	for id, d := range deg {
		if d == 0 {
			continue // isolated tuples are still nodes, with a nil list
		}
		g.adj[id] = slab[off : off : off+int(d)]
		off += int(d)
	}
	for _, edges := range perTable {
		for _, e := range edges {
			g.adj[e.from] = append(g.adj[e.from], DenseEdge{To: e.to, FK: e.fk})
			g.adj[e.to] = append(g.adj[e.to], DenseEdge{To: e.from, FK: e.fk})
		}
	}
	g.present = make([]bool, n)
	for i := range g.present {
		g.present[i] = true
	}
	g.nodeCount = n

	// Sort adjacency lists in the string-space order for deterministic
	// traversal independent of the dense ID assignment.
	_ = parallel.ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
		g.sortAdjacency(g.adj[i])
		return nil
	})
	return g
}

// sortAdjacency restores the deterministic (To.Less, FK label) order of one
// adjacency list. Dense IDs are bijective with tuple identifiers, so equal
// To means the same tuple and the label breaks the tie.
func (g *Graph) sortAdjacency(edges []DenseEdge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].To != edges[j].To {
			return g.tuples.Less(edges[i].To, edges[j].To)
		}
		return g.fks.String(edges[i].FK) < g.fks.String(edges[j].FK)
	})
}

// Tuples returns the graph's interned tuple-ID table: the dense space every
// ID-suffixed method speaks, shared (by construction) with the inverted
// index of the same generation.
func (g *Graph) Tuples() *symtab.Tuples { return g.tuples }

// NodeCount returns the number of tuples in the graph.
func (g *Graph) NodeCount() int { return g.nodeCount }

// EdgeCount returns the number of (undirected) edges.
func (g *Graph) EdgeCount() int { return g.edgeCount }

// NumIDs returns the size of the dense ID space, including IDs of removed
// tuples — the capacity bound for visited sets and distance arrays.
func (g *Graph) NumIDs() int { return len(g.adj) }

// FKLabel returns the foreign-key label of an interned FK ID.
func (g *Graph) FKLabel(fk uint32) string { return g.fks.String(fk) }

// Has reports whether the tuple is a node of the graph.
func (g *Graph) Has(id relation.TupleID) bool {
	dense, ok := g.tuples.Lookup(id)
	return ok && g.HasID(dense)
}

// HasID reports whether the dense ID is a present node (removed tuples keep
// their ID but are not present).
func (g *Graph) HasID(dense uint32) bool {
	return int(dense) < len(g.present) && g.present[dense]
}

// NeighborsID returns the adjacency list of a dense node ID, sorted by the
// string-space order (other tuple, foreign key). The slice is shared with
// the graph and must not be mutated.
func (g *Graph) NeighborsID(dense uint32) []DenseEdge {
	if int(dense) >= len(g.adj) {
		return nil
	}
	return g.adj[dense]
}

// EdgeOf converts one adjacency entry of the node `from` into the string
// space.
func (g *Graph) EdgeOf(from uint32, de DenseEdge) Edge {
	return Edge{From: g.tuples.ID(from), To: g.tuples.ID(de.To), ForeignKey: g.fks.String(de.FK)}
}

// Neighbors returns the edges incident to the tuple, oriented away from it
// and sorted by (other tuple, foreign key). This is the string-space view,
// materialized per call; traversal hot paths use NeighborsID instead.
func (g *Graph) Neighbors(id relation.TupleID) []Edge {
	dense, ok := g.tuples.Lookup(id)
	if !ok || !g.HasID(dense) {
		return nil
	}
	adj := g.adj[dense]
	if len(adj) == 0 {
		return nil
	}
	out := make([]Edge, len(adj))
	for i, de := range adj {
		out[i] = g.EdgeOf(dense, de)
	}
	return out
}
