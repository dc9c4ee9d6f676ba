package datagraph

import (
	"repro/internal/relation"
)

// ApplyDelta returns a new graph reflecting a batch of tuple mutations
// without rebuilding: `removed` are tuples no longer in db, `added` are
// tuples now in db (an updated tuple appears in both lists). The receiver is
// left untouched — adjacency slices of unaffected nodes are shared between
// the two graphs, so concurrent readers of the old graph keep a consistent
// view while the new one is assembled. The interned tuple table is extended
// copy-on-write with the added tuples in list order, keeping the dense ID
// space aligned with an index maintained from the same mutation batches; a
// removed tuple keeps its dense ID but stops being present.
//
// Edges are re-resolved in both directions against the new database state:
// an added tuple contributes its own outgoing foreign-key edges and the
// incoming edges of every tuple referencing its key — including references
// that dangled before the insert — while a removed tuple takes all of its
// incident edges with it. Touched adjacency lists are re-sorted with the build's
// string-space comparator, so every rendered view of the result is
// byte-identical to a fresh build of db (the internal ID assignments of the
// two lineages legitimately differ).
func (g *Graph) ApplyDelta(db *relation.Database, removed, added []*relation.Tuple) *Graph {
	ng := &Graph{
		tuples:    g.tuples.Extend(),
		fks:       g.fks.Extend(),
		nodeCount: g.nodeCount,
	}

	removedSet := make(map[uint32]bool, len(removed))
	for _, tup := range removed {
		if dense, ok := ng.tuples.Lookup(tup.ID()); ok {
			removedSet[dense] = true
		}
	}
	// Intern every added tuple before resolving edges: two added tuples may
	// reference each other, and both endpoints need their dense IDs.
	for _, tup := range added {
		ng.tuples.Intern(tup.ID())
	}

	n := ng.tuples.Len()
	ng.adj = make([][]DenseEdge, n)
	copy(ng.adj, g.adj)
	ng.present = make([]bool, n)
	copy(ng.present, g.present)

	// Removals first: drop each removed node wholesale and queue the reverse
	// entries held by its surviving neighbors for copy-on-write filtering.
	drops := make(map[uint32]map[DenseEdge]bool)
	for _, tup := range removed {
		dense, ok := ng.tuples.Lookup(tup.ID())
		if !ok || !ng.present[dense] {
			continue
		}
		for _, e := range ng.adj[dense] {
			if removedSet[e.To] {
				continue // the neighbor's list disappears as a whole
			}
			rm := drops[e.To]
			if rm == nil {
				rm = make(map[DenseEdge]bool)
				drops[e.To] = rm
			}
			rm[DenseEdge{To: dense, FK: e.FK}] = true
		}
		ng.adj[dense] = nil
		ng.present[dense] = false
		ng.nodeCount--
	}

	// Additions: resolve the edges of every added tuple in both directions
	// against the new database state. An edge discovered from both endpoints
	// (two added tuples referencing each other) is deduplicated.
	adds := make(map[uint32][]DenseEdge)
	seen := make(map[rawEdge]bool)
	// seen is keyed by the directed (referencing, referenced, fk) triple —
	// every call sites passes that orientation, so an edge discovered from
	// both endpoints collapses while a genuine mutual-reference pair does
	// not.
	addEdge := func(e rawEdge) {
		if seen[e] {
			return
		}
		seen[e] = true
		adds[e.from] = append(adds[e.from], DenseEdge{To: e.to, FK: e.fk})
		adds[e.to] = append(adds[e.to], DenseEdge{To: e.from, FK: e.fk})
	}
	for _, tup := range added {
		id := tup.ID()
		dense, _ := ng.tuples.Lookup(id)
		if !ng.present[dense] {
			ng.present[dense] = true // isolated tuples are still nodes
			ng.nodeCount++
		}
		t, ok := db.Table(id.Relation)
		if !ok {
			continue
		}
		// Outgoing: the added tuple's own resolved foreign keys.
		for _, fk := range t.Schema().ForeignKeys {
			ref, ok := db.ReferencedTuple(tup, fk)
			if !ok {
				continue
			}
			to, ok := ng.tuples.Lookup(ref.ID())
			if !ok {
				continue // referenced tuple unknown to the graph lineage
			}
			addEdge(rawEdge{from: dense, to: to, fk: ng.fks.Intern(fk.Label())})
		}
		// Incoming: tuples whose foreign key targets the added tuple's key —
		// the per-table FK indexes record dangling references too, so inserts
		// re-resolve them.
		for _, ot := range db.Tables() {
			for _, fk := range ot.Schema().ForeignKeys {
				if fk.RefRelation != id.Relation {
					continue
				}
				for _, rtup := range ot.ReferencingTuples(fk, id.Key) {
					from, ok := ng.tuples.Lookup(rtup.ID())
					if !ok {
						continue
					}
					addEdge(rawEdge{from: from, to: dense, fk: ng.fks.Intern(fk.Label())})
				}
			}
		}
	}

	// Rewrite every touched adjacency list copy-on-write: filter the queued
	// drops, append the new entries, and restore the build's sort order.
	touched := make(map[uint32]bool, len(drops)+len(adds))
	for id := range drops {
		touched[id] = true
	}
	for id := range adds {
		touched[id] = true
	}
	for id := range touched {
		if !ng.present[id] {
			continue // dropped node: nothing to rewrite
		}
		old := ng.adj[id]
		next := make([]DenseEdge, 0, len(old)+len(adds[id]))
		rm := drops[id]
		for _, e := range old {
			if !rm[e] {
				next = append(next, e)
			}
		}
		next = append(next, adds[id]...)
		ng.sortAdjacency(next)
		if len(next) == 0 {
			next = nil // match the build: isolated nodes carry a nil list
		}
		ng.adj[id] = next
	}

	// Every undirected edge holds exactly two adjacency entries (self-loops
	// included), so the count is recovered from the list lengths.
	entries := 0
	for _, edges := range ng.adj {
		entries += len(edges)
	}
	ng.edgeCount = entries / 2
	return ng
}
