package core

import (
	"context"
	"encoding/binary"
	"sync"

	"repro/internal/datagraph"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// DensePath is a simple path of the data graph in the interned space:
// Nodes has one more element than Edges and Edges[i] connects Nodes[i] to
// Nodes[i+1]. It is the traversal-time form of Connection; the search
// engines walk, deduplicate and rank dense paths and convert to the string
// space only for the answers they actually emit.
type DensePath struct {
	Nodes []uint32
	Edges []datagraph.DenseEdge
}

// Connection converts the path to the string space, copying its slices (the
// path handed to a WalkConnectionsIDs yield aliases walk scratch and is only
// valid during the call — Connection is how a yield retains it). The walk
// guarantees a simple path, so no validation is repeated here.
func (p DensePath) Connection(g *datagraph.Graph) Connection {
	tuples := g.Tuples()
	c := Connection{
		Tuples: make([]relation.TupleID, len(p.Nodes)),
		Edges:  make([]datagraph.Edge, len(p.Edges)),
	}
	for i, n := range p.Nodes {
		c.Tuples[i] = tuples.ID(n)
	}
	for i, e := range p.Edges {
		c.Edges[i] = datagraph.Edge{From: c.Tuples[i], To: c.Tuples[i+1], ForeignKey: g.FKLabel(e.FK)}
	}
	return c
}

// Clone returns a deep copy of the path, detached from any walk scratch —
// the cheap retention form for pipelines that must hold paths across yield
// boundaries without rendering them to the string space yet.
func (p DensePath) Clone() DensePath {
	return DensePath{
		Nodes: append([]uint32(nil), p.Nodes...),
		Edges: append([]datagraph.DenseEdge(nil), p.Edges...),
	}
}

// walkScratch is the pooled per-walk state: the visited set sized to the
// generation's ID space plus the node and edge stacks. Recycled via
// sync.Pool so steady-state enumeration allocates nothing per walk.
type walkScratch struct {
	visited symtab.Bitset
	nodes   []uint32
	edges   []datagraph.DenseEdge
}

var walkPool = sync.Pool{New: func() any { return &walkScratch{} }}

// WalkConnectionsIDs is the cancellable core behind connection enumeration
// and instance-level corroboration, run in the interned space: it streams
// every simple path between two dense node IDs with at most maxEdges joins,
// invoking yield for each path as it is discovered (depth-first order, which
// follows the string-space adjacency sort and is therefore independent of
// the ID assignment). The DensePath passed to yield aliases internal
// scratch: it must be copied (e.g. via DensePath.Connection) to outlive the
// call. The walk stops early when yield returns false or the context is
// cancelled; in the latter case ctx.Err() is returned.
func WalkConnectionsIDs(ctx context.Context, g *datagraph.Graph, from, to uint32, maxEdges int, yield func(DensePath) bool) error {
	if g == nil || !g.HasID(from) || !g.HasID(to) || maxEdges <= 0 || from == to {
		return nil
	}
	sc := walkPool.Get().(*walkScratch)
	defer walkPool.Put(sc)
	sc.visited.Grow(g.NumIDs())
	sc.nodes = append(sc.nodes[:0], from)
	sc.edges = sc.edges[:0]
	sc.visited.Add(from)
	defer sc.visited.Del(from)

	var walk func(cur uint32) error
	walk = func(cur uint32) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cur == to {
			if !yield(DensePath{Nodes: sc.nodes, Edges: sc.edges}) {
				return errStopWalk
			}
			return nil
		}
		if len(sc.edges) >= maxEdges {
			return nil
		}
		for _, e := range g.NeighborsID(cur) {
			if !sc.visited.Add(e.To) {
				continue
			}
			sc.edges = append(sc.edges, e)
			sc.nodes = append(sc.nodes, e.To)
			err := walk(e.To)
			sc.nodes = sc.nodes[:len(sc.nodes)-1]
			sc.edges = sc.edges[:len(sc.edges)-1]
			sc.visited.Del(e.To)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(from); err != nil && err != errStopWalk {
		return err
	}
	return nil
}

// AppendCanonicalKey appends a canonical byte encoding of the path's node
// sequence to dst and returns it: the lexicographically smaller of the
// forward and backward big-endian ID sequences, so the same path read in
// either direction yields the same bytes. Within one graph generation this
// induces exactly the same path identity as Connection.Key (dense IDs are
// bijective with tuple identifiers), without rendering a single string.
func (p DensePath) AppendCanonicalKey(dst []byte) []byte {
	n := len(p.Nodes)
	// The reverse sequence holds the same IDs, so the first position where
	// Nodes[i] != Nodes[n-1-i] decides which direction is smaller; a
	// palindrome encodes identically either way.
	fwd := true
	for i := 0; i < n; i++ {
		if a, b := p.Nodes[i], p.Nodes[n-1-i]; a != b {
			fwd = a < b
			break
		}
	}
	var buf [4]byte
	if fwd {
		for _, id := range p.Nodes {
			binary.BigEndian.PutUint32(buf[:], id)
			dst = append(dst, buf[:]...)
		}
		return dst
	}
	for i := n - 1; i >= 0; i-- {
		binary.BigEndian.PutUint32(buf[:], p.Nodes[i])
		dst = append(dst, buf[:]...)
	}
	return dst
}
