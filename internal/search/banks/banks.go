// Package banks implements a BANKS-style baseline (Bhalotia et al., VLDB
// 2002): backward expanding search over the tuple graph. Every keyword
// spawns a multi-source breadth-first expansion from its matching tuples;
// a tuple reached by the expansions of all keywords becomes the root of an
// answer tree assembled from the shortest paths back to the nearest match of
// each keyword. Trees are ranked by their total number of edges (smaller is
// better), which is the length-based ranking the paper critiques.
//
// Expansions run in the interned space: distances and back pointers are
// dense arrays indexed by uint32 tuple ID, recycled across queries via
// sync.Pool, and only the trees that survive root selection are rendered to
// the string space. Expansion seeds and neighbor iteration follow the
// string-space orders, so answers are identical to the pre-interning
// implementation.
package banks

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// Options configure the engine.
type Options struct {
	// MaxDepth bounds each keyword expansion, in joins. The default is 5.
	MaxDepth int
	// MaxResults caps the number of answer trees (0 means 10).
	MaxResults int
	// Parallelism bounds the goroutines running the per-keyword expansions
	// (0 or negative means GOMAXPROCS, 1 is fully sequential).
	Parallelism int
}

// DefaultOptions returns the options used when none are supplied.
func DefaultOptions() Options { return Options{MaxDepth: 5, MaxResults: 10} }

// Tree is one BANKS answer: a root tuple and, for every keyword, the
// shortest path from the root to the nearest tuple matching it.
type Tree struct {
	// Root is the connecting tuple from which all keyword paths start.
	Root relation.TupleID
	// Nodes are the distinct tuples of the tree, sorted.
	Nodes []relation.TupleID
	// Edges are the distinct edges of the tree.
	Edges []datagraph.Edge
	// KeywordPaths maps each keyword to the root-to-match path.
	KeywordPaths map[string]core.Connection
	// Matches maps each tuple of the tree to the keywords it matches.
	Matches map[relation.TupleID][]string
	// Weight is the number of distinct edges (the ranking score; lower is
	// better).
	Weight int
}

// AsConnection flattens a two-keyword tree into a single connection from one
// keyword match to the other through the root, when the two paths only share
// the root (which makes the tree a simple path). The second return is false
// otherwise.
func (t Tree) AsConnection() (core.Connection, bool) {
	if len(t.KeywordPaths) != 2 {
		return core.Connection{}, false
	}
	kws := make([]string, 0, 2)
	for kw := range t.KeywordPaths {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	a, b := t.KeywordPaths[kws[0]], t.KeywordPaths[kws[1]]
	shared := make(map[relation.TupleID]bool)
	for _, n := range a.Tuples {
		shared[n] = true
	}
	for _, n := range b.Tuples[1:] {
		if shared[n] {
			return core.Connection{}, false
		}
	}
	// Reverse path a (match -> root) then append path b (root -> match).
	rev := a.Reverse()
	edges := append(append([]datagraph.Edge(nil), rev.Edges...), b.Edges...)
	c, err := core.NewConnection(rev.Start(), edges)
	if err != nil {
		return core.Connection{}, false
	}
	return c, true
}

// Signature identifies the tree by its sorted node set; used to deduplicate
// answers with identical content but different roots.
func (t Tree) Signature() string {
	parts := make([]string, len(t.Nodes))
	for i, n := range t.Nodes {
		parts[i] = n.String()
	}
	return strings.Join(parts, "|")
}

// Engine runs backward expanding search over a database. It is immutable
// after construction and safe for concurrent use; every call carries its own
// options, and the ones passed at construction only supply the MaxDepth and
// MaxResults a call leaves unset.
type Engine struct {
	db    *relation.Database
	graph *datagraph.Graph
	index *index.Index
	opts  Options
}

// NewWithComponents builds an engine from pre-built components. The graph
// and index must be of the same generation, so their dense tuple-ID spaces
// agree.
func NewWithComponents(db *relation.Database, g *datagraph.Graph, idx *index.Index, opts Options) (*Engine, error) {
	if db == nil || g == nil || idx == nil {
		return nil, fmt.Errorf("banks: nil component")
	}
	applyDefaults(&opts, DefaultOptions())
	return &Engine{db: db, graph: g, index: idx, opts: opts}, nil
}

// applyDefaults fills the unset budgets of opts from def.
func applyDefaults(opts *Options, def Options) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = def.MaxDepth
	}
	if opts.MaxResults <= 0 {
		opts.MaxResults = def.MaxResults
	}
}

// unreached marks a tuple not reached by an expansion.
const unreached = int32(-1)

// expansion is the result of one keyword's multi-source BFS in the dense
// space: per dense tuple ID, the hop distance (unreached for tuples the
// expansion never saw) and the adjacency entry leading one hop back towards
// the nearest keyword match. The arrays are recycled across queries.
type expansion struct {
	dist    []int32
	back    []datagraph.DenseEdge
	queue   []uint32
	reached int
}

var expansionPool = sync.Pool{New: func() any { return &expansion{} }}

// getExpansion returns a pooled expansion reset for an ID space of size n.
func getExpansion(n int) *expansion {
	ex := expansionPool.Get().(*expansion)
	if cap(ex.dist) < n {
		ex.dist = make([]int32, n)
		ex.back = make([]datagraph.DenseEdge, n)
	}
	ex.dist = ex.dist[:n]
	ex.back = ex.back[:n]
	for i := range ex.dist {
		ex.dist[i] = unreached
	}
	ex.queue = ex.queue[:0]
	ex.reached = 0
	return ex //kwslint:ignore pooledescape paired accessor of putExpansion; every caller returns ex with putExpansion
}

func putExpansion(ex *expansion) { expansionPool.Put(ex) }

// expand runs one keyword's multi-source BFS. Seeds must arrive in the
// string-space tuple order and neighbors are visited in the sorted adjacency
// order, so the first-discovery back pointers — and therefore the answer
// trees — are independent of the dense ID assignment.
func (e *Engine) expand(ctx context.Context, matches []uint32, maxDepth int) (*expansion, error) {
	ex := getExpansion(e.graph.NumIDs())
	for _, m := range matches {
		ex.dist[m] = 0
		ex.reached++
		ex.queue = append(ex.queue, m)
	}
	for head := 0; head < len(ex.queue); head++ {
		if err := ctx.Err(); err != nil {
			putExpansion(ex)
			return nil, err
		}
		cur := ex.queue[head]
		if ex.dist[cur] >= int32(maxDepth) {
			continue
		}
		for _, edge := range e.graph.NeighborsID(cur) {
			if ex.dist[edge.To] != unreached {
				continue
			}
			ex.dist[edge.To] = ex.dist[cur] + 1
			ex.reached++
			// The back edge points from the newly reached tuple towards
			// the keyword match.
			ex.back[edge.To] = datagraph.DenseEdge{To: cur, FK: edge.FK}
			ex.queue = append(ex.queue, edge.To)
		}
	}
	return ex, nil
}

// pathToMatch follows the back pointers of an expansion from the root down
// to the keyword match it was reached from, rendering the edges to the
// string space.
func (e *Engine) pathToMatch(ex *expansion, root uint32) []datagraph.Edge {
	var edges []datagraph.Edge
	cur := root
	for ex.dist[cur] > 0 {
		be := ex.back[cur]
		edges = append(edges, e.graph.EdgeOf(cur, be))
		cur = be.To
	}
	return edges
}

// SearchContext runs the backward expanding search and returns up to
// MaxResults answer trees ordered by ascending weight, then by signature.
// Unset budgets fall back to the engine's construction-time options, and both
// the keyword expansions and the per-root tree construction abort with
// ctx.Err() as soon as the context is cancelled. The engine itself is
// immutable, so concurrent SearchContext calls with different options are
// safe.
func (e *Engine) SearchContext(ctx context.Context, keywords []string, opts Options) ([]Tree, error) {
	applyDefaults(&opts, e.opts)
	if len(keywords) == 0 {
		return nil, fmt.Errorf("banks: empty keyword query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tuples := e.graph.Tuples()
	matches := make(map[string][]uint32, len(keywords))
	tupleKeywords := make(map[uint32][]string)
	for _, kw := range keywords {
		if _, dup := matches[kw]; dup {
			continue
		}
		ids := e.index.MatchIDs(kw)
		if len(ids) == 0 {
			return nil, fmt.Errorf("banks: keyword %q matches no tuple", kw)
		}
		for _, id := range ids {
			tupleKeywords[id] = append(tupleKeywords[id], kw)
		}
		// Seed order is the string-space tuple order, for back-pointer
		// determinism independent of the ID assignment.
		sort.Slice(ids, func(a, b int) bool { return tuples.Less(ids[a], ids[b]) })
		matches[kw] = ids
	}
	for _, kws := range tupleKeywords {
		sort.Strings(kws)
	}

	// Each keyword's multi-source BFS only reads the graph and writes its
	// own expansion, so they run in parallel across a bounded worker pool.
	kwOrder := make([]string, 0, len(matches))
	seenKW := make(map[string]bool, len(matches))
	for _, kw := range keywords {
		if !seenKW[kw] {
			seenKW[kw] = true
			kwOrder = append(kwOrder, kw)
		}
	}
	expanded, err := parallel.Map(ctx, opts.Parallelism, len(kwOrder), func(ctx context.Context, i int) (*expansion, error) {
		return e.expand(ctx, matches[kwOrder[i]], opts.MaxDepth)
	})
	if err != nil {
		for _, ex := range expanded {
			if ex != nil {
				putExpansion(ex)
			}
		}
		return nil, err
	}
	defer func() {
		for _, ex := range expanded {
			putExpansion(ex)
		}
	}()
	expansions := make(map[string]*expansion, len(kwOrder))
	for i, kw := range kwOrder {
		expansions[kw] = expanded[i]
	}

	// Candidate roots: tuples reached by every keyword's expansion. Scan the
	// smallest expansion's distance column and intersect with the others —
	// array probes, no hashing.
	smallest := kwOrder[0]
	for _, kw := range kwOrder[1:] {
		if expansions[kw].reached < expansions[smallest].reached {
			smallest = kw
		}
	}
	type scored struct {
		root uint32
		// weight is the distance sum, an upper bound on the tree weight;
		// maxDist is the largest single distance, a lower bound on it.
		weight, maxDist int32
	}
	var roots []scored
	smallestDist := expansions[smallest].dist
	for root, d0 := range smallestDist {
		if d0 == unreached {
			continue
		}
		total, maxd := d0, d0
		ok := true
		for _, kw := range kwOrder {
			if kw == smallest {
				continue
			}
			d := expansions[kw].dist[root]
			if d == unreached {
				ok = false
				break
			}
			total += d
			if d > maxd {
				maxd = d
			}
		}
		if ok {
			roots = append(roots, scored{root: uint32(root), weight: total, maxDist: maxd})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].weight != roots[j].weight {
			return roots[i].weight < roots[j].weight
		}
		return tuples.Less(roots[i].root, roots[j].root)
	})

	// Build a tree per candidate root, deduplicate by content, and order by
	// the actual tree weight (shared edges between keyword paths can make a
	// tree lighter than its root's distance sum suggests). Once MaxResults
	// distinct trees exist, candidates that cannot beat the current cut are
	// skipped: a tree holds a root-to-match path per keyword, so its weight
	// is at least the candidate's largest distance and at most its distance
	// sum. Both bounds are conservative — ties still build, so the truncated
	// output is identical to the exhaustive loop's.
	var out []Tree
	var kept []int // weights of the distinct trees built so far, sorted
	seen := make(map[string]bool)
	for _, cand := range roots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(kept) >= opts.MaxResults {
			cut := kept[opts.MaxResults-1]
			if int(cand.weight) > cut*len(kwOrder) {
				// Distance sums only grow from here, so every remaining
				// candidate's lower bound (sum / #keywords) exceeds the cut.
				break
			}
			if int(cand.maxDist) > cut {
				continue
			}
		}
		tree := e.buildTree(cand.root, keywords, expansions, tupleKeywords)
		if seen[tree.Signature()] {
			continue
		}
		seen[tree.Signature()] = true
		out = append(out, tree)
		at := sort.SearchInts(kept, tree.Weight)
		kept = append(kept, 0)
		copy(kept[at+1:], kept[at:])
		kept[at] = tree.Weight
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight < out[j].Weight
		}
		return out[i].Signature() < out[j].Signature()
	})
	if len(out) > opts.MaxResults {
		out = out[:opts.MaxResults]
	}
	return out, nil
}

// Stream runs the backward expanding search and hands each answer tree to
// yield in ranked order (ascending weight, then signature). BANKS is a
// barrier algorithm — every keyword expansion must complete before the first
// tree exists — so streaming begins after the expansion phase; the stream
// stops when yield returns false or the context is cancelled, in which case
// ctx.Err() is returned.
func (e *Engine) Stream(ctx context.Context, keywords []string, opts Options, yield func(Tree) bool) error {
	trees, err := e.SearchContext(ctx, keywords, opts)
	if err != nil {
		return err
	}
	for _, t := range trees {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !yield(t) {
			return nil
		}
	}
	return nil
}

// buildTree assembles the string-space answer for one surviving root: the
// per-keyword back paths, the distinct node and edge sets, and the weight.
func (e *Engine) buildTree(root uint32, keywords []string, expansions map[string]*expansion, tupleKeywords map[uint32][]string) Tree {
	tuples := e.graph.Tuples()
	rootID := tuples.ID(root)
	t := Tree{
		Root:         rootID,
		KeywordPaths: make(map[string]core.Connection, len(keywords)),
		Matches:      make(map[relation.TupleID][]string),
	}
	nodeSet := map[relation.TupleID]bool{rootID: true}
	edgeSet := make(map[string]datagraph.Edge)
	for _, kw := range keywords {
		edges := e.pathToMatch(expansions[kw], root)
		c, err := core.NewConnection(rootID, edges)
		if err != nil {
			continue
		}
		t.KeywordPaths[kw] = c
		for _, n := range c.Tuples {
			nodeSet[n] = true
		}
		for _, ed := range edges {
			key := ed.From.String() + ">" + ed.To.String()
			rev := ed.To.String() + ">" + ed.From.String()
			if _, dup := edgeSet[rev]; dup {
				continue
			}
			edgeSet[key] = ed
		}
	}
	for n := range nodeSet {
		t.Nodes = append(t.Nodes, n)
		if dense, ok := tuples.Lookup(n); ok {
			if kws := tupleKeywords[dense]; len(kws) > 0 {
				t.Matches[n] = append([]string(nil), kws...)
			}
		}
	}
	relation.SortTupleIDs(t.Nodes)
	keys := make([]string, 0, len(edgeSet))
	for k := range edgeSet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Edges = append(t.Edges, edgeSet[k])
	}
	t.Weight = len(t.Edges)
	return t
}
