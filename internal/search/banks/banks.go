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
// sync.Pool. Root selection stays dense as well: every candidate root's tree
// is deduplicated on its sorted dense node set and weighed by counting its
// distinct dense tuple pairs. Only then is anything rendered: the signature
// of each distinct tree that can still make the cut, once, for the final
// ordering, and the string-space Tree of each of the at most MaxResults
// survivors. Expansion seeds and neighbor iteration follow the string-space
// orders, so answers are identical to the pre-interning implementation.
package banks

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
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
func (t Tree) Signature() string { return signature(t.Nodes) }

// signature renders a sorted node set as its tuple IDs, each as
// relation.TupleID.String renders it, joined by "|". It is the one renderer
// of tree signatures, shared by Tree.Signature and root selection.
func signature(nodes []relation.TupleID) string {
	size := len(nodes)
	for _, n := range nodes {
		size += len(n.Relation) + len(n.Key) + 2
	}
	var b strings.Builder
	b.Grow(size)
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(n.Relation)
		b.WriteByte('[')
		b.WriteString(n.Key)
		b.WriteByte(']')
	}
	return b.String()
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
	q, err := e.expandAll(ctx, keywords, opts)
	if err != nil {
		return nil, err
	}
	defer q.release()
	return e.selectTrees(ctx, q, opts.MaxResults)
}

// query is one search's state after the keyword expansions: everything root
// selection and tree construction read. The expansions are pooled; release
// returns them.
type query struct {
	// kwOrder lists the distinct keywords in query order, and expanded holds
	// their expansions in the same order.
	kwOrder       []string
	expanded      []*expansion
	tupleKeywords map[uint32][]string
	// roots are the candidate roots, by ascending distance sum and then
	// string-space tuple order.
	roots []candidateRoot
}

// candidateRoot is a tuple reached by every keyword's expansion. weight is
// its distance sum, an upper bound on the weight of the tree rooted there;
// maxDist is the largest single distance, a lower bound on it.
type candidateRoot struct {
	root            uint32
	weight, maxDist int32
}

func (q *query) release() {
	for _, ex := range q.expanded {
		putExpansion(ex)
	}
}

// expandAll matches the keywords, runs one expansion per distinct keyword and
// lists the candidate roots.
func (e *Engine) expandAll(ctx context.Context, keywords []string, opts Options) (*query, error) {
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
	q := &query{kwOrder: kwOrder, expanded: expanded, tupleKeywords: tupleKeywords}

	// Candidate roots: tuples reached by every keyword's expansion. Scan the
	// smallest expansion's distance column and intersect with the others —
	// array probes, no hashing.
	smallest := 0
	for i, ex := range expanded {
		if ex.reached < expanded[smallest].reached {
			smallest = i
		}
	}
	for root, d0 := range expanded[smallest].dist {
		if d0 == unreached {
			continue
		}
		total, maxd := d0, d0
		ok := true
		for i, ex := range expanded {
			if i == smallest {
				continue
			}
			d := ex.dist[root]
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
			q.roots = append(q.roots, candidateRoot{root: uint32(root), weight: total, maxDist: maxd})
		}
	}
	sort.Slice(q.roots, func(i, j int) bool {
		if q.roots[i].weight != q.roots[j].weight {
			return q.roots[i].weight < q.roots[j].weight
		}
		return tuples.Less(q.roots[i].root, q.roots[j].root)
	})
	return q, nil
}

// distinctTree is one deduplicated answer tree while it is still dense: the
// first candidate root that produced it, its weight, its node set (a span of
// the per-call node arena) and, once rendered, its signature.
type distinctTree struct {
	root       uint32
	weight     int
	start, end int
	signature  string
}

// selectTrees picks the answer trees from the candidate roots. Every root's
// tree is deduplicated and weighed in the dense space; signatures are
// rendered once per distinct tree that can still make the cut, and the
// string-space Tree is built only for the survivors.
//
// Trees are deduplicated by content, keeping the first root (in candidate
// order) that produced each node set, and ordered by the actual tree weight
// (shared edges between keyword paths can make a tree lighter than its
// root's distance sum suggests). Once MaxResults distinct trees exist,
// candidates that cannot beat the current cut are skipped: a tree holds a
// root-to-match path per keyword, so its weight is at least the candidate's
// largest distance and at most its distance sum. Both bounds are
// conservative — ties are still weighed, so the truncated output is
// identical to the exhaustive loop's.
func (e *Engine) selectTrees(ctx context.Context, q *query, maxResults int) ([]Tree, error) {
	var (
		found []distinctTree
		arena []uint32 // node sets of found, back to back
		kept  []int    // weights of found, sorted
		nodes []uint32 // scratch: the current candidate's node set
		pairs []uint64 // scratch: the current candidate's edges
		key   []byte   // scratch: nodes encoded as a seen key
	)
	seen := make(map[string]struct{})
	for _, cand := range q.roots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(kept) >= maxResults {
			cut := kept[maxResults-1]
			if int(cand.weight) > cut*len(q.expanded) {
				// Distance sums only grow from here, so every remaining
				// candidate's lower bound (sum / #keywords) exceeds the cut.
				break
			}
			if int(cand.maxDist) > cut {
				continue
			}
		}
		nodes, pairs = denseTree(cand.root, q.expanded, nodes[:0], pairs[:0])
		weight := len(pairs)
		key = key[:0]
		for _, n := range nodes {
			key = binary.LittleEndian.AppendUint32(key, n)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		found = append(found, distinctTree{root: cand.root, weight: weight, start: len(arena), end: len(arena) + len(nodes)})
		arena = append(arena, nodes...)
		at := sort.SearchInts(kept, weight)
		kept = append(kept, 0)
		copy(kept[at+1:], kept[at:])
		kept[at] = weight
	}
	if len(found) == 0 {
		return nil, nil
	}

	// At least maxResults trees weigh no more than the cut, so a heavier one
	// can never be returned and needs no signature.
	if len(kept) > maxResults {
		cut := kept[maxResults-1]
		live := found[:0]
		for _, t := range found {
			if t.weight <= cut {
				live = append(live, t)
			}
		}
		found = live
	}
	tuples := e.graph.Tuples()
	var ids []relation.TupleID
	for i := range found {
		t := &found[i]
		ids = ids[:0]
		for _, n := range arena[t.start:t.end] {
			ids = append(ids, tuples.ID(n))
		}
		slices.SortFunc(ids, compareTupleIDs)
		t.signature = signature(ids)
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].weight != found[j].weight {
			return found[i].weight < found[j].weight
		}
		return found[i].signature < found[j].signature
	})
	if len(found) > maxResults {
		found = found[:maxResults]
	}
	out := make([]Tree, len(found))
	for i, t := range found {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = e.buildTree(t.root, q)
	}
	return out, nil
}

// denseTree walks the back pointers of every expansion from root and
// returns, appended to nodes and pairs, the tree's sorted distinct node set
// and its sorted distinct edges as (min, max) tuple pairs. The number of
// pairs is the tree's weight, counted as buildTree counts edges: a pair
// walked in both directions, or under two foreign keys, is one edge.
func denseTree(root uint32, expanded []*expansion, nodes []uint32, pairs []uint64) ([]uint32, []uint64) {
	nodes = append(nodes, root)
	for _, ex := range expanded {
		for cur := root; ex.dist[cur] > 0; {
			next := ex.back[cur].To
			lo, hi := min(cur, next), max(cur, next)
			pairs = append(pairs, uint64(lo)<<32|uint64(hi))
			nodes = append(nodes, next)
			cur = next
		}
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	slices.Sort(pairs)
	return nodes, slices.Compact(pairs)
}

// compareTupleIDs orders tuple IDs as relation.TupleID.Less does.
func compareTupleIDs(a, b relation.TupleID) int {
	if c := strings.Compare(a.Relation, b.Relation); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
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
// per-keyword back paths, the distinct node and edge sets, and the weight. A
// repeated keyword shares its expansion, and so its path, with its first
// occurrence, so each distinct keyword is walked once.
func (e *Engine) buildTree(root uint32, q *query) Tree {
	tuples := e.graph.Tuples()
	rootID := tuples.ID(root)
	t := Tree{
		Root:         rootID,
		KeywordPaths: make(map[string]core.Connection, len(q.kwOrder)),
		Matches:      make(map[relation.TupleID][]string),
	}
	nodeSet := map[relation.TupleID]bool{rootID: true}
	edgeSet := make(map[string]datagraph.Edge)
	for i, kw := range q.kwOrder {
		edges := e.pathToMatch(q.expanded[i], root)
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
			if kws := q.tupleKeywords[dense]; len(kws) > 0 {
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
