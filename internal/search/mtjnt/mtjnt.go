// Package mtjnt implements the DISCOVER-style baseline the paper analyses:
// keyword search whose answers are Minimal Total Joining Networks of Tuples
// (MTJNT, Hristidis & Papakonstantinou, VLDB 2002). A joining network is
// total when every query keyword occurs in at least one of its tuples and
// minimal when no tuple can be removed without breaking totality or
// connectivity. The engine also exposes DISCOVER's schema-level candidate
// networks. The paper's observation — that this principle drops the longer,
// close-association-preserving connections 3, 4, 6 and 7 of its running
// example — is reproduced by comparing this engine's answers with those of
// the paths engine.
package mtjnt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/schemagraph"
	"repro/internal/symtab"
)

// Options configure the engine.
type Options struct {
	// MaxEdges is the maximum number of joins in a network (Tmax).
	// The default is 5.
	MaxEdges int
}

// DefaultOptions returns the options used when none are supplied.
func DefaultOptions() Options { return Options{MaxEdges: 5} }

// Network is one MTJNT answer. Networks produced by this engine are
// path-shaped (the natural shape for the two-keyword queries the paper
// studies).
type Network struct {
	Connection core.Connection
	Matches    map[relation.TupleID][]string
}

// CandidateNetwork is a schema-level join expression of DISCOVER: the
// sequence of relations an MTJNT may instantiate, with the keyword sets the
// end relations must cover.
type CandidateNetwork struct {
	Relations []string
	Keywords  []string
}

// String renders the candidate network as R1-R2-...-Rn.
func (cn CandidateNetwork) String() string { return strings.Join(cn.Relations, "-") }

// Engine produces MTJNT answers for keyword queries. It is immutable after
// construction and safe for concurrent use; every call carries its own
// options, and the ones passed at construction only supply the MaxEdges a
// call leaves unset.
type Engine struct {
	db    *relation.Database
	graph *datagraph.Graph
	index *index.Index
	opts  Options
}

// NewWithComponents builds an engine from pre-built components.
func NewWithComponents(db *relation.Database, g *datagraph.Graph, idx *index.Index, opts Options) (*Engine, error) {
	if db == nil || g == nil || idx == nil {
		return nil, fmt.Errorf("mtjnt: nil component")
	}
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = DefaultOptions().MaxEdges
	}
	return &Engine{db: db, graph: g, index: idx, opts: opts}, nil
}

// SearchContext returns the MTJNTs answering the query, ordered by ascending
// size then canonical key. A zero MaxEdges falls back to the engine's
// construction-time budget, and the enumeration aborts with ctx.Err() as soon
// as the context is cancelled. The engine itself is immutable, so concurrent
// SearchContext calls with different options are safe.
func (e *Engine) SearchContext(ctx context.Context, keywords []string, opts Options) ([]Network, error) {
	var out []Network
	if err := e.Stream(ctx, keywords, opts, func(n Network) bool {
		out = append(out, n)
		return true
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Connection.RDBLength() != out[j].Connection.RDBLength() {
			return out[i].Connection.RDBLength() < out[j].Connection.RDBLength()
		}
		return out[i].Connection.Key() < out[j].Connection.Key()
	})
	return out, nil
}

// errStopStream unwinds an enumeration stopped by a yield returning false.
var errStopStream = errors.New("mtjnt: stream stopped")

// Stream enumerates the MTJNTs answering the query and hands each one to
// yield as soon as it passes the minimal-total check, in discovery order (no
// global sort). The stream stops when yield returns false or when the
// context is cancelled — in which case ctx.Err() is returned.
func (e *Engine) Stream(ctx context.Context, keywords []string, opts Options, yield func(Network) bool) error {
	if len(keywords) == 0 {
		return fmt.Errorf("mtjnt: empty keyword query")
	}
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = e.opts.MaxEdges
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	q, err := e.resolve(keywords)
	if err != nil {
		return err
	}

	seen := make(map[string]bool)
	var keyBuf []byte
	// Candidates arrive as dense paths; they are deduplicated and checked for
	// minimal totality in the interned space and rendered to the string space
	// only when they become answers.
	add := func(p core.DensePath) error {
		keyBuf = p.AppendCanonicalKey(keyBuf[:0])
		if seen[string(keyBuf)] {
			return nil
		}
		seen[string(keyBuf)] = true
		if !e.isMinimalTotalIDs(p.Nodes, q) {
			return nil
		}
		c := p.Connection(e.graph)
		matches := make(map[relation.TupleID][]string)
		for i, t := range c.Tuples {
			if kws := q.tupleKeywords[p.Nodes[i]]; len(kws) > 0 {
				matches[t] = append([]string(nil), kws...)
			}
		}
		if !yield(Network{Connection: c, Matches: matches}) {
			return errStopStream
		}
		return nil
	}

	err = e.walkCandidates(ctx, keywords, q, opts, add)
	if err == errStopStream {
		return nil
	}
	return err
}

// query is the resolved, interned form of a keyword query: per distinct
// keyword the dense match IDs in string-space order and a bitset over the
// generation's ID space, plus the reverse tuple-to-keywords map.
type query struct {
	// matchLess maps each distinct keyword to its dense matches, sorted by
	// the string-space tuple order.
	matchLess map[string][]uint32
	// bits maps each distinct keyword to the set of its dense matches.
	bits map[string]*symtab.Bitset
	// tupleKeywords maps each matching dense ID to its keywords, sorted —
	// with one entry per query occurrence, so duplicate query keywords count
	// double here exactly as they do in len(keywords).
	tupleKeywords map[uint32][]string
}

// resolve interns the query: one index probe per distinct keyword, an error
// if any keyword matches nothing.
func (e *Engine) resolve(keywords []string) (*query, error) {
	tuples := e.graph.Tuples()
	q := &query{
		matchLess:     make(map[string][]uint32, len(keywords)),
		bits:          make(map[string]*symtab.Bitset, len(keywords)),
		tupleKeywords: make(map[uint32][]string),
	}
	for _, kw := range keywords {
		if ids, done := q.matchLess[kw]; done {
			// Duplicate query keyword: repeat the reverse-map entries so the
			// per-tuple keyword counts line up with len(keywords).
			for _, id := range ids {
				q.tupleKeywords[id] = append(q.tupleKeywords[id], kw)
			}
			continue
		}
		ids := e.index.MatchIDs(kw)
		if len(ids) == 0 {
			return nil, fmt.Errorf("mtjnt: keyword %q matches no tuple", kw)
		}
		bits := &symtab.Bitset{}
		bits.Grow(e.graph.NumIDs())
		for _, id := range ids {
			bits.Add(id)
			q.tupleKeywords[id] = append(q.tupleKeywords[id], kw)
		}
		sort.Slice(ids, func(a, b int) bool { return tuples.Less(ids[a], ids[b]) })
		q.matchLess[kw] = ids
		q.bits[kw] = bits
	}
	for _, kws := range q.tupleKeywords {
		sort.Strings(kws)
	}
	return q, nil
}

// walkCandidates feeds every candidate dense path of the query to add.
func (e *Engine) walkCandidates(ctx context.Context, keywords []string, q *query, opts Options, add func(core.DensePath) error) error {
	tuples := e.graph.Tuples()
	// Single tuples covering the whole query, in string-space order.
	var singles []uint32
	for id, kws := range q.tupleKeywords {
		if len(kws) == len(keywords) {
			singles = append(singles, id)
		}
	}
	sort.Slice(singles, func(a, b int) bool { return tuples.Less(singles[a], singles[b]) })
	var one [1]uint32
	for _, id := range singles {
		one[0] = id
		if err := add(core.DensePath{Nodes: one[:]}); err != nil {
			return err
		}
	}
	// Paths between tuples matching different keywords (or distinct tuples of
	// a keyword the query names twice).
	ordered := append([]string(nil), keywords...)
	sort.Strings(ordered)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			for _, from := range q.matchLess[ordered[i]] {
				for _, to := range q.matchLess[ordered[j]] {
					if err := ctx.Err(); err != nil {
						return err
					}
					if from == to {
						continue
					}
					var addErr error
					walkErr := core.WalkConnectionsIDs(ctx, e.graph, from, to, opts.MaxEdges, func(p core.DensePath) bool {
						addErr = add(p)
						return addErr == nil
					})
					if addErr != nil {
						return addErr
					}
					if walkErr != nil {
						return walkErr
					}
				}
			}
		}
	}
	return nil
}

// isMinimalTotalIDs reports whether the candidate is a minimal total joining
// network of tuples: it is total, and removing any single tuple leaves a set
// that is either no longer total or no longer joinable. Connectivity is
// evaluated on the subgraph of the data graph induced by the remaining
// tuples, not only on the candidate's own edges: removing the project p3 from
// the paper's connection 7 (d2 - p3 - w_f2 - e2) leaves {d2, w_f2, e2}, which
// is still connected through the works-for join d2-e2 and still total, so
// connection 7 is not minimal and is lost under the MTJNT principle. Totality
// is a bitset probe per keyword and connectivity a BFS over the dense
// adjacency restricted to the candidate's handful of nodes.
func (e *Engine) isMinimalTotalIDs(nodes []uint32, q *query) bool {
	if len(nodes) == 0 {
		return false
	}
	if !e.isTotalIDs(nodes, q) {
		return false
	}
	if len(nodes) == 1 {
		return true
	}
	rest := make([]uint32, 0, len(nodes)-1)
	for removed := range nodes {
		rest = rest[:0]
		for i, n := range nodes {
			if i != removed {
				rest = append(rest, n)
			}
		}
		if e.isTotalIDs(rest, q) && e.inducedConnectedIDs(rest) {
			return false
		}
	}
	return true
}

// isTotalIDs reports whether the dense node set covers every query keyword.
func (e *Engine) isTotalIDs(nodes []uint32, q *query) bool {
	for _, bits := range q.bits {
		covered := false
		for _, n := range nodes {
			if bits.Has(n) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// inducedConnectedIDs reports whether the dense node set is connected in the
// subgraph of the data graph induced by it. Candidate sets are at most
// MaxEdges+1 nodes, so membership is a linear scan.
func (e *Engine) inducedConnectedIDs(nodes []uint32) bool {
	n := len(nodes)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	reached := 1
	queue := make([]uint32, 1, n)
	queue[0] = nodes[0]
	for head := 0; head < len(queue); head++ {
		for _, e2 := range e.graph.NeighborsID(queue[head]) {
			for i, m := range nodes {
				if m == e2.To && !seen[i] {
					seen[i] = true
					reached++
					queue = append(queue, m)
					break
				}
			}
		}
	}
	return reached == n
}

// CandidateNetworks generates DISCOVER's schema-level candidate networks for
// the query: simple relation paths of at most maxEdges joins whose two end
// relations contain matches of different keywords (or a single relation
// whose tuples can cover the whole query). Paths whose interior would make
// an end relation redundant are not pruned here — pruning happens at the
// instance level through isMinimalTotalIDs.
func (e *Engine) CandidateNetworks(keywords []string, maxEdges int) ([]CandidateNetwork, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("mtjnt: empty keyword query")
	}
	if maxEdges <= 0 {
		maxEdges = e.opts.MaxEdges
	}
	sg := schemagraph.FromDatabase(e.db)
	keywordRelations := make(map[string]map[string]bool, len(keywords))
	for _, kw := range keywords {
		rels := make(map[string]bool)
		for id := range e.index.KeywordTuples(kw) {
			rels[id.Relation] = true
		}
		keywordRelations[kw] = rels
	}

	var out []CandidateNetwork
	seen := make(map[string]bool)
	add := func(cn CandidateNetwork) {
		key := cn.String()
		rev := CandidateNetwork{Relations: reverseStrings(cn.Relations)}.String()
		if seen[key] || seen[rev] {
			return
		}
		seen[key] = true
		out = append(out, cn)
	}

	sorted := append([]string(nil), keywords...)
	sort.Strings(sorted)
	// Single-relation networks.
	for _, rel := range sg.NodeNames() {
		all := true
		for _, kw := range sorted {
			if !keywordRelations[kw][rel] {
				all = false
				break
			}
		}
		if all {
			add(CandidateNetwork{Relations: []string{rel}, Keywords: sorted})
		}
	}
	// Paths between relations holding different keywords.
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			for from := range keywordRelations[sorted[i]] {
				for to := range keywordRelations[sorted[j]] {
					if from == to {
						continue
					}
					for _, p := range sg.EnumeratePaths(from, to, maxEdges) {
						//kwslint:ignore rangedeterminism add dedups into out, which the sort.Slice below orders totally by (len(Relations), String())
						add(CandidateNetwork{Relations: p.Nodes, Keywords: []string{sorted[i], sorted[j]}})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Relations) != len(out[j].Relations) {
			return len(out[i].Relations) < len(out[j].Relations)
		}
		return out[i].String() < out[j].String()
	})
	return out, nil
}

func reverseStrings(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[len(in)-1-i] = s
	}
	return out
}
