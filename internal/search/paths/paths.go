// Package paths implements the connection-enumeration keyword-search engine
// the paper argues for: instead of returning only minimal joining networks,
// it enumerates every simple connection (join path) between tuples matching
// different keywords up to a join budget, so that longer, information-richer
// connections such as the paper's connections 3, 4, 6 and 7 are preserved
// and can be ranked by their conceptual length and closeness.
//
// The enumeration runs in the interned space of internal/symtab: keyword
// match sets are dense uint32 lists, walks and deduplication operate on
// dense paths with pooled scratch, and only the connections that survive
// dedup and coverage are rendered to the string space for annotation. The
// emitted answer sequence is identical to the pre-interning implementation:
// every ordering below is defined by string-space comparators.
package paths

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Options configure the engine.
type Options struct {
	// MaxEdges is the maximum number of joins in a connection (the Tmax
	// budget). The default is 5.
	MaxEdges int
	// RequireAllKeywords demands that every query keyword is matched by at
	// least one tuple of the connection (AND semantics). When false, a
	// connection covering at least two distinct keywords (or one, for
	// single-keyword queries) is returned (OR semantics).
	RequireAllKeywords bool
	// MaxResults caps the number of answers (0 = unlimited). Answers are
	// cut after deterministic ordering by ascending RDB length.
	MaxResults int
	// InstanceCorroboration enables the instance-level corroboration
	// analysis of every answer (slightly more expensive).
	InstanceCorroboration bool
	// Parallelism bounds the worker goroutines of the query's two pools:
	// the per-source enumeration fan-out and the annotation pipeline that
	// runs analysis, instance corroboration and content scoring behind the
	// ordered dedup stage (0 or negative means GOMAXPROCS, 1 is fully
	// sequential). Results are delivered in the same deterministic order
	// regardless of the worker count.
	Parallelism int
}

// DefaultOptions returns the options used when none are supplied.
func DefaultOptions() Options {
	return Options{MaxEdges: 5, RequireAllKeywords: true, InstanceCorroboration: true}
}

// Answer is one result of the engine: a connection, its association
// analysis, the keywords matched by each of its tuples and its total
// content score.
type Answer struct {
	Connection   core.Connection
	Analysis     core.Analysis
	Matches      map[relation.TupleID][]string
	ContentScore float64
}

// Engine enumerates connections between keyword tuples. It is immutable
// after construction and safe for concurrent use; every call carries its own
// options, and the ones passed at construction only supply the MaxEdges a
// call leaves unset.
type Engine struct {
	db       *relation.Database
	graph    *datagraph.Graph
	index    *index.Index
	analyzer *core.Analyzer
	opts     Options
}

// New builds an engine over the database, constructing the data graph, the
// keyword index and the association analyzer.
func New(db *relation.Database, opts Options) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("paths: nil database")
	}
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = DefaultOptions().MaxEdges
	}
	analyzer, err := core.Derive(db)
	if err != nil {
		return nil, err
	}
	tuples := symtab.ForDatabase(db)
	idx := index.BuildParallelWith(db, tuples, 0)
	return &Engine{
		db:       db,
		graph:    datagraph.BuildParallelWith(db, tuples, 0),
		index:    idx,
		analyzer: analyzer,
		opts:     opts,
	}, nil
}

// NewWithComponents builds an engine from pre-built components, so that the
// graph, index and analyzer can be shared with other engines. The graph and
// index must be of the same generation (built or maintained from the same
// database states), so their dense tuple-ID spaces agree.
func NewWithComponents(db *relation.Database, g *datagraph.Graph, idx *index.Index, analyzer *core.Analyzer, opts Options) (*Engine, error) {
	if db == nil || g == nil || idx == nil || analyzer == nil {
		return nil, fmt.Errorf("paths: nil component")
	}
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = DefaultOptions().MaxEdges
	}
	return &Engine{db: db, graph: g, index: idx, analyzer: analyzer, opts: opts}, nil
}

// SearchContext enumerates the connections answering the keyword query.
// Answers are deduplicated (a path and its reverse count once) and ordered by
// ascending RDB length, then by canonical connection key; ranking strategies
// are applied by the caller (see internal/ranking). A zero MaxEdges falls
// back to the engine's construction-time budget, and the enumeration aborts
// with ctx.Err() as soon as the context is cancelled. The engine itself is
// immutable, so concurrent SearchContext calls with different options are
// safe.
func (e *Engine) SearchContext(ctx context.Context, keywords []string, opts Options) ([]Answer, error) {
	var answers []Answer
	// The cap is applied after the deterministic sort, so the stream below
	// must not cut the enumeration early.
	maxResults := opts.MaxResults
	opts.MaxResults = 0
	if err := e.Stream(ctx, keywords, opts, func(a Answer) bool {
		answers = append(answers, a)
		return true
	}); err != nil {
		return nil, err
	}
	opts.MaxResults = maxResults
	return finish(answers, opts), nil
}

// errStopStream unwinds an enumeration stopped by a yield returning false.
var errStopStream = errors.New("paths: stream stopped")

// query is the resolved, interned form of one keyword query: per-keyword
// match sets as dense ID lists and bitsets, the per-tuple keyword lists for
// answer annotation, and a pool of content scorers shared by the annotation
// workers.
type query struct {
	keywords []string
	// matchLess maps each distinct keyword to its matching dense IDs sorted
	// in the string-space tuple order — the enumeration order of sources.
	matchLess map[string][]uint32
	// bits[i] is the match set of keywords[i] (duplicates share a bitset).
	bits []*symtab.Bitset
	// tupleKeywords lists, per matching dense tuple ID, the query keywords
	// it matches in query order.
	tupleKeywords map[uint32][]string
	scorers       sync.Pool
}

// resolve interns the keyword query against the engine's index and graph.
func (e *Engine) resolve(keywords []string) *query {
	q := &query{
		keywords:      keywords,
		matchLess:     make(map[string][]uint32, len(keywords)),
		bits:          make([]*symtab.Bitset, len(keywords)),
		tupleKeywords: make(map[uint32][]string),
	}
	q.scorers.New = func() any { return e.index.NewScorer(keywords) }
	tuples := e.graph.Tuples()
	byKw := make(map[string]*symtab.Bitset, len(keywords))
	for i, kw := range keywords {
		if bits, ok := byKw[kw]; ok {
			q.bits[i] = bits // duplicate keyword: same match set
			continue
		}
		ids := e.index.MatchIDs(kw)
		for _, id := range ids {
			q.tupleKeywords[id] = appendUnique(q.tupleKeywords[id], kw)
		}
		bits := &symtab.Bitset{}
		bits.Grow(e.graph.NumIDs())
		for _, id := range ids {
			bits.Add(id)
		}
		sort.Slice(ids, func(a, b int) bool { return tuples.Less(ids[a], ids[b]) })
		q.matchLess[kw] = ids
		byKw[kw] = bits
		q.bits[i] = bits
	}
	return q
}

// Stream enumerates the answers of the keyword query and hands each one to
// yield as soon as it is built, in discovery order (no global sort): the
// first answers arrive while the enumeration is still running. The stream
// stops when yield returns false, when MaxResults answers have been
// delivered, or when the context is cancelled — in which case ctx.Err() is
// returned. Answers are deduplicated exactly as in SearchContext.
//
// With Parallelism other than 1, answer annotation — the association
// analysis, the instance-level corroboration and the content score — runs on
// a bounded worker pool behind the ordered dedup stage, so the expensive
// per-answer work of different answers overlaps while yield still observes
// exactly the sequential emission order.
func (e *Engine) Stream(ctx context.Context, keywords []string, opts Options, yield func(Answer) bool) error {
	if len(keywords) == 0 {
		return fmt.Errorf("paths: empty keyword query")
	}
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = e.opts.MaxEdges
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	q := e.resolve(keywords)
	if opts.RequireAllKeywords {
		for _, kw := range keywords {
			if len(q.matchLess[kw]) == 0 {
				return fmt.Errorf("paths: keyword %q matches no tuple", kw)
			}
		}
	}

	if workers := parallel.Workers(opts.Parallelism, 0); workers > 1 {
		return e.streamPipelined(ctx, q, opts, workers, yield)
	}

	emitted := 0
	// emit builds the answer for a deduplicated, covering connection and
	// yields it; a non-nil return aborts the whole enumeration.
	emit := func(c core.Connection) error {
		ans, err := e.buildAnswer(ctx, c, q, opts)
		if err != nil {
			return err
		}
		if !yield(ans) {
			return errStopStream
		}
		emitted++
		if opts.MaxResults > 0 && emitted >= opts.MaxResults {
			return errStopStream
		}
		return nil
	}

	err := e.walkConnections(ctx, q, opts, emit)
	if err == errStopStream {
		return nil
	}
	return err
}

// streamPipelined is the parallel tail of Stream: a three-stage ordered
// pipeline. Stage one is walkConnections's single-goroutine dedup + coverage
// consumer, which submits each surviving connection to stage two, a bounded
// parallel.Ordered pool running buildAnswer concurrently; stage three — this
// goroutine — drains the answers in exact submission order and yields them,
// so the emitted sequence is byte-identical to the sequential walk at any
// worker count.
func (e *Engine) streamPipelined(ctx context.Context, q *query, opts Options, workers int, yield func(Answer) bool) error {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stage := parallel.NewOrdered(pctx, workers, 2*workers, func(ctx context.Context, c core.Connection) (Answer, error) {
		return e.buildAnswer(ctx, c, q, opts)
	})
	defer stage.Stop()

	var submitted int // owned by the walk goroutine until walkDone delivers
	walkDone := make(chan error, 1)
	go func() {
		err := e.walkConnections(pctx, q, opts, func(c core.Connection) error {
			if err := stage.Submit(c); err != nil {
				return err
			}
			submitted++
			return nil
		})
		stage.CloseSubmit()
		walkDone <- err
	}()

	emitted := 0
	stopped := false
	drainErr := stage.Drain(func(a Answer) error {
		// Stop yielding as soon as the caller's context is cancelled, even
		// when later answers already finished annotating: the sequential
		// walk stops at its next check, and the two paths must agree.
		if err := ctx.Err(); err != nil {
			return err
		}
		if !yield(a) {
			stopped = true
			return errStopStream
		}
		emitted++
		if opts.MaxResults > 0 && emitted >= opts.MaxResults {
			stopped = true
			return errStopStream
		}
		return nil
	})
	cancel() // unblocks a still-running walk; idempotent otherwise
	walkErr := <-walkDone
	switch {
	case stopped:
		return nil
	case drainErr == nil:
		// Every submitted answer was delivered; the walk's own verdict
		// decides (nil for a complete enumeration, the context error when
		// the producer was truncated).
		return walkErr
	case isContextError(drainErr) && walkErr == nil && emitted == submitted:
		// The cancellation raced the teardown after the complete answer
		// set was already delivered; align with the sequential walk, which
		// returns nil for a context cancelled after the last task.
		return nil
	default:
		return drainErr
	}
}

// isContextError reports whether err is a context cancellation or deadline.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// walkConnections drives the deduplicated enumeration of covering
// connections, invoking emit for each one. The per-source walks fan out
// across a bounded worker pool (Options.Parallelism); deduplication,
// coverage checks and conversion to the string space happen on the consuming
// goroutine in the sequential task order, so the emitted sequence is
// identical for any worker count. Only connections that survive dedup and
// coverage are rendered — everything before that point stays in the dense
// space. Under streamPipelined this consumer is stage one of the annotation
// pipeline and emit hands connections to the ordered pool.
func (e *Engine) walkConnections(ctx context.Context, q *query, opts Options, emit func(core.Connection) error) error {
	seen := make(map[string]bool)
	var keyBuf []byte
	// process applies the order-sensitive tail of the enumeration — global
	// dedup, coverage, emission — and must only run on one goroutine. The
	// dedup key is the canonical dense encoding of the path, equivalent to
	// (but far cheaper than) Connection.Key within one generation.
	process := func(p core.DensePath) error {
		keyBuf = p.AppendCanonicalKey(keyBuf[:0])
		if seen[string(keyBuf)] {
			return nil
		}
		seen[string(keyBuf)] = true
		if !e.covers(p, q, opts) {
			return nil
		}
		return emit(p.Connection(e.graph))
	}

	if len(q.keywords) == 1 {
		// Single-keyword queries: each matching tuple is an answer.
		var one [1]uint32
		for _, id := range q.matchLess[q.keywords[0]] {
			if err := ctx.Err(); err != nil {
				return err
			}
			one[0] = id
			if err := process(core.DensePath{Nodes: one[:]}); err != nil {
				return err
			}
		}
		return nil
	}

	// Enumerate connections between tuples matching different keywords, one
	// task per (from, to) source pair, in deterministic order. Pairs are
	// generated lazily — the cross-product of large match sets would be an
	// expensive slice to materialize — from per-keyword ID lists sorted in
	// the string-space tuple order.
	type pair struct{ from, to uint32 }
	ordered := append([]string(nil), q.keywords...)
	sort.Strings(ordered)
	ids := make([][]uint32, len(ordered))
	taskCount := 0
	for i := range ordered {
		ids[i] = q.matchLess[ordered[i]]
	}
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			taskCount += len(ids[i]) * len(ids[j])
		}
	}
	// forEachPair walks the pairs in the deterministic task order; a non-nil
	// return from fn stops the iteration and is passed through.
	forEachPair := func(fn func(pair) error) error {
		for i := 0; i < len(ordered); i++ {
			for j := i + 1; j < len(ordered); j++ {
				for _, from := range ids[i] {
					for _, to := range ids[j] {
						if err := fn(pair{from: from, to: to}); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	}

	workers := parallel.Workers(opts.Parallelism, taskCount)
	if workers == 1 {
		return forEachPair(func(t pair) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			var procErr error
			walkErr := e.walkPair(ctx, t.from, t.to, opts, func(p core.DensePath) bool {
				procErr = process(p)
				return procErr == nil
			})
			if procErr != nil {
				return procErr
			}
			return walkErr
		})
	}

	// Parallel fan-out with ordered consumption: the producer starts one
	// worker per task as pool slots free up — in task order, so the oldest
	// unfinished task always owns a slot — and hands the consumer a stream
	// per task in that same order. Workers block once their stream buffer
	// fills, bounding memory; the consumer drains stream after stream,
	// running process on each path. Streams carry cloned dense paths — two
	// uint32 slices per connection — instead of rendered string connections.
	type stream struct {
		ch  chan core.DensePath
		err error // valid once ch is closed
	}
	gctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	sem := make(chan struct{}, workers)
	streams := make(chan *stream, workers)
	// producerErr records a producer cut off before queueing every task; it
	// is written before close(streams) and read only after the drain, so the
	// channel close orders the accesses.
	var producerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(streams)
		producerErr = forEachPair(func(t pair) error {
			select {
			case sem <- struct{}{}:
			case <-gctx.Done():
				return gctx.Err()
			}
			st := &stream{ch: make(chan core.DensePath, 64)}
			select {
			case streams <- st:
			case <-gctx.Done():
				<-sem
				return gctx.Err()
			}
			wg.Add(1)
			go func(t pair, st *stream) {
				defer wg.Done()
				defer func() { <-sem }()
				defer close(st.ch)
				truncated := false
				walkErr := e.walkPair(gctx, t.from, t.to, opts, func(p core.DensePath) bool {
					select {
					case st.ch <- p.Clone():
						return true
					case <-gctx.Done():
						truncated = true
						return false
					}
				})
				if walkErr == nil && truncated {
					// The walk stopped because its yield observed the
					// cancellation, not because it ran out of connections.
					walkErr = gctx.Err()
				}
				st.err = walkErr
			}(t, st)
			return nil
		})
	}()
	for st := range streams {
		for p := range st.ch {
			if err := process(p); err != nil {
				return err
			}
		}
		if st.err != nil {
			return st.err
		}
	}
	// Every stream closed cleanly, so the enumeration is complete unless the
	// producer itself was cut off before queueing every task; a context
	// cancelled after the last task is not reported, matching the sequential
	// path above.
	return producerErr
}

// walkPair enumerates the connections of one source pair: the degenerate
// same-tuple pair yields the single-tuple connection (one tuple matching
// both keywords is itself an answer); all others walk the graph. Like every
// other walk, a yield returning false stops the enumeration. The paths
// handed to yield alias walk scratch and must be cloned to outlive the call.
func (e *Engine) walkPair(ctx context.Context, from, to uint32, opts Options, yield func(core.DensePath) bool) error {
	if from == to {
		var one [1]uint32
		one[0] = from
		yield(core.DensePath{Nodes: one[:]})
		return nil
	}
	return core.WalkConnectionsIDs(ctx, e.graph, from, to, opts.MaxEdges, yield)
}

// covers reports whether the path satisfies the keyword-coverage semantics
// configured in the options.
func (e *Engine) covers(p core.DensePath, q *query, opts Options) bool {
	if !opts.RequireAllKeywords {
		return true
	}
	for _, bits := range q.bits {
		found := false
		for _, n := range p.Nodes {
			if bits.Has(n) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// buildAnswer annotates one surviving connection: association analysis,
// optional instance corroboration, per-tuple matched keywords and the total
// content score (via the query's pooled scorers, so concurrent annotation
// workers never share iterator state).
func (e *Engine) buildAnswer(ctx context.Context, c core.Connection, q *query, opts Options) (Answer, error) {
	var (
		an  core.Analysis
		err error
	)
	if opts.InstanceCorroboration {
		an, err = e.analyzer.AnalyzeWithInstanceContext(ctx, c, e.graph)
	} else {
		an, err = e.analyzer.Analyze(c)
	}
	if err != nil {
		return Answer{}, err
	}
	scorer := q.scorers.Get().(*index.Scorer)
	defer q.scorers.Put(scorer)
	tuples := e.graph.Tuples()
	matched := make(map[relation.TupleID][]string)
	content := 0.0
	for _, t := range c.Tuples {
		dense, ok := tuples.Lookup(t)
		if !ok {
			continue
		}
		if kws := q.tupleKeywords[dense]; len(kws) > 0 {
			matched[t] = append([]string(nil), kws...)
		}
		content += scorer.ScoreID(dense)
	}
	return Answer{Connection: c, Analysis: an, Matches: matched, ContentScore: content}, nil
}

func finish(answers []Answer, opts Options) []Answer {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Connection.RDBLength() != answers[j].Connection.RDBLength() {
			return answers[i].Connection.RDBLength() < answers[j].Connection.RDBLength()
		}
		return answers[i].Connection.Key() < answers[j].Connection.Key()
	})
	if opts.MaxResults > 0 && len(answers) > opts.MaxResults {
		answers = answers[:opts.MaxResults]
	}
	return answers
}

func appendUnique(ss []string, s string) []string {
	for _, have := range ss {
		if have == s {
			return ss
		}
	}
	return append(ss, s)
}
