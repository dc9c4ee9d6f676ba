package kws

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/symtab"
)

// Config carries the default per-query options of an Engine; every field can
// be overridden per call through Query.
type Config struct {
	// Engine selects the default search strategy; it defaults to EnginePaths.
	Engine EngineKind
	// Ranking selects the default ranking strategy; it defaults to
	// RankCloseFirst.
	Ranking RankStrategy
	// MaxJoins is the default connection budget in joins; it defaults to 5.
	MaxJoins int
	// TopK caps the number of results (0 = all).
	TopK int
	// DisableInstanceChecks skips the instance-level corroboration
	// analysis, which is the most expensive part of result annotation.
	DisableInstanceChecks bool
	// LoosenessLambda is the penalty per transitive N:M sub-path used by
	// RankLoosenessPenalty; it defaults to 1.
	LoosenessLambda float64
	// Labeler renders tuple identifiers in results; it defaults to
	// TupleID.String. Use PaperLabeler for the paper's running example.
	Labeler Labeler
	// Parallelism bounds the worker goroutines used per query by the search
	// engines (0 or negative means GOMAXPROCS, 1 is fully sequential).
	// Results are deterministic for any value.
	Parallelism int

	// Engine-level durability wiring, set through WithStore and
	// WithSnapshotEvery (see persist.go). Unexported: persistence is not a
	// per-query option and cannot be overridden through Query or
	// WithDefaults.
	store            store.Store
	snapshotEvery    int
	snapshotEverySet bool
}

// Result is one ranked answer.
type Result struct {
	// Rank is the 1-based position under the query's ranking. Streamed
	// results are unranked: Rank is 0 and Score is unset.
	Rank int
	// Score is the ranking cost (lower is better).
	Score float64
	// Connection renders the tuple path, e.g. "d1(XML) - e1(Smith)".
	Connection string
	// ConnectionWithCardinalities renders the path with per-join
	// cardinalities, e.g. "p1(XML) 1:N w_f1 N:1 e1(Smith)".
	ConnectionWithCardinalities string
	// Tuples are the identifiers of the visited tuples in order.
	Tuples []string
	// MatchedKeywords maps each matching tuple identifier to the keywords
	// it matches.
	MatchedKeywords map[string][]string
	// RDBLength and ERLength are the connection lengths at the two levels.
	RDBLength int
	ERLength  int
	// Class is the association classification ("immediate", "functional",
	// "transitive-N:M", "mixed").
	Class string
	// Close reports a guaranteed close association at the schema level.
	Close bool
	// CorroboratedAtInstance reports closeness at the instance level.
	CorroboratedAtInstance bool
	// TransitiveNM counts transitive N:M sub-paths (looseness degree).
	TransitiveNM int
	// ContentScore is the TF-IDF score of the matched attributes.
	ContentScore float64
}

// Engine answers keyword queries over one database. A single Engine is
// goroutine-safe and serves many concurrent queries, each with its own
// engine kind, ranking strategy and budgets (see Query); the expensive
// substrates — data graph, keyword index, association analyzer — are built
// once per generation and shared, while per-kind searchers are constructed
// lazily by the registered factories and cached per generation.
//
// An Engine is live: Apply mutates the underlying data and publishes a new
// immutable generation atomically, while in-flight Search and Stream calls
// keep reading the generation they started on. See
// "Live updates and snapshots" in the package documentation.
type Engine struct {
	defaults Config
	labeler  Labeler

	// snap is the current generation; readers load it once per call and
	// never block on writers.
	snap atomic.Pointer[snapshot]
	// applyMu serializes writers (Apply publishes generations one at a time).
	applyMu sync.Mutex

	// Durability (nil store means memory-only; see persist.go). replayed and
	// replayDur are written once by New before the engine escapes; snapErrs
	// is updated by writers and read by PersistStats concurrently.
	store         store.Store
	snapshotEvery int
	replayed      int64
	replayDur     time.Duration
	snapErrs      atomic.Int64
}

// snapshot is one immutable generation of the engine's substrates plus its
// own lazily built searcher cache. Searchers capture the generation's
// components, so they are invalidated wholesale when a new generation is
// published — the next query of each kind rebuilds its searcher over the new
// graph and index.
type snapshot struct {
	gen  uint64
	comp Components

	mu        sync.Mutex
	searchers map[EngineKind]Searcher
}

// Option configures an Engine at construction.
type Option func(*Config)

// WithDefaults sets the engine's default per-query options. Only the fields
// set in cfg are applied (zero values inherit, as everywhere else), so it
// composes with the other options in any order.
func WithDefaults(cfg Config) Option {
	return func(c *Config) {
		if cfg.Engine != "" {
			c.Engine = cfg.Engine
		}
		if cfg.Ranking != "" {
			c.Ranking = cfg.Ranking
		}
		if cfg.MaxJoins > 0 {
			c.MaxJoins = cfg.MaxJoins
		}
		if cfg.TopK != 0 {
			c.TopK = cfg.TopK
		}
		if cfg.DisableInstanceChecks {
			c.DisableInstanceChecks = true
		}
		if cfg.LoosenessLambda != 0 {
			c.LoosenessLambda = cfg.LoosenessLambda
		}
		if cfg.Labeler != nil {
			c.Labeler = cfg.Labeler
		}
		if cfg.Parallelism > 0 {
			c.Parallelism = cfg.Parallelism
		}
	}
}

// WithLabeler sets the engine's default labeler for rendering tuple
// identifiers in results; individual queries can still override it through
// Query.Labeler.
func WithLabeler(l Labeler) Option {
	return func(c *Config) { c.Labeler = l }
}

// WithParallelism bounds the concurrency of the engine: the worker count of
// the substrate builds and the default worker count of each query's
// internal fan-out (keyword expansions, per-source enumerations, the paths
// annotation pipeline). Zero or negative means GOMAXPROCS; 1 makes every
// path fully sequential. Individual queries can still override it through
// Query.Parallelism.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// New prepares an engine for the database: it validates the configured
// defaults against the registries (before any expensive construction),
// checks the database, derives the conceptual schema, and builds the tuple
// graph and the keyword index.
//
// With WithStore, New first recovers the newest durable state: the store's
// snapshot (when one exists) replaces the caller's database as the base
// generation, and the write-ahead log after it replays through the normal
// mutation path before New returns. The caller's database then only seeds
// the very first boot; see persist.go.
func New(db *Database, opts ...Option) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("kws: nil database")
	}
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Engine == "" {
		cfg.Engine = EnginePaths
	}
	if cfg.Ranking == "" {
		cfg.Ranking = RankCloseFirst
	}
	if cfg.MaxJoins <= 0 {
		cfg.MaxJoins = 5
	}
	if cfg.store != nil && !cfg.snapshotEverySet {
		cfg.snapshotEvery = defaultSnapshotEvery
	}
	// Validate the configured names first: an unknown engine or ranking
	// must fail before the graph, the index and the analyzer are built.
	if _, err := engineFactory(cfg.Engine); err != nil {
		return nil, err
	}
	if _, err := rankerFactory(cfg.Ranking); err != nil {
		return nil, err
	}
	inner := db.internalDB()
	baseGen := uint64(0)
	if cfg.store != nil {
		loaded, gen, err := cfg.store.Load()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
		}
		if loaded != nil {
			inner, baseGen = loaded, gen
		}
	}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	analyzer, err := core.Derive(inner)
	if err != nil {
		return nil, err
	}
	labeler := cfg.Labeler
	if labeler == nil {
		labeler = func(id TupleID) string { return id.String() }
	}
	// Freeze the facade before reading the data: from here on the engine
	// owns the database, and direct writes through the Database facade would
	// bypass the snapshot discipline (see Database.Insert and Engine.Apply).
	// Only WAL replay below can fail, and it unfreezes on its way out, so a
	// failed New never leaves a frozen database.
	db.freeze()
	// The tuple graph and the inverted index are independent substrates over
	// one shared tuple-ID space; intern the tuples once, then build both
	// concurrently, each fanning out per-table workers (the builders only
	// read the frozen symbol table). Parallelism 1 means fully sequential
	// everywhere, including here.
	var (
		tuples = symtab.ForDatabase(inner)
		graph  *datagraph.Graph
		idx    *index.Index
	)
	if cfg.Parallelism == 1 {
		graph = datagraph.BuildParallelWith(inner, tuples, 1)
		idx = index.BuildParallelWith(inner, tuples, 1)
	} else {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			graph = datagraph.BuildParallelWith(inner, tuples, cfg.Parallelism)
		}()
		go func() {
			defer wg.Done()
			idx = index.BuildParallelWith(inner, tuples, cfg.Parallelism)
		}()
		wg.Wait()
	}
	e := &Engine{defaults: cfg, labeler: labeler, store: cfg.store, snapshotEvery: cfg.snapshotEvery}
	e.snap.Store(&snapshot{
		gen: baseGen,
		comp: Components{
			DB:       inner,
			Graph:    graph,
			Index:    idx,
			Analyzer: analyzer,
		},
		searchers: make(map[EngineKind]Searcher),
	})
	if e.store != nil {
		if err := e.replayWAL(baseGen); err != nil {
			db.unfreeze()
			return nil, err
		}
	}
	return e, nil
}

// current returns the generation a call should read. Each public entry point
// loads it exactly once, so one call never mixes two generations.
func (e *Engine) current() *snapshot { return e.snap.Load() }

// Generation returns the number of the currently published generation. It
// starts at 0 for a freshly built engine and increases by one per successful
// Apply.
func (e *Engine) Generation() uint64 { return e.current().gen }

// resolve fills a query's zero options from the engine defaults and rejects
// a non-finite looseness lambda. The engine kind is validated by the
// searcher lookup that follows every resolve; ranking is validated by
// scorerFor on the paths that rank.
func (e *Engine) resolve(q Query) (Query, error) {
	if len(q.Keywords) == 0 {
		return q, fmt.Errorf("kws: empty query")
	}
	if q.Engine == "" {
		q.Engine = e.defaults.Engine
	}
	if q.Ranking == "" {
		q.Ranking = e.defaults.Ranking
	}
	if q.MaxJoins <= 0 {
		q.MaxJoins = e.defaults.MaxJoins
	}
	if q.TopK == 0 {
		q.TopK = e.defaults.TopK
	}
	if q.InstanceChecks == ToggleDefault {
		if e.defaults.DisableInstanceChecks {
			q.InstanceChecks = ToggleOff
		} else {
			q.InstanceChecks = ToggleOn
		}
	}
	if q.LoosenessLambda == 0 {
		q.LoosenessLambda = e.defaults.LoosenessLambda
	}
	if math.IsNaN(q.LoosenessLambda) || math.IsInf(q.LoosenessLambda, 0) {
		return q, fmt.Errorf("kws: looseness lambda %v is not a finite number", q.LoosenessLambda)
	}
	if q.Labeler == nil {
		q.Labeler = e.labeler
	}
	if q.Parallelism <= 0 {
		q.Parallelism = e.defaults.Parallelism
	}
	return q, nil
}

// scorerFor builds the scorer of a resolved query through the registered
// ranker factory.
func (e *Engine) scorerFor(q Query) (ranking.Scorer, error) {
	rf, err := rankerFactory(q.Ranking)
	if err != nil {
		return nil, err
	}
	scorer, err := rf(q)
	if err != nil {
		return nil, fmt.Errorf("kws: ranking %q: %w", q.Ranking, err)
	}
	return scorer, nil
}

// searcher returns the generation's cached searcher of the kind, building it
// through the registered factory on first use. The factory runs outside the
// lock so a slow first-use construction of one kind never stalls concurrent
// queries of the others; racing builders are possible but harmless — the
// first result cached wins.
func (s *snapshot) searcher(kind EngineKind) (Searcher, error) {
	s.mu.Lock()
	cached, ok := s.searchers[kind]
	s.mu.Unlock()
	if ok {
		return cached, nil
	}
	f, err := engineFactory(kind)
	if err != nil {
		return nil, err
	}
	built, err := f(s.comp)
	if err != nil {
		return nil, fmt.Errorf("kws: engine %q: %w", kind, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.searchers[kind]; ok {
		return cached, nil
	}
	s.searchers[kind] = built
	return built, nil
}

// Search answers the query and returns its ranked results. It is safe to
// call concurrently with any mix of per-query options; a cancelled context
// aborts the enumeration and returns ctx.Err(). The whole call reads the
// generation current at entry, even if Apply publishes newer ones while it
// runs.
func (e *Engine) Search(ctx context.Context, q Query) ([]Result, error) {
	return e.searchOn(ctx, e.current(), q)
}

// searchOn is Search pinned to one generation; the Cache shares it so that
// a cached entry and its generation stamp come from the same snapshot.
func (e *Engine) searchOn(ctx context.Context, snap *snapshot, q Query) ([]Result, error) {
	rq, err := e.resolve(q)
	if err != nil {
		return nil, err
	}
	scorer, err := e.scorerFor(rq)
	if err != nil {
		return nil, err
	}
	s, err := snap.searcher(rq.Engine)
	if err != nil {
		return nil, err
	}
	var answers []Answer
	if err := s.Stream(ctx, rq, func(a Answer) bool {
		answers = append(answers, a)
		return true
	}); err != nil {
		return nil, err
	}
	items := make([]ranking.Item, len(answers))
	for i, a := range answers {
		items[i] = ranking.Item{Analysis: a.Analysis, Content: a.ContentScore}
	}
	ranked := ranking.TopK(items, scorer, rq.TopK)
	byKey := make(map[string]Answer, len(answers))
	for _, a := range answers {
		byKey[a.Connection.Key()] = a
	}
	results := make([]Result, 0, len(ranked))
	for _, rk := range ranked {
		if math.IsNaN(rk.Score) || math.IsInf(rk.Score, 0) {
			// No JSON number carries it, so no client could decode the result.
			return nil, fmt.Errorf("kws: ranking %q produced the non-finite score %v", rq.Ranking, rk.Score)
		}
		a := byKey[rk.Item.Analysis.Connection.Key()]
		results = append(results, toResult(a, rk.Rank, rk.Score, rq.Labeler))
	}
	return results, nil
}

// Stream answers the query incrementally: each result is handed to yield as
// soon as the search engine produces it, in discovery order and without
// ranking (Rank and Score are unset, and Query.Ranking is not consulted —
// ranking needs the full result set; use Search for ranked output). The
// stream stops when yield returns false, when TopK results have been
// delivered, or when the context is cancelled — in which case ctx.Err() is
// returned.
func (e *Engine) Stream(ctx context.Context, q Query, yield func(Result) bool) error {
	rq, err := e.resolve(q)
	if err != nil {
		return err
	}
	s, err := e.current().searcher(rq.Engine)
	if err != nil {
		return err
	}
	delivered := 0
	return s.Stream(ctx, rq, func(a Answer) bool {
		if !yield(toResult(a, 0, 0, rq.Labeler)) {
			return false
		}
		delivered++
		return rq.TopK <= 0 || delivered < rq.TopK
	})
}

func toResult(a Answer, rank int, score float64, label Labeler) Result {
	tuples := make([]string, len(a.Connection.Tuples))
	for i, t := range a.Connection.Tuples {
		tuples[i] = label(t)
	}
	// Distinct tuple IDs may render to the same label (Labeler is
	// caller-supplied), so the label-keyed map is filled in sorted-ID order:
	// colliding entries merge deterministically instead of one surviving at
	// random per map iteration order.
	matched := make(map[string][]string, len(a.Matches))
	ids := make([]TupleID, 0, len(a.Matches))
	for id := range a.Matches {
		ids = append(ids, id)
	}
	relation.SortTupleIDs(ids)
	for _, id := range ids {
		l := label(id)
		matched[l] = append(matched[l], a.Matches[id]...)
	}
	return Result{
		Rank:                        rank,
		Score:                       score,
		Connection:                  a.Connection.Format(label, a.Matches),
		ConnectionWithCardinalities: a.Analysis.FormatWithCardinalities(label, a.Matches),
		Tuples:                      tuples,
		MatchedKeywords:             matched,
		RDBLength:                   a.Analysis.RDBLength,
		ERLength:                    a.Analysis.ERLength,
		Class:                       a.Analysis.Class.String(),
		Close:                       a.Analysis.Close,
		CorroboratedAtInstance:      a.Analysis.CorroboratedAtInstance,
		TransitiveNM:                a.Analysis.TransitiveNM,
		ContentScore:                a.ContentScore,
	}
}

// Match returns the identifiers of the tuples matching a single keyword in
// the current generation, useful for exploring a database before searching.
func (e *Engine) Match(keyword string) []string {
	var out []string
	for _, m := range e.current().comp.Index.Match(keyword) {
		out = append(out, e.labeler(m.Tuple))
	}
	return out
}

// Stats summarises the current generation of the database.
func (e *Engine) Stats() (relations, tuples, edges int) {
	snap := e.current()
	st := snap.comp.DB.Stats()
	return st.Relations, st.Tuples, snap.comp.Graph.EdgeCount()
}
