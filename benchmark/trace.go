package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/search/banks"
	"repro/internal/search/mtjnt"
	"repro/internal/search/paths"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/symtab"
	"repro/internal/workload"
	"repro/kws"
)

// perLayer are the metrics of single layers, reported by --trace 1. Layer
// names are module names. _us/_ms/_ns metrics are medians over the calls of
// the replay; bare names are exact counts over the replay or gauges read
// from /v1/stats after one over-the-wire round. They have no bound: they
// say where an end-to-end change came from (README.md lists which
// end-to-end metric each should move).
var perLayer = []metricDef{
	{name: "httpapi.search_hit_us", unit: "us", better: "lower"},
	{name: "httpapi.search_overhead_us", unit: "us", better: "lower"},
	{name: "httpapi.mutate_overhead_us", unit: "us", better: "lower"},
	{name: "httpapi.response_bytes", unit: "B", better: "lower"},
	{name: "httpapi.shed", unit: "count", better: "lower"},
	{name: "httpapi.errors", unit: "count", better: "lower"},
	{name: "cache.hit_us", unit: "us", better: "lower"},
	{name: "cache.miss_overhead_us", unit: "us", better: "lower"},
	{name: "cache.hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "cache.bytes", unit: "B", better: "lower"},
	{name: "engine.build_ms", unit: "ms", better: "lower"},
	{name: "engine.search_us.paths", unit: "us", better: "lower"},
	{name: "engine.search_us.mtjnt", unit: "us", better: "lower"},
	{name: "engine.search_us.banks", unit: "us", better: "lower"},
	{name: "engine.render_us", unit: "us", better: "lower"},
	{name: "engine.searcher_init_us", unit: "us", better: "lower"},
	{name: "engine.apply_us", unit: "us", better: "lower"},
	{name: "engine.apply_durable_us", unit: "us", better: "lower"},
	{name: "paths.search_us", unit: "us", better: "lower"},
	{name: "paths.answers", unit: "count", better: "higher"},
	{name: "mtjnt.search_us", unit: "us", better: "lower"},
	{name: "mtjnt.candidate_networks_us", unit: "us", better: "lower"},
	{name: "mtjnt.networks", unit: "count", better: "higher"},
	{name: "banks.search_us", unit: "us", better: "lower"},
	{name: "banks.trees", unit: "count", better: "higher"},
	{name: "index.build_ms", unit: "ms", better: "lower"},
	{name: "index.match_us", unit: "us", better: "lower"},
	{name: "index.candidates", unit: "count", better: "lower"},
	{name: "index.score_us", unit: "us", better: "lower"},
	{name: "index.apply_us", unit: "us", better: "lower"},
	{name: "postings.iter_ns_per_entry", unit: "ns", better: "lower"},
	{name: "postings.bytes_per_entry", unit: "B", better: "lower"},
	{name: "symtab.intern_ns", unit: "ns", better: "lower"},
	{name: "datagraph.build_ms", unit: "ms", better: "lower"},
	{name: "datagraph.nodes", unit: "count", better: "lower"},
	{name: "datagraph.edges", unit: "count", better: "lower"},
	{name: "datagraph.neighbors_ns", unit: "ns", better: "lower"},
	{name: "datagraph.apply_delta_us", unit: "us", better: "lower"},
	{name: "core.derive_ms", unit: "ms", better: "lower"},
	{name: "core.analyze_us", unit: "us", better: "lower"},
	{name: "core.new_analyzer_us", unit: "us", better: "lower"},
	{name: "ranking.topk_us", unit: "us", better: "lower"},
	{name: "ranking.rank_us", unit: "us", better: "lower"},
	{name: "store.append_us", unit: "us", better: "lower"},
	{name: "store.append_bytes", unit: "B", better: "lower"},
	{name: "store.snapshot_ms", unit: "ms", better: "lower"},
	{name: "store.snapshot_bytes", unit: "B", better: "lower"},
	{name: "store.load_ms", unit: "ms", better: "lower"},
	{name: "shard.build_ms", unit: "ms", better: "lower"},
	{name: "shard.match_us", unit: "us", better: "lower"},
	{name: "shard.apply_us", unit: "us", better: "lower"},
	{name: "kwsd.boot_ms", unit: "ms", better: "lower"},
	{name: "kwsd.warmup_ms", unit: "ms", better: "lower"},
	{name: "kwsd.heap_bytes", unit: "B", better: "lower"},
	{name: "kwsd.num_gc", unit: "count", better: "lower"},
	{name: "kwsd.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "kwsd.wal_bytes", unit: "B", better: "lower"},
	{name: "kwsd.snapshots", unit: "count", better: "lower"},
	{name: "loadgen.search_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.mutate_p95_ms", unit: "ms", better: "lower"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.cpu_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// snapshotEvery is kwsd's default -snapshot-every, which the end-to-end
// live-mixed workload runs with; the replay's direct store calls follow it.
const snapshotEvery = 64

// span is one timed call into a layer's public functions. Spans of one
// replayed request share Op; Parent is the index of the span whose call
// contains this one in the real call tree (-1 for an op's root). Children
// are timed separately, after the parent, on the same input, so a span's
// self time is its duration minus its direct children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// call runs fn as a span and returns its index. Every timed call starts
// from a freshly collected heap: an op's calls run back to back on the same
// input, and without this the later ones inherit the earlier ones' garbage,
// which made "A minus B" come out negative by position alone.
func (t *tracer) call(name string, parent, op int, fn func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	runtime.GC()
	start := time.Since(t.t0)
	fn()
	t.spans[id].Start, t.spans[id].End = int64(start), int64(time.Since(t.t0))
	return id
}

// us is the span's duration in microseconds.
func (t *tracer) us(id int) float64 {
	return float64(t.spans[id].End-t.spans[id].Start) / 1e3
}

// replay is the in-process state the traced run drives: a front engine
// behind the HTTP handler, a shadow engine kept in lockstep for the calls
// that cannot run twice on one engine (Apply), and the layer values of the
// shadow's current generation.
type replay struct {
	s      spec
	tw     *twin
	tr     *tracer
	stores []*store.FileStore // every store opened, in temporary directories
	dirs   []string

	front   *kws.Engine
	api     *httpapi.Server
	handler http.Handler
	shadow  *kws.Engine

	comp    kws.Components // the shadow's current generation
	pe      *paths.Engine
	me      *mtjnt.Engine
	be      *banks.Engine
	group   *shard.Group
	states  *shard.States
	wal     *store.FileStore // durable workloads: the store driven directly
	walGen  uint64
	batches int // write batches applied so far, priming included

	samples map[string][]float64 // per-call values of a timing metric
	counts  map[string]float64   // exact counts and single readings
	err     error                // first failure inside a span
}

// captureKind is an engine kind registered only to be handed the Components
// of the generation it is first queried on: the public factory hook is the
// one way to reach an Engine's graph, index and analyzer.
const captureKind kws.EngineKind = "benchmark-capture"

func (r *replay) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

func (r *replay) sample(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

// relationalDB generates the workload's dataset below the kws facade, for
// the layers that take a *relation.Database.
func (s spec) relationalDB() *relation.Database {
	if s.db == "docs" {
		return workload.MustGenerateDocs(workload.ScaledDocsConfig(s.scale, datasetSeed))
	}
	return workload.MustGenerate(workload.ScaledConfig(s.scale, datasetSeed))
}

// newEngine builds an engine as kwsd would: memory-only, or on a fresh
// file store with kwsd's default snapshot cadence.
func (r *replay) newEngine(lay layout, label string) (*kws.Engine, error) {
	if !r.s.durable {
		return kws.New(r.s.database())
	}
	st, err := r.openStore(lay, label)
	if err != nil {
		return nil, err
	}
	return kws.New(r.s.database(), kws.WithStore(st))
}

func (r *replay) openStore(lay layout, label string) (*store.FileStore, error) {
	dir := filepath.Join(lay.build, fmt.Sprintf("trace-%d-%s-%s", os.Getpid(), r.s.name, label))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r.dirs = append(r.dirs, dir)
	st, err := store.Open(dir)
	if err == nil {
		r.stores = append(r.stores, st)
	}
	return st, err
}

// cleanup closes the stores and removes their directories; errors are
// dropped because nothing in them outlives the run.
func (r *replay) cleanup() {
	for _, st := range r.stores {
		_ = st.Close()
	}
	for _, dir := range r.dirs {
		_ = os.RemoveAll(dir)
	}
}

// newReplay builds the replay state, timing each layer's build on the way,
// and applies the ring-priming batches so the replay starts where a measured
// window does.
func newReplay(ctx context.Context, lay layout, s spec, tw *twin, tr *tracer) (*replay, error) {
	r := &replay{s: s, tw: tw, tr: tr, samples: make(map[string][]float64), counts: make(map[string]float64)}

	// Layer builds, each on the same generated database.
	rdb := s.relationalDB()
	var tuples *symtab.Tuples
	id := tr.call("symtab.intern", -1, -1, func() { tuples = symtab.ForDatabase(rdb) })
	r.counts["symtab.intern_ns"] = 1e3 * tr.us(id) / float64(rdb.TupleCount())
	var graph *datagraph.Graph
	id = tr.call("datagraph.build", -1, -1, func() { graph = datagraph.BuildParallelWith(rdb, tuples, 0) })
	r.counts["datagraph.build_ms"] = tr.us(id) / 1e3
	r.counts["datagraph.nodes"] = float64(graph.NodeCount())
	r.counts["datagraph.edges"] = float64(graph.EdgeCount())
	var idx *index.Index
	id = tr.call("index.build", -1, -1, func() { idx = index.BuildParallelWith(rdb, tuples, 0) })
	r.counts["index.build_ms"] = tr.us(id) / 1e3
	id = tr.call("core.derive", -1, -1, func() { _, err := core.Derive(rdb); r.fail(err) })
	r.counts["core.derive_ms"] = tr.us(id) / 1e3
	r.group, _ = shard.NewGroup(shard.NewPartitioner(2), nil) // cannot fail without stores
	id = tr.call("shard.build", -1, -1, func() {
		var err error
		r.states, err = r.group.Fresh(rdb, 0)
		r.fail(err)
	})
	r.counts["shard.build_ms"] = tr.us(id) / 1e3
	r.tracePostings(idx)

	id = tr.call("engine.build", -1, -1, func() {
		var err error
		r.front, err = r.newEngine(lay, "front")
		r.fail(err)
	})
	r.counts["engine.build_ms"] = tr.us(id) / 1e3
	if r.err != nil {
		return r, r.err
	}
	var err error
	if r.shadow, err = r.newEngine(lay, "shadow"); err != nil {
		return r, err
	}
	if s.durable {
		if r.wal, err = r.openStore(lay, "wal"); err != nil {
			return r, err
		}
	}
	r.api = httpapi.New(r.front, httpapi.Options{})
	r.handler = r.api.Handler()
	kws.RegisterEngine(captureKind, func(c kws.Components) (kws.Searcher, error) {
		r.comp = c
		return kws.NewSearcher(kws.EnginePaths, c)
	})

	if err := r.capture(ctx); err != nil {
		return r, err
	}
	for i := 0; i < ringPriming; i++ {
		m, err := mutation(tw.ring.batch(i))
		if err != nil {
			return r, err
		}
		for _, e := range []*kws.Engine{r.front, r.shadow} {
			if _, err := e.Apply(ctx, m); err != nil {
				return r, fmt.Errorf("priming batch %d: %w", i, err)
			}
		}
		old := r.comp
		if err := r.capture(ctx); err != nil {
			return r, err
		}
		removed, added := r.delta(old.DB, r.comp.DB, tw.ring.batch(i))
		if err := r.advanceShards(removed, added); err != nil {
			return r, err
		}
		if r.wal != nil {
			r.walGen++
			if err := r.wal.Append(r.walGen, storeMutation(tw.ring.batch(i))); err != nil {
				return r, err
			}
		}
	}
	r.batches = ringPriming
	return r, nil
}

// tracePostings rebuilds the posting list of every pool keyword through
// internal/postings and times a full iteration of each.
func (r *replay) tracePostings(idx *index.Index) {
	var entries, listBytes int
	var iterNS float64
	for _, word := range r.tw.ring.vocab {
		var list []postings.Entry
		for _, p := range idx.TermPostings(index.NormalizeKeyword(word)) {
			if dense, ok := idx.Tuples().Lookup(p.Tuple); ok {
				list = append(list, postings.Entry{ID: dense, TF: uint32(p.TF), Cols: []uint32{0}})
			}
		}
		if len(list) == 0 {
			continue // a multi-term keyword has no posting list of its own
		}
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
		l := postings.Build(list)
		id := r.tr.call("postings.iter", -1, -1, func() {
			for it := l.Iter(); it.Next(); {
			}
		})
		iterNS += 1e3 * r.tr.us(id)
		entries += l.Len()
		listBytes += l.Bytes()
	}
	if entries > 0 {
		r.counts["postings.iter_ns_per_entry"] = iterNS / float64(entries)
		r.counts["postings.bytes_per_entry"] = float64(listBytes) / float64(entries)
	}
}

// capture refreshes comp and the inner engines from the shadow's current
// generation by querying the capture kind on it.
func (r *replay) capture(ctx context.Context) error {
	if _, err := r.shadow.Search(ctx, kws.Query{Keywords: r.tw.pool[0], Engine: captureKind, MaxJoins: 1}); err != nil {
		return err
	}
	c := r.comp
	var err error
	if r.pe, err = paths.NewWithComponents(c.DB, c.Graph, c.Index, c.Analyzer, paths.DefaultOptions()); err != nil {
		return err
	}
	if r.me, err = mtjnt.NewWithComponents(c.DB, c.Graph, c.Index, mtjnt.DefaultOptions()); err != nil {
		return err
	}
	r.be, err = banks.NewWithComponents(c.DB, c.Graph, c.Index, banks.DefaultOptions())
	return err
}

// delta lists the tuples a ring batch removed and added, looked up in the
// generations before and after it and sorted as the engine's stager sorts
// its net delta, so the layer calls below see the input Engine.Apply gave.
func (r *replay) delta(before, after *relation.Database, ops []httpapi.Op) (removed, added []*relation.Tuple) {
	for _, op := range ops {
		row := op.Key
		if op.Op == "insert" {
			row = op.Row
		}
		id := relation.TupleID{Relation: op.Table, Key: relation.EncodeKey([]relation.Value{relation.String(row[r.tw.ring.keyColumn()].(string))})}
		if op.Op != "insert" {
			if tup, ok := before.Tuple(id); ok {
				removed = append(removed, tup)
			}
		}
		if op.Op != "delete" {
			if tup, ok := after.Tuple(id); ok {
				added = append(added, tup)
			}
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].ID().Less(removed[j].ID()) })
	sort.Slice(added, func(i, j int) bool { return added[i].ID().Less(added[j].ID()) })
	return removed, added
}

func (r *replay) advanceShards(removed, added []*relation.Tuple) error {
	prepared, err := r.group.Prepare(r.states, r.group.Split(removed, added))
	if err != nil {
		return err
	}
	r.states = r.states.Next(r.states.Gen+1, prepared)
	return nil
}

// storeMutation converts a wire batch to the store's neutral form, as the
// engine does before appending.
func storeMutation(ops []httpapi.Op) store.Mutation {
	kinds := map[string]int{"insert": 1, "delete": 2, "update": 3}
	m := store.Mutation{Ops: make([]store.Op, len(ops))}
	for i, o := range ops {
		m.Ops[i] = store.Op{Kind: kinds[o.Op], Table: o.Table, Key: o.Key, Row: o.Row}
		if o.Op == "update" {
			m.Ops[i].Row = o.Set
		}
	}
	return m
}

// serve runs one request through the HTTP handler in-process.
func (r *replay) serve(name string, op int, path string, body any) (int, *httptest.ResponseRecorder) {
	payload, err := json.Marshal(body)
	r.fail(err)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	id := r.tr.call(name, -1, op, func() { r.handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		r.fail(fmt.Errorf("%s op %d: status %d: %s", name, op, rec.Code, rec.Body))
	}
	return id, rec
}

// write replays one write batch: the handler on the front engine, then
// Engine.Apply on the shadow, then each layer call Apply made, on the same
// delta.
func (r *replay) write(ctx context.Context, op int, next httpapi.QueryRequest) {
	tr := r.tr
	ops := r.tw.ring.batch(r.batches)
	r.batches++
	root, _ := r.serve("httpapi.mutate", op, "/v1/mutate", httpapi.MutateRequest{Ops: ops})
	m, err := mutation(ops)
	r.fail(err)
	apply := tr.call("engine.apply", root, op, func() { _, err := r.shadow.Apply(ctx, m); r.fail(err) })
	r.sample("httpapi.mutate_overhead_us", tr.us(root)-tr.us(apply))
	if r.s.durable {
		r.sample("engine.apply_durable_us", tr.us(apply))
	} else {
		r.sample("engine.apply_us", tr.us(apply))
	}

	// The first search of a generation builds its searcher; the same
	// search again does not.
	q := next.ToQuery()
	first := tr.call("engine.search.first", -1, op, func() { _, err := r.shadow.Search(ctx, q); r.fail(err) })
	steady := tr.call("engine.search.steady", -1, op, func() { _, err := r.shadow.Search(ctx, q); r.fail(err) })
	r.sample("engine.searcher_init_us", tr.us(first)-tr.us(steady))

	old := r.comp
	r.fail(r.capture(ctx))
	removed, added := r.delta(old.DB, r.comp.DB, ops)
	id := tr.call("datagraph.apply_delta", apply, op, func() { old.Graph.ApplyDelta(r.comp.DB, removed, added) })
	r.sample("datagraph.apply_delta_us", tr.us(id))
	id = tr.call("index.apply", apply, op, func() { old.Index.Apply(r.comp.DB, removed, added) })
	r.sample("index.apply_us", tr.us(id))
	id = tr.call("core.new_analyzer", apply, op, func() {
		_, err := core.NewAnalyzer(r.comp.DB, old.Analyzer.Schema(), old.Analyzer.Mapping())
		r.fail(err)
	})
	r.sample("core.new_analyzer_us", tr.us(id))
	id = tr.call("shard.apply", -1, op, func() { r.fail(r.advanceShards(removed, added)) })
	r.sample("shard.apply_us", tr.us(id))

	if r.wal == nil {
		return
	}
	r.walGen++
	sm, before := storeMutation(ops), r.wal.Stats().WALBytes
	id = tr.call("store.append", apply, op, func() { r.fail(r.wal.Append(r.walGen, sm)) })
	r.sample("store.append_us", tr.us(id))
	r.sample("store.append_bytes", float64(r.wal.Stats().WALBytes-before))
	if r.walGen%snapshotEvery == 0 {
		id = tr.call("store.snapshot", apply, op, func() { r.fail(r.wal.Snapshot(r.walGen, r.comp.DB)) })
		r.sample("store.snapshot_ms", tr.us(id)/1e3)
		r.counts["store.snapshot_bytes"] = float64(r.wal.Stats().SnapshotBytes)
	}
}

// read replays one search: the handler, then the cache call it made, then
// Engine.Search, then the inner engine's Stream (the entry point the kws
// searchers use), then that engine's calls into the index, the graph, the
// analyzer and ranking.
func (r *replay) read(ctx context.Context, op int, wire httpapi.QueryRequest) {
	tr := r.tr
	// One untimed execution first: every timed call below repeats the same
	// query, and whichever ran first would otherwise pay for pulling the
	// query's postings and adjacency into the CPU caches (about a tenth of
	// a search), which the subtractions would book as its own work.
	_, err := r.front.Search(ctx, wire.ToQuery())
	r.fail(err)
	root, rec := r.serve("httpapi.search", op, "/v1/search", httpapi.SearchRequest{Query: &wire})
	r.counts["httpapi.response_bytes"] += float64(rec.Body.Len())
	var resp httpapi.SearchResponse
	r.fail(json.Unmarshal(rec.Body.Bytes(), &resp))
	q := wire.ToQuery()

	var cache int
	switch {
	case wire.NoCache:
		cache = tr.call("cache.uncached", root, op, func() { _, _, err := r.api.Cache().SearchUncached(ctx, q); r.fail(err) })
	case resp.Cached:
		cache = tr.call("cache.hit", root, op, func() {
			_, info, err := r.api.Cache().SearchInfo(ctx, q)
			r.fail(err)
			if !info.Hit {
				r.fail(fmt.Errorf("op %d: the handler hit the cache, the direct lookup did not", op))
			}
		})
		r.sample("cache.hit_us", tr.us(cache))
		r.sample("httpapi.search_hit_us", tr.us(root)-tr.us(cache))
		return // a hit does no engine work
	default:
		// The handler's cache now holds the entry; an empty cache over the
		// same engine repeats the miss.
		fresh := kws.NewCache(r.front, kws.CacheOptions{})
		cache = tr.call("cache.miss", root, op, func() { _, _, err := fresh.SearchInfo(ctx, q); r.fail(err) })
	}
	r.sample("httpapi.search_overhead_us", tr.us(root)-tr.us(cache))

	kind := wire.Engine
	if kind == "" {
		kind = string(kws.EnginePaths)
	}
	engine := tr.call("engine.search."+kind, cache, op, func() { _, err := r.front.Search(ctx, q); r.fail(err) })
	r.sample("cache.miss_overhead_us", tr.us(cache)-tr.us(engine))
	r.sample("engine.search_us."+kind, tr.us(engine))

	switch kind {
	case "mtjnt":
		inner := tr.call("mtjnt.search", engine, op, func() {
			r.fail(r.me.Stream(ctx, wire.Keywords, mtjnt.Options{MaxEdges: maxJoins}, func(mtjnt.Network) bool {
				r.counts["mtjnt.networks"]++
				return true
			}))
		})
		r.sample("mtjnt.search_us", tr.us(inner))
		id := tr.call("mtjnt.candidate_networks", inner, op, func() { _, err := r.me.CandidateNetworks(wire.Keywords, maxJoins); r.fail(err) })
		r.sample("mtjnt.candidate_networks_us", tr.us(id))
	case "banks":
		inner := tr.call("banks.search", engine, op, func() {
			r.fail(r.be.Stream(ctx, wire.Keywords, banks.Options{MaxDepth: maxJoins, MaxResults: 100}, func(banks.Tree) bool {
				r.counts["banks.trees"]++
				return true
			}))
		})
		r.sample("banks.search_us", tr.us(inner))
	default:
		r.readPaths(ctx, op, engine, wire.Keywords)
	}
}

// readPaths times the paths engine on the captured generation and then the
// layer calls it makes, each over everything this query touches.
func (r *replay) readPaths(ctx context.Context, op, engine int, keywords []string) {
	tr, c := r.tr, r.comp
	var answers []paths.Answer
	inner := tr.call("paths.search", engine, op, func() {
		opts := paths.Options{MaxEdges: maxJoins, RequireAllKeywords: true, InstanceCorroboration: true}
		r.fail(r.pe.Stream(ctx, keywords, opts, func(a paths.Answer) bool {
			answers = append(answers, a)
			return true
		}))
	})
	r.sample("paths.search_us", tr.us(inner))
	r.sample("engine.render_us", tr.us(engine)-tr.us(inner))
	r.counts["paths.answers"] += float64(len(answers))

	var ids []uint32
	id := tr.call("index.match", inner, op, func() {
		for _, kw := range keywords {
			ids = append(ids, c.Index.MatchIDs(kw)...)
		}
	})
	r.sample("index.match_us", tr.us(id))
	r.counts["index.candidates"] += float64(len(ids))
	id = tr.call("shard.match", -1, op, func() {
		m := shard.NewMatcher(r.states, c.Index.Tuples())
		for _, kw := range keywords {
			m.MatchIDs(kw)
		}
	})
	r.sample("shard.match_us", tr.us(id))
	if len(ids) > 0 {
		id = tr.call("index.score", inner, op, func() {
			sc := c.Index.NewScorer(keywords)
			for _, dense := range ids {
				sc.ScoreID(dense)
			}
		})
		r.sample("index.score_us", tr.us(id))
		id = tr.call("datagraph.neighbors", inner, op, func() {
			for _, dense := range ids {
				c.Graph.NeighborsID(dense)
			}
		})
		r.sample("datagraph.neighbors_ns", 1e3*tr.us(id)/float64(len(ids)))
	}
	if len(answers) == 0 {
		return
	}
	id = tr.call("core.analyze", inner, op, func() {
		for _, a := range answers {
			_, err := c.Analyzer.AnalyzeWithInstanceContext(ctx, a.Connection, c.Graph)
			r.fail(err)
		}
	})
	r.sample("core.analyze_us", tr.us(id)/float64(len(answers)))
	items := make([]ranking.Item, len(answers))
	for i, a := range answers {
		items[i] = ranking.Item{Analysis: a.Analysis, Content: a.ContentScore}
	}
	id = tr.call("ranking.topk", engine, op, func() { ranking.TopK(items, ranking.CloseFirst{}, topK) })
	r.sample("ranking.topk_us", tr.us(id))
	id = tr.call("ranking.rank", engine, op, func() { ranking.Rank(items, ranking.CloseFirst{}) })
	r.sample("ranking.rank_us", tr.us(id))
}

// run replays n ops of the plan, one write per writeEvery ops, and returns
// the time spent in the root (handler) calls.
func (r *replay) run(ctx context.Context, p *plan, n, writeEvery int) time.Duration {
	reads := 0
	query := func() httpapi.QueryRequest {
		return r.s.wireQuery(r.tw.pool[p.seq[reads%len(p.seq)]], reads)
	}
	var roots time.Duration
	for op := 0; op < n && r.err == nil; op++ {
		first := len(r.tr.spans)
		if (op+1)%writeEvery == 0 {
			r.write(ctx, op, query())
		} else {
			r.read(ctx, op, query())
			reads++
		}
		roots += time.Duration(r.tr.spans[first].End - r.tr.spans[first].Start)
	}
	if r.wal != nil && r.err == nil {
		id := r.tr.call("store.load", -1, -1, func() { _, _, err := r.wal.Load(); r.fail(err) })
		r.counts["store.load_ms"] = r.tr.us(id) / 1e3
	}
	return roots
}

// untraced replays the same ops through the handler alone, on a fresh
// engine, with no spans and no layer calls in between: the reference the
// traced replay's root calls are compared with.
func (r *replay) untraced(ctx context.Context, lay layout, p *plan, n, writeEvery int) (time.Duration, error) {
	engine, err := r.newEngine(lay, "untraced")
	if err != nil {
		return 0, err
	}
	batch := 0
	for ; batch < ringPriming; batch++ {
		m, err := mutation(r.tw.ring.batch(batch))
		if err != nil {
			return 0, err
		}
		if _, err := engine.Apply(ctx, m); err != nil {
			return 0, err
		}
	}
	handler := httpapi.New(engine, httpapi.Options{}).Handler()
	reqs := make([]*http.Request, n)
	for op, reads := 0, 0; op < n; op++ {
		var payload []byte
		path := "/v1/search"
		if (op+1)%writeEvery == 0 {
			path = "/v1/mutate"
			payload, err = json.Marshal(httpapi.MutateRequest{Ops: r.tw.ring.batch(batch)})
			batch++
		} else {
			wire := r.s.wireQuery(r.tw.pool[p.seq[reads%len(p.seq)]], reads)
			payload, err = json.Marshal(httpapi.SearchRequest{Query: &wire})
			reads++
		}
		if err != nil {
			return 0, err
		}
		reqs[op] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	}
	var total time.Duration
	for op, req := range reqs {
		runtime.GC()
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		total += time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("untraced op %d: status %d: %s", op, rec.Code, rec.Body)
		}
	}
	return total, nil
}

// traceOps is how many generated ops the replay covers. A replayed op runs
// four to eight calls, so the engine-bound workloads replay fewer ops to
// keep one invocation near the length of an end-to-end one.
func (s spec) traceOps() int {
	if s.zipf > 0 {
		return 500
	}
	return 250
}

// traceWorkload is the --trace 1 run of one workload: one over-the-wire
// round for the gauges only kwsd can report, then the in-process replay.
func traceWorkload(ctx context.Context, lay layout, kwsd string, s spec, seed int64, window time.Duration) (result, error) {
	rn, err := newRunner(ctx, lay, kwsd, s, seed, window)
	if err != nil {
		return result{}, err
	}
	rd, err := rn.runRoundValid(ctx, 0, false)
	if err != nil {
		return result{}, err
	}
	p, err := newPlan(s, rn.twin.pool, rn.twin.ring, seed*1_000_003, window)
	if err != nil {
		return result{}, err
	}
	// The replay interleaves writes at the share the wire round saw.
	n, writeEvery := s.traceOps(), (len(rd.win.searchMS)+len(rd.win.mutateMS))/rd.win.writes

	tr := newTracer()
	r, err := newReplay(ctx, lay, s, rn.twin, tr)
	defer r.cleanup()
	if err != nil {
		return result{}, err
	}
	traced := r.run(ctx, p, n, writeEvery)
	if r.err != nil {
		return result{}, r.err
	}
	plain, err := r.untraced(ctx, lay, p, n, writeEvery)
	if err != nil {
		return result{}, err
	}

	metrics := make(map[string]float64, len(perLayer))
	for name, vals := range r.samples {
		metrics[name] = median(vals)
	}
	for name, v := range r.counts {
		metrics[name] = v
	}
	metrics["trace.overhead_pct"] = 100 * (float64(traced)/float64(plain) - 1)
	metrics["httpapi.shed"] = float64(rd.shed)
	metrics["httpapi.errors"] = float64(rd.errs)
	metrics["cache.hit_rate"] = rd.hitRate
	metrics["cache.evictions"] = float64(rd.stats.Cache.Evictions)
	metrics["cache.bytes"] = float64(rd.stats.Cache.Bytes)
	metrics["kwsd.boot_ms"] = rd.bootMS
	metrics["kwsd.warmup_ms"] = rd.warmMS
	metrics["kwsd.heap_bytes"] = float64(rd.stats.Memory.HeapAllocBytes)
	metrics["kwsd.num_gc"] = float64(rd.stats.Memory.NumGC)
	metrics["kwsd.gc_pause_ms"] = rd.stats.Memory.GCPauseTotalMS
	if ps := rd.stats.Persistence; ps != nil {
		metrics["kwsd.wal_bytes"] = float64(ps.WALBytes)
		metrics["kwsd.snapshots"] = float64(ps.LastSnapshotGeneration / snapshotEvery)
	}
	metrics["loadgen.search_p99_ms"] = percentile(rd.win.searchMS, 0.99)
	metrics["loadgen.mutate_p95_ms"] = percentile(rd.win.mutateMS, 0.95)
	metrics["loadgen.lag_p99_ms"] = rd.lagP99()
	metrics["loadgen.cpu_pct"] = rd.win.cpuPct

	if err := writeTrace(lay, s, seed, n, tr); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   len(rn.problems) == 0,
		Attempted: rd.win.attempted() + n,
		Failed:    rd.win.failed,
		Metrics:   make(map[string]value, len(perLayer)),
	}
	fmt.Printf("\nworkload %s: traced replay of %d ops (1 write per %d), %d spans; wire round: %d ops, failed %d, correct %v\n",
		s.name, n, writeEvery, len(tr.spans), rd.win.attempted(), rd.win.failed, res.Correct)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{metrics[m.name], m.unit}
		fmt.Printf("  %-30s %14.3f %s\n", m.name, metrics[m.name], m.unit)
	}
	for _, p := range rn.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	return res, nil
}

// writeTrace dumps the spans, kept in memory until now, next to the
// benchmark.
func writeTrace(lay layout, s spec, seed int64, ops int, tr *tracer) error {
	if err := os.MkdirAll(lay.out, 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Ops      int    `json:"ops"`
		Spans    []span `json:"spans"`
	}{s.name, seed, ops, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(lay.out, "trace-"+s.name+".json"), doc, 0o644)
}
