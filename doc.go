// Package repro is the root of a reproduction of "Close and Loose
// Associations in Keyword Search from Structural Data" (Vainio, Junkkari,
// Kekäläinen; EDBT/ICDT 2017 joint conference workshops).
//
// The public API lives in the kws package: a goroutine-safe Engine serves
// context-aware keyword queries — Engine.Search(ctx, Query) for ranked
// results and Engine.Stream for incremental consumption — and every
// per-query option (engine kind, ranking strategy, join budget, TopK,
// instance checks, labeler, parallelism) travels in the Query, so one Engine
// handles many concurrent callers with different settings. Search strategies
// and ranking strategies are pluggable through kws.RegisterEngine and
// kws.RegisterRanker.
//
// Per-query parallelism: substrate construction (kws.New, the tuple graph
// and the inverted index), the BANKS keyword expansions and the paths
// per-source enumerations all fan out across bounded worker pools with
// deterministic merges, so results are identical at any parallelism. In the
// paths engine, answer annotation — association analysis, instance-level
// corroboration, content scoring — additionally runs as an ordered pipeline
// behind the dedup stage: a bounded pool annotates many answers at once
// while an order-preserving emitter yields them in exactly the sequential
// order. kws.WithParallelism bounds the engine-wide concurrency and
// Query.Parallelism overrides it per call.
//
// Live updates and snapshots: the engine serves a sequence of immutable
// generations. Engine.Apply takes a batched Mutation (inserts, deletes,
// updates), maintains the tuple graph and the keyword index incrementally —
// adjacency deltas from re-resolved foreign keys in both directions, posting
// additions and tombstone-free removals — and atomically publishes the
// result as the next generation; a from-scratch rebuild of the mutated
// database would produce byte-identical search output, and the
// rebuild-equivalence property tests in kws enforce exactly that. Readers
// never block and never tear: an in-flight Search or Stream call keeps the generation it started on while writers queue behind each
// other. Once a Database has been handed to kws.New it freezes — direct
// Insert/AddTable/LoadCSV calls fail with kws.ErrFrozenDatabase instead of
// silently diverging from the engine's substrates.
//
// Caching and serving: kws.Cache fronts an Engine with a bounded, sharded
// LRU keyed by (normalized query, generation) — a mutation implicitly
// invalidates every cached result by publishing the next generation — with
// singleflight collapsing of concurrent identical queries. cmd/kwsd serves
// the engine and cache over HTTP (search with batch and NDJSON streaming,
// mutate, health, stats) with admission control and latency metrics from
// internal/metrics; cmd/ksearch -remote speaks the same wire format. See
// ARCHITECTURE.md for the layer map and docs/http-api.md for the wire
// reference.
//
// The paper's contribution (conceptual connection lengths and close/loose
// association analysis) is implemented in internal/core on top of an
// in-memory relational engine, an ER layer, graph substrates, a keyword
// index and three search engines (connection enumeration, DISCOVER-style
// MTJNT and BANKS-style backward expansion), all of which support
// cancellation through context.Context. The benchmarks in bench_test.go
// regenerate every figure and table of the paper; cmd/repro prints them as
// reports.
package repro
