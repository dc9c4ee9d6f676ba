// Package httpapi implements the kwsd serving layer: JSON wire types and
// HTTP handlers exposing a kws.Engine (fronted by a kws.Cache) over
// /v1/search, /v1/mutate, /v1/healthz and /v1/stats, with admission control
// and request metrics. cmd/kwsd mounts it on a listener; cmd/ksearch's
// -remote mode speaks the same wire format through these types. The full
// wire reference lives in docs/http-api.md.
package httpapi

import (
	"fmt"

	"repro/kws"
)

// QueryRequest is the wire form of one kws.Query. Omitted fields inherit
// the server engine's defaults, exactly like zero-valued kws.Query fields.
type QueryRequest struct {
	// Keywords are the query keywords (AND semantics). Required.
	Keywords []string `json:"keywords"`
	// Engine selects the search strategy ("paths", "mtjnt", "banks", or a
	// registered custom kind). Empty means the server default.
	Engine string `json:"engine,omitempty"`
	// Ranking selects the ranking strategy. Empty means the server default.
	Ranking string `json:"ranking,omitempty"`
	// MaxJoins is the connection budget in joins (0 = server default).
	MaxJoins int `json:"max_joins,omitempty"`
	// TopK caps the result count (0 = server default, negative = all).
	TopK int `json:"top_k,omitempty"`
	// InstanceChecks toggles instance-level corroboration; null inherits
	// the server default.
	InstanceChecks *bool `json:"instance_checks,omitempty"`
	// LoosenessLambda is the per-transitive-N:M penalty used by the
	// looseness-penalty ranking (0 = server default).
	LoosenessLambda float64 `json:"looseness_lambda,omitempty"`
	// NoCache bypasses the result cache for this query.
	NoCache bool `json:"no_cache,omitempty"`
}

// ToQuery converts the wire query to the engine's query type.
func (q QueryRequest) ToQuery() kws.Query {
	out := kws.Query{
		Keywords:        q.Keywords,
		Engine:          kws.EngineKind(q.Engine),
		Ranking:         kws.RankStrategy(q.Ranking),
		MaxJoins:        q.MaxJoins,
		TopK:            q.TopK,
		LoosenessLambda: q.LoosenessLambda,
	}
	if q.InstanceChecks != nil {
		if *q.InstanceChecks {
			out.InstanceChecks = kws.ToggleOn
		} else {
			out.InstanceChecks = kws.ToggleOff
		}
	}
	return out
}

// FromQuery converts an engine query to its wire form; it is the inverse of
// ToQuery and lives here so clients (ksearch -remote) never re-spell the
// field mapping. The Labeler and Parallelism fields have no
// wire form: rendering and concurrency belong to the server.
func FromQuery(q kws.Query) QueryRequest {
	out := QueryRequest{
		Keywords:        q.Keywords,
		Engine:          string(q.Engine),
		Ranking:         string(q.Ranking),
		MaxJoins:        q.MaxJoins,
		TopK:            q.TopK,
		LoosenessLambda: q.LoosenessLambda,
	}
	switch q.InstanceChecks {
	case kws.ToggleOn:
		v := true
		out.InstanceChecks = &v
	case kws.ToggleOff:
		v := false
		out.InstanceChecks = &v
	}
	return out
}

// SearchRequest is the body of POST /v1/search: exactly one of Query
// (single) or Queries (batch) must be set.
type SearchRequest struct {
	// Query is a single search.
	Query *QueryRequest `json:"query,omitempty"`
	// Queries is a batch; the response carries one item per query, in
	// order, with per-query errors.
	Queries []QueryRequest `json:"queries,omitempty"`
	// Stream requests NDJSON delivery: one result per line for a single
	// query (unranked, discovery order, cache bypassed), one batch item
	// per line for a batch.
	Stream bool `json:"stream,omitempty"`
}

// Result is the wire form of one kws.Result.
type Result struct {
	Rank                        int                 `json:"rank,omitempty"`
	Score                       float64             `json:"score"`
	Connection                  string              `json:"connection"`
	ConnectionWithCardinalities string              `json:"connection_with_cardinalities,omitempty"`
	Tuples                      []string            `json:"tuples"`
	MatchedKeywords             map[string][]string `json:"matched_keywords,omitempty"`
	RDBLength                   int                 `json:"rdb_length"`
	ERLength                    int                 `json:"er_length"`
	Class                       string              `json:"class"`
	Close                       bool                `json:"close"`
	CorroboratedAtInstance      bool                `json:"corroborated_at_instance"`
	TransitiveNM                int                 `json:"transitive_nm,omitempty"`
	ContentScore                float64             `json:"content_score"`
}

// FromResult converts an engine result to its wire form.
func FromResult(r kws.Result) Result {
	return Result{
		Rank:                        r.Rank,
		Score:                       r.Score,
		Connection:                  r.Connection,
		ConnectionWithCardinalities: r.ConnectionWithCardinalities,
		Tuples:                      r.Tuples,
		MatchedKeywords:             r.MatchedKeywords,
		RDBLength:                   r.RDBLength,
		ERLength:                    r.ERLength,
		Class:                       r.Class,
		Close:                       r.Close,
		CorroboratedAtInstance:      r.CorroboratedAtInstance,
		TransitiveNM:                r.TransitiveNM,
		ContentScore:                r.ContentScore,
	}
}

// ToResult converts a wire result back to the engine's result type; it is
// the inverse of FromResult and lives here so clients (ksearch -remote)
// never re-spell the field mapping.
func (r Result) ToResult() kws.Result {
	return kws.Result{
		Rank:                        r.Rank,
		Score:                       r.Score,
		Connection:                  r.Connection,
		ConnectionWithCardinalities: r.ConnectionWithCardinalities,
		Tuples:                      r.Tuples,
		MatchedKeywords:             r.MatchedKeywords,
		RDBLength:                   r.RDBLength,
		ERLength:                    r.ERLength,
		Class:                       r.Class,
		Close:                       r.Close,
		CorroboratedAtInstance:      r.CorroboratedAtInstance,
		TransitiveNM:                r.TransitiveNM,
		ContentScore:                r.ContentScore,
	}
}

// FromResults converts a result slice to wire form (never nil, so the JSON
// field encodes as [] rather than null).
func FromResults(results []kws.Result) []Result {
	out := make([]Result, len(results))
	for i, r := range results {
		out[i] = FromResult(r)
	}
	return out
}

// SearchResponse is the body answering a single (non-streamed) search.
type SearchResponse struct {
	// Generation is the engine generation that answered the query.
	Generation uint64 `json:"generation"`
	// Cached reports that the result came from the server's result cache
	// (a stored entry or a collapsed concurrent search).
	Cached bool `json:"cached"`
	// Results are the ranked results.
	Results []Result `json:"results"`
}

// BatchItem is one query's outcome inside a batch response: Results or
// Error, never both.
type BatchItem struct {
	Generation uint64   `json:"generation,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	Results    []Result `json:"results,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// StreamItem is one NDJSON line of a streamed single search: a result or a
// terminal error.
type StreamItem struct {
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// Op is the wire form of one mutation operation.
type Op struct {
	// Op is "insert", "delete" or "update".
	Op string `json:"op"`
	// Table is the target table.
	Table string `json:"table"`
	// Key selects the target tuple of a delete or update: one entry per
	// primary-key column.
	Key map[string]any `json:"key,omitempty"`
	// Row carries the full row of an insert.
	Row map[string]any `json:"row,omitempty"`
	// Set carries the columns an update overwrites.
	Set map[string]any `json:"set,omitempty"`
}

// ToOp converts the wire op to the engine's op type.
func (o Op) ToOp() (kws.Op, error) {
	switch o.Op {
	case "insert":
		return kws.Insert(o.Table, o.Row), nil
	case "delete":
		return kws.Delete(o.Table, o.Key), nil
	case "update":
		return kws.Update(o.Table, o.Key, o.Set), nil
	default:
		return kws.Op{}, fmt.Errorf(`unknown op %q (use "insert", "delete" or "update")`, o.Op)
	}
}

// MutateRequest is the body of POST /v1/mutate: an ordered batch applied
// atomically as one new generation.
type MutateRequest struct {
	Ops []Op `json:"ops"`
}

// MutateResponse reports the generation the mutation published.
type MutateResponse struct {
	Generation uint64 `json:"generation"`
}

// HealthResponse is the body of GET /v1/healthz.
type HealthResponse struct {
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	UptimeSecs float64 `json:"uptime_seconds"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Generation uint64           `json:"generation"`
	UptimeSecs float64          `json:"uptime_seconds"`
	Engine     EngineStats      `json:"engine"`
	Cache      CacheStats       `json:"cache"`
	Server     ServerStats      `json:"server"`
	Memory     MemoryStats      `json:"memory"`
	Latency    map[string]Quant `json:"latency"`
	// Persistence is present only when the engine runs with a durability
	// store (kwsd -data-dir); memory-only servers omit the block.
	Persistence *PersistenceStats `json:"persistence,omitempty"`
	// GenerationVector and Shards are present only on sharded engines
	// (kwsd -shards > 1): the per-shard generation cut this response was
	// taken at, and one block per shard.
	GenerationVector []uint64     `json:"generation_vector,omitempty"`
	Shards           []ShardStats `json:"shards,omitempty"`
}

// EngineStats summarises the served database's current generation.
type EngineStats struct {
	Relations int `json:"relations"`
	Tuples    int `json:"tuples"`
	Edges     int `json:"edges"`
}

// CacheStats mirrors kws.CacheStats on the wire.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Collapses int64   `json:"collapses"`
	Evictions int64   `json:"evictions"`
	Bypasses  int64   `json:"bypasses"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	MaxBytes  int64   `json:"max_bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// ServerStats reports the admission-control counters. ShedRate is the
// fraction of admission attempts that were shed with 429 (shed over
// searches-plus-shed); load generators track it per run.
type ServerStats struct {
	Searches    int64   `json:"searches"`
	Mutations   int64   `json:"mutations"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed"`
	ShedRate    float64 `json:"shed_rate"`
	InFlight    int     `json:"in_flight"`
	MaxInFlight int     `json:"max_in_flight"`
}

// PersistenceStats mirrors kws.PersistStats on the wire: the write-ahead
// log, the latest snapshot, and what recovery did at boot.
type PersistenceStats struct {
	WALBytes               int64   `json:"wal_bytes"`
	WALRecords             int64   `json:"wal_records"`
	LastSnapshotGeneration uint64  `json:"last_snapshot_generation"`
	SnapshotBytes          int64   `json:"snapshot_bytes"`
	ReplayedRecords        int64   `json:"replayed_records"`
	ReplayDurationMS       float64 `json:"replay_duration_ms"`
	SnapshotErrors         int64   `json:"snapshot_errors"`
}

// ShardStats mirrors kws.ShardStat on the wire: one shard of a sharded
// engine — its own generation, the slice of the data it owns, and its
// durable state (the WAL/snapshot fields are zero on memory-only engines).
type ShardStats struct {
	Shard              int    `json:"shard"`
	Generation         uint64 `json:"generation"`
	Tuples             int    `json:"tuples"`
	GraphEdges         int    `json:"graph_edges"`
	IndexTerms         int    `json:"index_terms"`
	IndexDocs          int    `json:"index_docs"`
	WALBytes           int64  `json:"wal_bytes,omitempty"`
	WALRecords         int64  `json:"wal_records,omitempty"`
	SnapshotGeneration uint64 `json:"snapshot_generation,omitempty"`
	SnapshotBytes      int64  `json:"snapshot_bytes,omitempty"`
}

// MemoryStats reports process heap gauges sampled from runtime.MemStats at
// request time (see metrics.SampleMemStats): live heap bytes and objects,
// cumulative stop-the-world GC pause, and completed GC cycles.
type MemoryStats struct {
	HeapAllocBytes int64   `json:"heap_alloc_bytes"`
	HeapObjects    int64   `json:"heap_objects"`
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
	NumGC          int64   `json:"num_gc"`
}

// Quant is a latency summary in milliseconds for one search engine kind.
type Quant struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
