package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/kws"
)

// Options configures a Server. The zero value picks the defaults noted per
// field.
type Options struct {
	// MaxInFlight bounds concurrently executing search requests; requests
	// beyond it are shed immediately with 429 instead of queueing, so an
	// overloaded server degrades by answering fast, not by stalling
	// everyone. Zero or negative means 64.
	MaxInFlight int
	// Timeout is the per-request execution budget; a search or mutation
	// exceeding it is cancelled and answered with 504. Zero or negative
	// means 10s.
	Timeout time.Duration
	// CacheBytes and CacheShards size the result cache (see
	// kws.CacheOptions); zero values pick the cache defaults.
	CacheBytes  int64
	CacheShards int
}

const (
	defaultMaxInFlight = 64
	defaultTimeout     = 10 * time.Second
	maxBodyBytes       = 4 << 20
	// retryAfterSeconds is the backoff hint attached to shed (429)
	// responses; sheds answer instantly, so one second is plenty.
	retryAfterSeconds = "1"
)

// Server serves one kws.Engine over HTTP, fronting reads with a
// generation-keyed kws.Cache and guarding execution with admission control.
// Build one with New and mount Handler on a listener.
type Server struct {
	engine  *kws.Engine
	cache   *kws.Cache
	sem     chan struct{}
	timeout time.Duration
	start   time.Time

	reg       *metrics.Registry
	searches  *metrics.Counter
	mutations *metrics.Counter
	errs      *metrics.Counter
	shed      *metrics.Counter
}

// New builds a server around the engine. The engine stays usable directly;
// mutations applied out-of-band are picked up through the generation key
// like any other.
func New(engine *kws.Engine, opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = defaultMaxInFlight
	}
	if opts.Timeout <= 0 {
		opts.Timeout = defaultTimeout
	}
	reg := metrics.NewRegistry()
	return &Server{
		engine:    engine,
		cache:     kws.NewCache(engine, kws.CacheOptions{MaxBytes: opts.CacheBytes, Shards: opts.CacheShards}),
		sem:       make(chan struct{}, opts.MaxInFlight),
		timeout:   opts.Timeout,
		start:     time.Now(),
		reg:       reg,
		searches:  reg.Counter("searches"),
		mutations: reg.Counter("mutations"),
		errs:      reg.Counter("errors"),
		shed:      reg.Counter("shed"),
	}
}

// Cache returns the server's result cache (used by tests and stats).
func (s *Server) Cache() *kws.Cache { return s.cache }

// Handler returns the route table. Unknown paths get 404, wrong methods
// 405, both from the standard mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// handleSearch admits, budgets and dispatches a search request to the
// single, batch or streaming path.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	// Read the body before taking an in-flight slot: a slow client must
	// not pin admission capacity while it trickles bytes.
	var req SearchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.clientError(w, err)
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Inc()
		// Load generators and well-behaved clients key their backoff off
		// Retry-After; sheds are instant, so a short hint suffices.
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.writeError(w, http.StatusTooManyRequests, "server at max in-flight searches, retry later")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	switch {
	case req.Query != nil && len(req.Queries) > 0:
		s.clientError(w, errors.New(`set exactly one of "query" and "queries"`))
	case req.Query != nil && req.Stream:
		s.streamSearch(ctx, w, *req.Query)
	case req.Query != nil:
		s.singleSearch(ctx, w, *req.Query)
	case len(req.Queries) > 0:
		s.batchSearch(ctx, w, req.Queries, req.Stream)
	default:
		s.clientError(w, errors.New(`set "query" or "queries"`))
	}
}

// latencyKind maps a client-supplied engine name onto a bounded histogram
// label: the registered kinds plus "default" (no engine named) and "other"
// (unknown name) — arbitrary client strings must not mint registry entries.
func latencyKind(engine string) string {
	if engine == "" {
		return "default"
	}
	for _, k := range kws.RegisteredEngines() {
		if string(k) == engine {
			return engine
		}
	}
	return "other"
}

// serve runs one query through the cache (or around it for NoCache),
// recording latency under the query's engine kind.
func (s *Server) serve(ctx context.Context, q QueryRequest) ([]kws.Result, kws.CacheInfo, error) {
	begin := time.Now()
	var (
		results []kws.Result
		info    kws.CacheInfo
		err     error
	)
	if q.NoCache {
		results, info, err = s.cache.SearchUncached(ctx, q.ToQuery())
	} else {
		results, info, err = s.cache.SearchInfo(ctx, q.ToQuery())
	}
	s.searches.Inc()
	s.reg.Histogram("search_seconds_" + latencyKind(q.Engine)).Observe(time.Since(begin).Seconds())
	return results, info, err
}

func (s *Server) singleSearch(ctx context.Context, w http.ResponseWriter, q QueryRequest) {
	results, info, err := s.serve(ctx, q)
	if err != nil {
		s.searchError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SearchResponse{
		Generation: info.Generation,
		Cached:     info.Hit || info.Collapsed,
		Results:    FromResults(results),
	})
}

func (s *Server) batchSearch(ctx context.Context, w http.ResponseWriter, queries []QueryRequest, stream bool) {
	items := make([]BatchItem, len(queries))
	build := func(i int) BatchItem {
		results, info, err := s.serve(ctx, queries[i])
		if err != nil {
			s.errs.Inc()
			return BatchItem{Error: err.Error()}
		}
		return BatchItem{
			Generation: info.Generation,
			Cached:     info.Hit || info.Collapsed,
			Results:    FromResults(results),
		}
	}
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		for i := range queries {
			if err := enc.Encode(build(i)); err != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}
	for i := range queries {
		items[i] = build(i)
	}
	s.writeJSON(w, http.StatusOK, items)
}

// streamSearch delivers a single query as NDJSON, one unranked result per
// line in discovery order. Streams bypass the cache: they are consumed
// incrementally and carry no ranking, so there is no finished result set to
// store.
func (s *Server) streamSearch(ctx context.Context, w http.ResponseWriter, q QueryRequest) {
	begin := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(item StreamItem) bool {
		if err := enc.Encode(item); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	err := s.engine.Stream(ctx, q.ToQuery(), func(r kws.Result) bool {
		wire := FromResult(r)
		return emit(StreamItem{Result: &wire})
	})
	s.searches.Inc()
	s.reg.Histogram("search_seconds_" + latencyKind(q.Engine)).Observe(time.Since(begin).Seconds())
	if err != nil {
		// Headers are gone; report the failure as the terminal line.
		s.errs.Inc()
		emit(StreamItem{Error: err.Error()})
	}
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	// Decode and validate before taking an in-flight slot, mirroring
	// handleSearch: a slow or malformed client must not pin admission
	// capacity while it trickles bytes.
	var req MutateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.clientError(w, err)
		return
	}
	if len(req.Ops) == 0 {
		s.clientError(w, errors.New(`"ops" must not be empty`))
		return
	}
	ops := make([]kws.Op, len(req.Ops))
	for i, o := range req.Ops {
		op, err := o.ToOp()
		if err != nil {
			s.clientError(w, fmt.Errorf("op %d: %w", i, err))
			return
		}
		ops[i] = op
	}
	// Mutations share the searches' admission budget: Apply serializes on
	// the engine's write lock (and fsyncs when durable), so unbounded
	// mutate requests would queue behind each other exactly the way
	// admission control exists to prevent.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.writeError(w, http.StatusTooManyRequests, "server at max in-flight requests, retry later")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	gen, err := s.engine.Apply(ctx, kws.Mutation{Ops: ops})
	if err != nil {
		s.mutateError(w, err)
		return
	}
	s.mutations.Inc()
	s.writeJSON(w, http.StatusOK, MutateResponse{Generation: gen})
}

// mutateError maps an Apply failure to a status: a durability failure is
// the server's 500, the server's own budget expiring is 504, a client that
// went away gets silence (there is nobody to write to — mirroring
// searchError), and everything else — unknown table, bad key, type
// mismatch — is the client's 400.
func (s *Server) mutateError(w http.ResponseWriter, err error) {
	s.errs.Inc()
	switch {
	case errors.Is(err, kws.ErrPersistence):
		s.writeError(w, http.StatusInternalServerError, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful to write.
	default:
		s.writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:     "ok",
		Generation: s.engine.Generation(),
		UptimeSecs: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	relations, tuples, edges := s.engine.Stats()
	cs := s.cache.Stats()
	metrics.SampleMemStats(s.reg)
	snap := s.reg.Snapshot()
	latency := make(map[string]Quant, len(snap.Histograms))
	for name, h := range snap.Histograms {
		const prefix = "search_seconds_"
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			latency[name[len(prefix):]] = Quant{
				Count:  h.Count,
				MeanMS: h.Mean * 1000,
				P50MS:  h.P50 * 1000,
				P90MS:  h.P90 * 1000,
				P95MS:  h.P95 * 1000,
				P99MS:  h.P99 * 1000,
			}
		}
	}
	// Every counter below reads from the one registry snapshot taken above:
	// mixing snapshot and live counter reads let a response report a shed
	// rate inconsistent with its own searches/shed fields when requests
	// landed between the two reads. InFlight is instantaneous by nature and
	// stays a live read.
	searches, shed := snap.Counters["searches"], snap.Counters["shed"]
	shedRate := 0.0
	if searches+shed > 0 {
		shedRate = float64(shed) / float64(searches+shed)
	}
	var persistence *PersistenceStats
	if ps, ok := s.engine.PersistStats(); ok {
		persistence = &PersistenceStats{
			WALBytes:               ps.WALBytes,
			WALRecords:             ps.WALRecords,
			LastSnapshotGeneration: ps.SnapshotGeneration,
			SnapshotBytes:          ps.SnapshotBytes,
			ReplayedRecords:        ps.ReplayedRecords,
			ReplayDurationMS:       float64(ps.ReplayDuration) / float64(time.Millisecond),
			SnapshotErrors:         ps.SnapshotErrors,
		}
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Generation: s.engine.Generation(),
		UptimeSecs: time.Since(s.start).Seconds(),
		Engine:     EngineStats{Relations: relations, Tuples: tuples, Edges: edges},
		Cache: CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Collapses: cs.Collapses,
			Evictions: cs.Evictions,
			Bypasses:  cs.Bypasses,
			Entries:   cs.Entries,
			Bytes:     cs.Bytes,
			MaxBytes:  cs.MaxBytes,
			HitRate:   cs.HitRate(),
		},
		Server: ServerStats{
			Searches:    searches,
			Mutations:   snap.Counters["mutations"],
			Errors:      snap.Counters["errors"],
			Shed:        shed,
			ShedRate:    shedRate,
			InFlight:    len(s.sem),
			MaxInFlight: cap(s.sem),
		},
		Memory: MemoryStats{
			HeapAllocBytes: snap.Gauges[metrics.GaugeHeapAllocBytes],
			HeapObjects:    snap.Gauges[metrics.GaugeHeapObjects],
			GCPauseTotalMS: float64(snap.Gauges[metrics.GaugeGCPauseTotalNs]) / 1e6,
			NumGC:          snap.Gauges[metrics.GaugeNumGC],
		},
		Latency:     latency,
		Persistence: persistence,
	})
}

// searchError maps a search failure to a status: the server's own budget
// expiring is 504, everything else — empty query, unknown engine or
// ranking, a looseness lambda that overflows a score — is the client's 400.
func (s *Server) searchError(w http.ResponseWriter, err error) {
	s.errs.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		s.writeError(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	if errors.Is(err, context.Canceled) {
		// The client went away; nothing useful to write.
		return
	}
	s.writeError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) clientError(w http.ResponseWriter, err error) {
	s.errs.Inc()
	s.writeError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// decodeBody parses a JSON request body with a size cap and strict fields,
// so typos in option names fail loudly instead of silently inheriting
// defaults.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
