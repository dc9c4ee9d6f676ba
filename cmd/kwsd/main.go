// Command kwsd serves a kws.Engine over HTTP: keyword search with a
// generation-keyed result cache, live mutations, health and stats.
//
// Usage:
//
//	kwsd                                    # paper example on :8080
//	kwsd -db synthetic -scale 4 -addr :9000
//	kwsd -max-inflight 128 -timeout 5s -cache-bytes 134217728
//	kwsd -data-dir /var/lib/kwsd           # durable: WAL + snapshots
//
// With -data-dir the server persists every acknowledged mutation to a
// write-ahead log and snapshots the relational state every -snapshot-every
// generations; on boot it recovers the newest durable generation instead of
// starting over from the seed database. Without -data-dir nothing touches
// disk and a restart serves the seed data again.
//
// Endpoints (see docs/http-api.md for the full wire reference):
//
//	POST /v1/search    single or batch keyword search, NDJSON streaming
//	POST /v1/mutate    apply an insert/update/delete batch atomically
//	GET  /v1/healthz   liveness plus current generation
//	GET  /v1/stats     cache hit rate, shed rate, latency quantiles
//
// The server answers repeated queries from a bounded LRU keyed by
// (query, generation): a mutation publishes a new generation, which makes
// every older cache entry unreachable without any invalidation scan.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/httpapi"
	"repro/internal/paperdb"
	"repro/kws"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		database    = flag.String("db", "paper", `database to serve: "paper", "synthetic", "logs" or "docs"`)
		scale       = flag.Int("scale", 2, "scale factor for the synthetic databases")
		seed        = flag.Int64("seed", 1, "seed for the synthetic databases")
		parallelism = flag.Int("parallelism", 0, "engine parallelism (0 = GOMAXPROCS)")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrently executing searches; beyond it requests are shed with 429")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request execution budget")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes")
		cacheShards = flag.Int("cache-shards", 16, "result cache shard count")
		dataDir     = flag.String("data-dir", "", "directory for the WAL and snapshots; empty serves memory-only")
		snapEvery   = flag.Int("snapshot-every", 64, "generations between automatic snapshots (0 disables; WAL still grows)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *addr, *database, *scale, *seed, *parallelism, *dataDir, *snapEvery, httpapi.Options{
		MaxInFlight: *maxInFlight,
		Timeout:     *timeout,
		CacheBytes:  *cacheBytes,
		CacheShards: *cacheShards,
	}, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kwsd:", err)
		os.Exit(1)
	}
}

// buildEngine constructs the served engine for the named database; extra
// options (durability wiring) are appended after the database defaults.
func buildEngine(database string, scale int, seed int64, parallelism int, extra ...kws.Option) (*kws.Engine, error) {
	var (
		db      *kws.Database
		labeler kws.Labeler
	)
	switch database {
	case "paper":
		db = kws.PaperExample()
		labeler = paperdb.DisplayLabel
	case "synthetic":
		db = kws.SyntheticCompany(scale, seed)
	case "logs":
		db = kws.SyntheticLogs(scale, seed)
	case "docs":
		db = kws.SyntheticDocs(scale, seed)
	default:
		return nil, fmt.Errorf("unknown database %q (use paper, synthetic, logs or docs)", database)
	}
	opts := []kws.Option{kws.WithParallelism(parallelism)}
	if labeler != nil {
		opts = append(opts, kws.WithLabeler(labeler))
	}
	return kws.New(db, append(opts, extra...)...)
}

// run builds the engine, mounts the API and serves until ctx is cancelled,
// then drains in-flight requests. With a non-empty dataDir the engine runs
// durably: recovery before serving, WAL appends per mutation, a final
// checkpoint on graceful shutdown. If ready is non-nil it receives the bound
// address once the listener is up (used by tests and :0 listens).
func run(ctx context.Context, addr, database string, scale int, seed int64, parallelism int, dataDir string, snapshotEvery int, opts httpapi.Options, ready chan<- string) error {
	var engineOpts []kws.Option
	durable := dataDir != ""
	if durable {
		// A sharded data layout keeps its data under shard-N/ with no root
		// WAL: opening it as a store would serve the seed and silently drop
		// every acknowledged mutation.
		if _, err := os.Stat(filepath.Join(dataDir, "meta", "vector.log")); err == nil {
			return fmt.Errorf("%s holds a sharded data layout (meta/vector.log), which kwsd cannot serve", dataDir)
		}
		st, err := kws.OpenStore(dataDir)
		if err != nil {
			return err
		}
		defer st.Close()
		engineOpts = append(engineOpts, kws.WithStore(st), kws.WithSnapshotEvery(snapshotEvery))
	}
	engine, err := buildEngine(database, scale, seed, parallelism, engineOpts...)
	if err != nil {
		return err
	}
	if durable {
		ps, _ := engine.PersistStats()
		log.Printf("kwsd: recovered generation %d from %s (snapshot generation %d, %d WAL records replayed in %s)",
			engine.Generation(), dataDir, ps.SnapshotGeneration, ps.ReplayedRecords,
			ps.ReplayDuration.Round(time.Millisecond))
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	relations, tuples, edges := engine.Stats()
	log.Printf("kwsd: serving %s database (%d relations, %d tuples, %d join edges) on %s",
		database, relations, tuples, edges, lis.Addr())
	if ready != nil {
		ready <- lis.Addr().String()
	}

	srv := &http.Server{
		Handler:           httpapi.New(engine, opts).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(lis); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("kwsd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if durable {
		// Snapshot the final generation so the next boot loads it directly
		// instead of replaying the log. Failure is not fatal: the WAL
		// already holds every acknowledged generation.
		if err := engine.Checkpoint(); err != nil {
			log.Printf("kwsd: shutdown checkpoint failed (WAL remains authoritative): %v", err)
		}
	}
	return <-errc
}
