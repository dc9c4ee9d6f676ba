package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// rounds per workload. A round is: fresh kwsd -> set-up -> measured window
// -> teardown. Every end-to-end metric is computed per round; the workload
// reports the best round's latencies and throughput and the median set-up
// time and peak memory (outcome.reported).
const rounds = 3

// The workloads are sized to give the 9 s window of BENCHMARK.json's
// run_seconds 1100 or more searches and 225 or more writes, so search_p95_ms
// and mutate_p75_ms have fifty samples beyond them. The host runs up to
// three times slower for minutes at a time; the check trips at under half
// the design floor, below which an upper percentile is not worth reporting.
// Shorter windows (the smoke test's) scale the floor down with them.
const (
	minSearchesPerSecond = 500.0 / 8
	minWritesPerSecond   = 100.0 / 8
)

// maxLagP99MS voids an open-loop round whose generator ran late: its
// latencies would measure the load generator, not kwsd. Next to the
// saturating background reader the generator's own wake-ups wait for a CPU
// 1.0 to 1.5 ms at p99, against a search p95 of 9 ms or more.
const maxLagP99MS = 3.0

// round is what one round measured.
type round struct {
	e2e     map[string]float64 // the seven end-to-end metrics
	win     *window
	bootMS  float64
	warmMS  float64
	hitRate float64
	stats   httpapi.StatsResponse // /v1/stats at the end of the window
	shed    int64                 // /v1/stats deltas over the window
	errs    int64
}

// runner carries what the rounds of one workload share.
type runner struct {
	lay    layout
	kwsd   string
	s      spec
	twin   *twin
	seed   int64
	window time.Duration
	// problems collects failed output checks; the run goes on, so one
	// report lists them all, and the result says correct: false.
	problems []string
}

func newRunner(ctx context.Context, lay layout, kwsd string, s spec, seed int64, window time.Duration) (*runner, error) {
	t, err := newTwin(s)
	if err != nil {
		return nil, err
	}
	if err := t.checkInputs(); err != nil {
		return nil, err
	}
	if err := t.prime(ctx); err != nil {
		return nil, err
	}
	return &runner{lay: lay, kwsd: kwsd, s: s, twin: t, seed: seed, window: window}, nil
}

func (r *runner) problemf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "CHECK FAILED %s: %s\n", r.s.name, msg)
}

// warmUp is the part of set-up after boot: the ring-priming writes on one
// connection, then a fixed number of reads shared out over two. A fixed op
// count (not a fixed time) makes setup_s move when the work per op moves;
// two connections keep both cores busy, and a busy guest's timings hold
// still where a half-idle one's follow the host.
func (p *plan) warmUp(addr string) error {
	var conns [2]*conn
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		defer c.close()
		conns[i] = c
	}
	for w := 0; w < ringPriming; w++ {
		if status, err := conns[0].do(p.writes[w], nil); err != nil || status != http.StatusOK {
			return fmt.Errorf("priming write %d: status %d, %v", w, status, err)
		}
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs [len(conns)]error
	)
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(p.warm); k = int(next.Add(1) - 1) {
				if status, err := c.do(p.reads[k%len(p.reads)][p.warm[k]], nil); err != nil || status != http.StatusOK {
					errs[i] = fmt.Errorf("warm-up read %d: status %d, %v", k, status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// runRound boots a fresh kwsd, sets it up, checks its answers, measures one
// window and checks the outcome. last marks the workload's final round,
// after which a durable workload is crash-checked.
func (r *runner) runRound(ctx context.Context, n int, last bool) (*round, error) {
	p, err := newPlan(r.s, r.twin.pool, r.twin.ring, r.seed*1_000_003+int64(n), r.window)
	if err != nil {
		return nil, err
	}
	dataDir := ""
	if r.s.durable {
		dataDir = filepath.Join(r.lay.build, fmt.Sprintf("data-%d-%s-%d", os.Getpid(), r.s.name, n))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
	}

	srv, err := boot(r.kwsd, r.s, dataDir)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if err := p.warmUp(srv.addr); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, srv.stderr)
	}
	setup := time.Since(srv.started)
	ctl, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.close()

	if err := r.twin.probe(ctx, ctl); err != nil {
		r.problemf("round %d: %v", n, err)
	}
	before, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	win, err := p.measure(srv.addr)
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, srv.stderr)
	}
	after, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	health, err := ctl.health()
	if err != nil {
		return nil, err
	}
	peakMB, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	rd := &round{
		win:    win,
		bootMS: srv.bootMS,
		warmMS: ms(setup) - srv.bootMS,
		stats:  after,
		shed:   after.Server.Shed - before.Server.Shed,
		errs:   after.Server.Errors - before.Server.Errors,
		e2e: map[string]float64{
			"setup_s":          setup.Seconds(),
			"search_p50_ms":    percentile(win.searchMS, 0.50),
			"search_p95_ms":    percentile(win.searchMS, 0.95),
			"mutate_p50_ms":    percentile(win.mutateMS, 0.50),
			"mutate_p75_ms":    percentile(win.mutateMS, 0.75),
			"throughput_ops_s": float64(win.completed()) / win.elapsed.Seconds(),
			"mem_peak_mb":      peakMB,
		},
	}
	served := (after.Cache.Hits + after.Cache.Collapses) - (before.Cache.Hits + before.Cache.Collapses)
	if lookups := served + after.Cache.Misses - before.Cache.Misses; lookups > 0 {
		rd.hitRate = float64(served) / float64(lookups)
	}

	// Output checks on the finished window.
	if win.failed > 0 {
		r.problemf("round %d: %d of %d operations failed (shed %d, server errors %d)", n, win.failed, win.attempted(), rd.shed, rd.errs)
	}
	if want := uint64(ringPriming + win.writes); health.Generation != want {
		r.problemf("round %d: generation %d after %d acknowledged writes, want %d", n, health.Generation, win.writes, want)
	}
	if rd.hitRate < r.s.hitMin || rd.hitRate > r.s.hitMax {
		r.problemf("round %d: cache hit share %.3f outside [%.2f, %.2f]", n, rd.hitRate, r.s.hitMin, r.s.hitMax)
	}
	minSearches, minWrites := int(minSearchesPerSecond*r.window.Seconds()), int(minWritesPerSecond*r.window.Seconds())
	if len(win.searchMS) < minSearches || len(win.mutateMS) < minWrites {
		r.problemf("round %d: %d searches and %d writes, below the %d/%d sample floor", n, len(win.searchMS), len(win.mutateMS), minSearches, minWrites)
	}

	if last && r.s.durable {
		ctl.close()
		if err := r.crashCheck(srv, dataDir, health.Generation, ringPriming+win.writes-1); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// crashCheck SIGKILLs the server, reboots kwsd on the same data directory
// and requires every acknowledged write to be there: the recovered
// generation is at least acked and the row of write batch lastWrite is
// readable. A process kill leaves the OS page cache intact, so this checks
// the WAL's ack ordering and replay, not the disk's honesty about fsync.
func (r *runner) crashCheck(srv *server, dataDir string, acked uint64, lastWrite int) error {
	srv.kill()
	again, err := boot(r.kwsd, r.s, dataDir)
	if err != nil {
		return fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	defer again.kill()
	c, err := dial(again.addr)
	if err != nil {
		return err
	}
	defer c.close()
	recovered, err := c.health()
	if err != nil {
		return err
	}
	if recovered.Generation < acked {
		r.problemf("recovered generation %d is behind the acknowledged %d", recovered.Generation, acked)
	}
	if err := ringRowReadable(c, lastWrite); err != nil {
		r.problemf("after recovery: %v", err)
	}
	return nil
}

// lagP99 is the generator lateness of an open-loop window (0 for closed).
func (rd *round) lagP99() float64 { return percentile(rd.win.lagMS, 0.99) }

// runRoundValid is runRound, re-running once a round whose open-loop
// generator ran late.
func (r *runner) runRoundValid(ctx context.Context, n int, last bool) (*round, error) {
	rd, err := r.runRound(ctx, n, last)
	if err != nil || rd.lagP99() <= maxLagP99MS {
		return rd, err
	}
	fmt.Fprintf(os.Stderr, "%s round %d void: generator lag p99 %.3f ms > %.1f ms, re-running once\n", r.s.name, n, rd.lagP99(), maxLagP99MS)
	rd, err = r.runRound(ctx, n, last)
	if err == nil && rd.lagP99() > maxLagP99MS {
		r.problemf("round %d: generator lag p99 %.3f ms > %.1f ms twice", n, rd.lagP99(), maxLagP99MS)
	}
	return rd, err
}
