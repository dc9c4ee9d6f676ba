package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

// plan is everything one round sends, rendered before the server boots.
type plan struct {
	s      spec
	reads  [][][]byte // [engine slot][pool index] -> request bytes
	seq    []uint16   // pool index of the k-th read
	warm   []uint16   // pool indices of the warm-up reads
	writes [][]byte   // write batch i -> request bytes, priming included
	window time.Duration

	nextRead, nextWrite atomic.Int64 // op counters of the running window
}

// newPlan renders the round's requests from its seed. The write list is
// sized for twice the scheduled rate; a window can never ask for more.
func newPlan(s spec, pool [][]string, r ring, seed int64, window time.Duration) (*plan, error) {
	p := &plan{s: s, window: window}
	p.reads = make([][][]byte, s.slots())
	for slot := range p.reads {
		p.reads[slot] = make([][]byte, len(pool))
		for i, keywords := range pool {
			q := s.wireQuery(keywords, slot)
			req, err := request("/v1/search", httpapi.SearchRequest{Query: &q})
			if err != nil {
				return nil, err
			}
			p.reads[slot][i] = req
		}
	}
	p.seq = s.readSequence(seed, len(pool), 1<<17)
	p.warm = s.readSequence(seed^0x5eed, len(pool), s.warmReads)
	n := ringPriming + 2*int(s.writeRate*window.Seconds()) + 16
	p.writes = make([][]byte, n)
	for i := range p.writes {
		req, err := request("/v1/mutate", httpapi.MutateRequest{Ops: r.batch(i)})
		if err != nil {
			return nil, err
		}
		p.writes[i] = req
	}
	return p, nil
}

// read returns the request of the k-th read of the window.
func (p *plan) read(k int) []byte {
	return p.reads[k%len(p.reads)][p.seq[k%len(p.seq)]]
}

// samples is what one connection recorded; each goroutine owns one, so the
// measured path takes no lock.
type samples struct {
	searchMS   []float64
	mutateMS   []float64
	lagMS      []float64
	background int // completed background reads: counted, not timed
	failed     int
	err        error // a broken connection ends the goroutine's loop
}

func newSamples() *samples {
	return &samples{
		searchMS: make([]float64, 0, 1<<16),
		mutateMS: make([]float64, 0, 1<<11),
		lagMS:    make([]float64, 0, 1<<12),
	}
}

// window is the merged outcome of one measured window.
type window struct {
	searchMS   []float64
	mutateMS   []float64
	lagMS      []float64
	writes     int // acknowledged
	background int // completed background reads of an open loop
	failed     int
	elapsed    time.Duration
	cpuPct     float64 // generator CPU over the window, 100 = one core
}

// completed counts the successful operations of the window.
func (w *window) completed() int { return len(w.searchMS) + len(w.mutateMS) + w.background }

func (w *window) attempted() int { return w.completed() + w.failed }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// exchange sends one request; on a 200 it returns the latency measured from
// since, in milliseconds.
func (sm *samples) exchange(c *conn, req []byte, since time.Time) (float64, bool) {
	status, err := c.do(req, nil)
	if err != nil {
		sm.err = err
		sm.failed++
		return 0, false
	}
	if status != http.StatusOK {
		sm.failed++ // a 429 shed or any other non-2xx misses every limit
		return 0, false
	}
	return ms(time.Since(since)), true
}

// search and mutate file the latency of a read and of a write.
func (sm *samples) search(c *conn, req []byte, since time.Time) {
	if d, ok := sm.exchange(c, req, since); ok {
		sm.searchMS = append(sm.searchMS, d)
	}
}

func (sm *samples) mutate(c *conn, req []byte, since time.Time) {
	if d, ok := sm.exchange(c, req, since); ok {
		sm.mutateMS = append(sm.mutateMS, d)
	}
}

// measure runs the plan's window against addr and merges what the
// connections recorded: two connections in a closed loop; in an open loop
// two for the scheduled reads, one for the scheduled writes and one for the
// background reader.
func (p *plan) measure(addr string) (*window, error) {
	loops := []func(*conn, *samples, time.Time, time.Time){p.closedLoop, p.closedLoop}
	if p.s.openRate > 0 {
		loops = []func(*conn, *samples, time.Time, time.Time){p.openReads, p.openReads, p.openWrites, p.background}
	}
	conns := make([]*conn, len(loops))
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	var cpu0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu0) // cannot fail for RUSAGE_SELF
	var (
		wg     sync.WaitGroup
		result = make([]*samples, len(loops))
		start  = time.Now()
		end    = start.Add(p.window)
	)
	// Shared op counters: whichever connection is free takes the next op.
	p.nextRead.Store(0)
	p.nextWrite.Store(0)
	for i, loop := range loops {
		result[i] = newSamples()
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(conns[i], result[i], start, end)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var cpu1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &cpu1)

	w := &window{elapsed: elapsed}
	for _, sm := range result {
		if sm.err != nil {
			return nil, fmt.Errorf("connection failed mid-window: %w", sm.err)
		}
		w.searchMS = append(w.searchMS, sm.searchMS...)
		w.mutateMS = append(w.mutateMS, sm.mutateMS...)
		w.lagMS = append(w.lagMS, sm.lagMS...)
		w.background += sm.background
		w.failed += sm.failed
	}
	w.writes = len(w.mutateMS)
	busy := time.Duration(cpu1.Utime.Nano()+cpu1.Stime.Nano()) - time.Duration(cpu0.Utime.Nano()+cpu0.Stime.Nano())
	w.cpuPct = 100 * float64(busy) / float64(elapsed)
	return w, nil
}

// writeDue is when write j of the window falls due: writes are paced by the
// clock, not by a share of ops, so a faster read path does not raise the
// write rate.
func (p *plan) writeDue(start time.Time, j int64) time.Time {
	interval := time.Duration(float64(time.Second) / p.s.writeRate)
	return start.Add(time.Duration(j)*interval + interval/2)
}

// closedLoop sends the next request as soon as the previous one completes.
// A write that has fallen due goes to whichever connection is free first.
func (p *plan) closedLoop(c *conn, sm *samples, start, end time.Time) {
	for sm.err == nil {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		j := p.nextWrite.Load()
		if !now.Before(p.writeDue(start, j)) && p.nextWrite.CompareAndSwap(j, j+1) {
			sm.mutate(c, p.writes[ringPriming+int(j)], now)
			continue
		}
		k := int(p.nextRead.Add(1) - 1)
		sm.search(c, p.read(k), now)
	}
}

// openReads sends read k when it falls due at k/openRate seconds whether or
// not earlier reads have completed (as far as two connections allow), and
// times it from the due time, so a stall is charged to every op it delays.
func (p *plan) openReads(c *conn, sm *samples, start, end time.Time) {
	interval := time.Duration(float64(time.Second) / p.s.openRate)
	for sm.err == nil {
		k := int(p.nextRead.Add(1) - 1)
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return
		}
		sm.waitFor(due)
		sm.search(c, p.read(k), due)
	}
}

// openWrites sends the open loop's writes on a connection of their own, so
// a write's latency is the server's and not its place in the client's queue
// behind two slow reads.
func (p *plan) openWrites(c *conn, sm *samples, start, end time.Time) {
	for j := int64(0); sm.err == nil; j++ {
		due := p.writeDue(start, j)
		if !due.Before(end) {
			return
		}
		sm.waitFor(due)
		sm.mutate(c, p.writes[ringPriming+int(j)], due)
	}
}

// background is the open loop's fourth connection: a closed loop of the
// same reads, from the far half of the sequence, that keeps the server busy.
// On an otherwise idle server every scheduled op first wakes the guest's
// halted CPUs, and what that costs swings with the host (the same code read
// a p50 of 3.9 to 5.3 ms and a p99 of 8.5 to 17 ms); next to a busy neighbour
// the scheduled ops measure kwsd's own scheduling and queueing. Background
// ops count as operations and in the throughput, which so reports the
// capacity left beside the fixed offered load; their latencies are not the
// workload's and are dropped.
func (p *plan) background(c *conn, sm *samples, _, end time.Time) {
	for k := len(p.seq) / 2; sm.err == nil && time.Now().Before(end); k++ {
		if _, ok := sm.exchange(c, p.read(k), time.Now()); ok {
			sm.background++
		}
	}
}

// waitFor waits until an op is due and records the generator's own
// lateness: how long after the op was due and this connection was free the
// caller is running again and about to send.
func (sm *samples) waitFor(due time.Time) {
	ready := time.Now()
	if ready.Before(due) {
		waitUntil(due)
		ready = due
	}
	sm.lagMS = append(sm.lagMS, ms(time.Since(ready)))
}

// spinBefore is how much of a wait is spent yielding in a loop instead of
// asleep. A timer wake-up on the busy two-core host arrives 1.5 to 1.9 ms
// late at its 99th percentile; a goroutine that is already running when the
// op falls due is late by about 1.1 ms at worst.
const spinBefore = 1000 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
