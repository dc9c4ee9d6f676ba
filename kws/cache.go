package kws

import (
	"container/list"
	"context"
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// CacheOptions configures a Cache. The zero value picks sensible defaults
// (64 MiB across 16 shards).
type CacheOptions struct {
	// MaxBytes bounds the estimated memory held by cached result sets,
	// spread evenly across the shards. Once a shard exceeds its slice of the
	// budget it evicts least-recently-used entries until it fits again.
	// Zero or negative means the 64 MiB default.
	MaxBytes int64
	// Shards is the number of independently locked LRU segments; more
	// shards mean less contention between concurrent queries. Zero or
	// negative means the default of 16.
	Shards int
}

const (
	defaultCacheBytes  = 64 << 20
	defaultCacheShards = 16
)

// Cache serves Engine.Search results from a bounded, sharded LRU keyed by
// the normalized query AND the engine generation. The generation in the key
// is the whole invalidation story: Engine.Apply publishes a new generation,
// so every entry cached before the mutation simply stops being looked up —
// no scanning, no bookkeeping — and ages out of the LRU as fresh entries
// displace it.
//
// Concurrent identical misses are collapsed: one call computes the result
// while the others wait for it (singleflight), so a thundering herd on a
// popular query costs one search. Results handed out are deep copies;
// callers may mutate them freely.
//
// Queries are normalized before keying: unset options are resolved to the
// engine defaults, and options that cannot change the result bytes
// (Parallelism — the stack is deterministic at every setting) are dropped,
// so Query{Keywords: ...} and its fully spelled-out equivalent share one
// entry. Queries carrying a custom Labeler bypass the cache entirely (a
// function cannot be keyed); everything else is cacheable.
//
// A Cache is goroutine-safe. A hit is always byte-identical to what an
// uncached Engine.Search pinned to the same generation would return; the
// equivalence and race tests in this package enforce it.
type Cache struct {
	engine *Engine
	shards []*cacheShard
	seed   maphash.Seed

	hits      atomic.Int64
	misses    atomic.Int64
	collapses atomic.Int64
	evictions atomic.Int64
	bypasses  atomic.Int64
}

// CacheStats is a point-in-time snapshot of a Cache's counters and size.
type CacheStats struct {
	// Hits counts lookups answered from a stored entry.
	Hits int64
	// Misses counts lookups that ran the underlying search: the leader of
	// each collapsed group, plus followers that fell back to their own
	// search after a leader failure.
	Misses int64
	// Collapses counts lookups that waited on another call's in-flight
	// search and shared its result (singleflight followers). A follower is
	// counted here while it waits and reclassified as a miss if the leader
	// fails and it falls back to its own search.
	Collapses int64
	// Evictions counts entries dropped to keep shards under budget.
	Evictions int64
	// Bypasses counts uncacheable calls (custom Labeler, oversized result).
	Bypasses int64
	// Entries and Bytes are the current stored entry count and their
	// estimated memory; MaxBytes is the configured budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// HitRate returns the fraction of cacheable lookups served without running
// a search (hits plus collapsed waiters); zero before the first lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Collapses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Collapses) / float64(total)
}

// CacheInfo describes how one Cache.SearchInfo call was served.
type CacheInfo struct {
	// Hit reports that the call was answered from a stored entry.
	Hit bool
	// Collapsed reports that the call waited on a concurrent identical
	// search instead of running its own.
	Collapsed bool
	// Generation is the engine generation the returned results belong to —
	// the generation current when the call entered the cache.
	Generation uint64
}

// cacheShard is one independently locked LRU segment.
type cacheShard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      list.List // front = most recently used
	flights  map[string]*cacheFlight
	bytes    int64
	maxBytes int64
}

// cacheEntry is one stored result set; it lives in the shard's LRU list.
type cacheEntry struct {
	key     string
	results []Result
	bytes   int64
}

// cacheFlight is one in-progress computation other callers can wait on.
type cacheFlight struct {
	done    chan struct{}
	results []Result
	err     error
}

// NewCache wraps the engine with a result cache. The engine stays fully
// usable directly — mutations go through Engine.Apply as always, and the
// new generation they publish makes the cache's older entries unreachable.
func NewCache(e *Engine, opts CacheOptions) *Cache {
	if e == nil {
		panic("kws: NewCache requires an engine")
	}
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = defaultCacheShards
	}
	perShard := maxBytes / int64(shards)
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{
		engine: e,
		shards: make([]*cacheShard, shards),
		seed:   maphash.MakeSeed(),
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			entries:  make(map[string]*list.Element),
			flights:  make(map[string]*cacheFlight),
			maxBytes: perShard,
		}
	}
	return c
}

// Engine returns the engine the cache serves.
func (c *Cache) Engine() *Engine { return c.engine }

// Search answers the query like Engine.Search, serving repeated queries of
// the same generation from the cache. See SearchInfo for the serving
// details of a call.
func (c *Cache) Search(ctx context.Context, q Query) ([]Result, error) {
	results, _, err := c.SearchInfo(ctx, q)
	return results, err
}

// SearchUncached answers the query around the cache — nothing is looked up
// or stored, only the bypass counter moves — while still pinning one
// generation for the whole call and reporting it. It is the correct way to
// serve an explicitly uncached request next to cached ones.
func (c *Cache) SearchUncached(ctx context.Context, q Query) ([]Result, CacheInfo, error) {
	c.bypasses.Add(1)
	snap := c.engine.current()
	results, err := c.engine.searchOn(ctx, snap, q)
	return results, CacheInfo{Generation: snap.gen}, err
}

// SearchInfo is Search plus a report of how the call was served (hit,
// collapsed onto a concurrent search, and which generation answered).
func (c *Cache) SearchInfo(ctx context.Context, q Query) ([]Result, CacheInfo, error) {
	if q.Labeler != nil {
		// A custom labeler changes the result bytes and cannot be keyed.
		return c.SearchUncached(ctx, q)
	}
	rq, err := c.engine.resolve(q)
	if err != nil {
		return nil, CacheInfo{}, err
	}
	// Pin the generation once: the key carries it, and a miss computes on
	// exactly that snapshot, so a stored entry is the pinned generation's
	// output even when Apply publishes newer generations mid-search.
	snap := c.engine.current()
	info := CacheInfo{Generation: snap.gen}
	key := cacheKey(snap.gen, rq)
	shard := c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]

	shard.mu.Lock()
	if el, ok := shard.entries[key]; ok {
		shard.lru.MoveToFront(el)
		results := copyResults(el.Value.(*cacheEntry).results)
		shard.mu.Unlock()
		c.hits.Add(1)
		info.Hit = true
		return results, info, nil
	}
	if f, ok := shard.flights[key]; ok {
		shard.mu.Unlock()
		c.collapses.Add(1)
		info.Collapsed = true
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, info, ctx.Err()
		}
		if f.err != nil {
			// The leader failed (possibly on its own cancelled context);
			// fall back to an independent search on the same snapshot.
			// The call does real work after all, so reclassify it from
			// collapsed to miss — otherwise HitRate would count exactly
			// the slow-path calls an operator tunes the cache by.
			info.Collapsed = false
			c.collapses.Add(-1)
			c.misses.Add(1)
			results, err := c.engine.searchOn(ctx, snap, rq)
			return results, info, err
		}
		return copyResults(f.results), info, nil
	}
	f := &cacheFlight{done: make(chan struct{})}
	shard.flights[key] = f
	shard.mu.Unlock()

	c.misses.Add(1)
	f.results, f.err = c.engine.searchOn(ctx, snap, rq)

	shard.mu.Lock()
	delete(shard.flights, key)
	if f.err == nil {
		c.store(shard, key, f.results)
	}
	shard.mu.Unlock()
	close(f.done)

	if f.err != nil {
		return nil, info, f.err
	}
	return copyResults(f.results), info, nil
}

// store inserts a computed entry and evicts from the cold end until the
// shard fits its budget again. Results too large for the whole shard are
// not cached at all. Called with the shard lock held.
func (c *Cache) store(shard *cacheShard, key string, results []Result) {
	cost := int64(len(key)) + resultsBytes(results)
	if cost > shard.maxBytes {
		c.bypasses.Add(1)
		return
	}
	if el, ok := shard.entries[key]; ok {
		// A bypassing call or a racing leader of a neighbouring key class
		// cannot insert duplicates (flights serialize per key), but be
		// defensive: refresh the existing entry instead of double-counting.
		shard.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, results: results, bytes: cost}
	shard.entries[key] = shard.lru.PushFront(e)
	shard.bytes += cost
	for shard.bytes > shard.maxBytes {
		back := shard.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		shard.lru.Remove(back)
		delete(shard.entries, victim.key)
		shard.bytes -= victim.bytes
		c.evictions.Add(1)
	}
}

// Stats returns a snapshot of the cache counters and current size.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapses: c.collapses.Load(),
		Evictions: c.evictions.Load(),
		Bypasses:  c.bypasses.Load(),
	}
	for _, shard := range c.shards {
		shard.mu.Lock()
		st.Entries += len(shard.entries)
		st.Bytes += shard.bytes
		st.MaxBytes += shard.maxBytes
		shard.mu.Unlock()
	}
	return st
}

// cacheKey encodes the generation and every result-affecting field of a
// resolved query. Keywords keep their literal spelling and order — matched
// keyword lists echo the query strings verbatim, so "XML" and "xml" are
// different result sets even though they match the same tuples.
func cacheKey(gen uint64, q Query) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString("g")
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteString("|e")
	b.WriteString(string(q.Engine))
	b.WriteString("|r")
	b.WriteString(string(q.Ranking))
	b.WriteString("|j")
	b.WriteString(strconv.Itoa(q.MaxJoins))
	b.WriteString("|k")
	b.WriteString(strconv.Itoa(q.TopK))
	b.WriteString("|i")
	b.WriteString(strconv.Itoa(int(q.InstanceChecks)))
	b.WriteString("|l")
	b.WriteString(strconv.FormatFloat(q.LoosenessLambda, 'g', -1, 64))
	for _, kw := range q.Keywords {
		// Length-prefix each keyword so no join separator can be spoofed.
		fmt.Fprintf(&b, "|%d:%s", len(kw), kw)
	}
	return b.String()
}

// copyResults deep-copies a result set so cached storage is never aliased
// by callers.
func copyResults(results []Result) []Result {
	out := make([]Result, len(results))
	for i, r := range results {
		out[i] = r
		out[i].Tuples = append([]string(nil), r.Tuples...)
		if r.MatchedKeywords != nil {
			m := make(map[string][]string, len(r.MatchedKeywords))
			for k, v := range r.MatchedKeywords {
				m[k] = append([]string(nil), v...)
			}
			out[i].MatchedKeywords = m
		}
	}
	return out
}

// resultsBytes estimates the memory held by a result set; it drives the
// per-entry cost accounting of the LRU budget.
func resultsBytes(results []Result) int64 {
	const perResult = 160 // struct, slice and map headers
	total := int64(0)
	for _, r := range results {
		total += perResult
		total += int64(len(r.Connection) + len(r.ConnectionWithCardinalities) + len(r.Class))
		for _, t := range r.Tuples {
			total += int64(16 + len(t))
		}
		for k, v := range r.MatchedKeywords {
			total += int64(48 + len(k))
			for _, kw := range v {
				total += int64(16 + len(kw))
			}
		}
	}
	return total
}
