package main

import (
	"fmt"
	"math/rand"

	"repro/internal/httpapi"
	"repro/internal/workload"
	"repro/kws"
)

// Every request carries the same budgets; everything else is kwsd's default.
const (
	maxJoins = 3
	topK     = 10
	// datasetSeed is the only seed kwsd ever sees: the datasets and query
	// pools are pinned by inputs.lock, and --seed drives the op sequence.
	datasetSeed = 1
)

// spec is one workload: which kwsd it boots and what traffic it offers.
type spec struct {
	name string
	why  string

	db      string // kwsd -db
	scale   int    // kwsd -scale
	durable bool   // kwsd -data-dir <tmp>: WAL fsync per write, snapshot every 64

	poolSize int      // queries kept from the filtered pool (0 = all)
	zipf     float64  // Zipf exponent over the pool; 0 draws uniformly
	noCache  bool     // reads bypass kws.Cache
	engines  []string // per-op engine rotation; nil leaves kwsd's default

	// openRate > 0 makes the workload an open loop: a read is due every
	// 1/openRate seconds regardless of completions, next to one closed-loop
	// background reader. Otherwise two connections run a closed loop.
	// Either way a write is due every 1/writeRate seconds.
	openRate  float64
	writeRate float64

	warmReads int // reads of the set-up warm-up, after the ring-priming writes

	// The cache hit share of the measured window must stay inside
	// [hitMin, hitMax]: a generation-keyed cache is emptied by every write,
	// and a workload sitting near one half flips between two latency modes.
	hitMin, hitMax float64
}

// Sizes come from measurements on the 2-core sandbox (see README.md): at the
// host's usual speed every round has 225 or more writes and 1100 or more
// searches in a 9 s window.
var specs = []spec{
	{
		name: "hot-read",
		why:  "Zipf over 64 cached queries, 2 closed-loop conns, 25 writes/s: HTTP edge and kws.Cache dominate, p95 is the post-invalidation miss",
		db:   "synthetic", scale: 8,
		poolSize: 64, zipf: 2.0,
		writeRate: 25, warmReads: 12000,
		hitMin: 0.70, hitMax: 1,
	},
	{
		name: "cold-search",
		why:  "uniform over ~180 uncached queries rotating paths:paths:mtjnt:banks, 25 writes/s: engines, index, graph, core and ranking do the work, cache and store none",
		db:   "synthetic", scale: 24,
		noCache: true, engines: []string{"paths", "paths", "mtjnt", "banks"},
		writeRate: 25, warmReads: 200,
		hitMin: 0, hitMax: 0,
	},
	{
		name: "live-mixed",
		why:  "durable docs store, uniform over 256 cached queries, 100 writes/s: every write publishes a generation, so Apply, graph/index deltas, WAL fsync and snapshots are on the clock",
		db:   "docs", scale: 4, durable: true,
		poolSize:  256,
		writeRate: 100, warmReads: 300,
		hitMin: 0, hitMax: 0.25,
	},
	{
		name: "open-paths",
		why:  "open loop, 125 reads/s + 25 writes/s due on a schedule beside one closed-loop reader, paths engine, latency from the due time: what independent users feel on a busy server",
		db:   "synthetic", scale: 12,
		noCache: true, engines: []string{"paths"},
		openRate: 125, writeRate: 25, warmReads: 400,
		hitMin: 0, hitMax: 0,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// datasetKey names the workload's dataset in inputs.lock.
func (s spec) datasetKey() string { return fmt.Sprintf("%s-%d", s.db, s.scale) }

// kwsdArgs are the dataset flags kwsd boots with; the in-process twin builds
// the same database through database().
func (s spec) kwsdArgs() []string {
	return []string{"-db", s.db, "-scale", fmt.Sprint(s.scale), "-seed", fmt.Sprint(datasetSeed)}
}

// database builds the workload's dataset exactly as kwsd does.
func (s spec) database() *kws.Database {
	if s.db == "docs" {
		return kws.SyntheticDocs(s.scale, datasetSeed)
	}
	return kws.SyntheticCompany(s.scale, datasetSeed)
}

// candidateQueries lists the generator's distinct queries in a fixed order,
// before filtering: every surname x topic pair for the company schema, the
// distinct prefix of workload.DocQueries for the document schema.
func (s spec) candidateQueries() [][]string {
	var out [][]string
	if s.db == "docs" {
		seen := make(map[string]bool)
		for _, q := range workload.DocQueries(4096, datasetSeed) {
			key := q.Keywords[0] + "\x00" + q.Keywords[1]
			if q.Keywords[0] == q.Keywords[1] || seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, q.Keywords)
		}
		return out
	}
	for _, surname := range workload.Surnames() {
		for _, topic := range workload.Topics() {
			out = append(out, []string{surname, topic})
		}
	}
	return out
}

// queryPool filters the candidates down to queries whose every keyword
// matches at least one tuple of the seed data (kwsd answers a keyword with
// no match with a 400, and no operation of a workload may fail), and keeps
// the first poolSize.
func (s spec) queryPool(twin *kws.Engine) [][]string {
	var pool [][]string
	for _, keywords := range s.candidateQueries() {
		matched := true
		for _, kw := range keywords {
			if len(twin.Match(kw)) == 0 {
				matched = false
			}
		}
		if matched {
			pool = append(pool, keywords)
		}
		if s.poolSize > 0 && len(pool) == s.poolSize {
			break
		}
	}
	return pool
}

// wireQuery is the /v1/search query for pool entry keywords under the
// engine rotation slot.
func (s spec) wireQuery(keywords []string, slot int) httpapi.QueryRequest {
	q := httpapi.QueryRequest{Keywords: keywords, MaxJoins: maxJoins, TopK: topK, NoCache: s.noCache}
	if len(s.engines) > 0 {
		q.Engine = s.engines[slot%len(s.engines)]
	}
	return q
}

// slots is the length of the engine rotation (1 when kwsd's default serves).
func (s spec) slots() int {
	if len(s.engines) == 0 {
		return 1
	}
	return len(s.engines)
}

// readSequence draws n pool indices from the round's seed: Zipf ranks map
// onto the pool in its fixed order, so the seed changes which reads arrive
// when, never which queries are hot.
func (s spec) readSequence(seed int64, poolLen, n int) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]uint16, n)
	if s.zipf > 0 {
		z := rand.NewZipf(rng, s.zipf, 1, uint64(poolLen-1))
		for i := range seq {
			seq[i] = uint16(z.Uint64())
		}
		return seq
	}
	for i := range seq {
		seq[i] = uint16(rng.Intn(poolLen))
	}
	return seq
}

// The write ring. Batch i inserts key i, rewrites the text of key i-32 and
// deletes key i-64, all modulo 128: every batch has a non-empty net delta
// (internal/bench's churn batch inserts and deletes one row, which the
// stager cancels to nothing), 64 ring rows are live at steady state, and a
// key is not reused until 64 batches after its delete. The three keys of
// neighbouring batches are disjoint, so the two connections may race two
// consecutive batches in either order and reach the same state.
const (
	ringKeys    = 128
	ringUpdate  = 32
	ringDelete  = 64
	ringPriming = ringDelete // batches before the ring is at steady state
)

// ring renders write batches for one dataset; vocab feeds the text columns
// so the index delta touches posting lists the queries read.
type ring struct {
	docs  bool
	fanIn int // parents (departments or collections) the ring rows spread over
	vocab []string
}

func newRing(s spec, pool [][]string) ring {
	r := ring{docs: s.db == "docs", fanIn: 2 * s.scale}
	seen := make(map[string]bool)
	for _, q := range pool {
		for _, kw := range q {
			if !seen[kw] {
				seen[kw] = true
				r.vocab = append(r.vocab, kw)
			}
		}
	}
	return r
}

func mod(i, n int) int { return ((i % n) + n) % n }

func (r ring) word(i int) string { return r.vocab[mod(i, len(r.vocab))] }

// keyColumn is the primary-key column of the ring's table.
func (r ring) keyColumn() string {
	if r.docs {
		return "ID"
	}
	return "SSN"
}

func (r ring) key(i int) map[string]any {
	return map[string]any{r.keyColumn(): fmt.Sprintf("ring-%d", mod(i, ringKeys))}
}

// batch returns the ops of write i. The first ringPriming batches leave out
// the ops whose target does not exist yet.
func (r ring) batch(i int) []httpapi.Op {
	parent := 1 + mod(i, r.fanIn)
	var ops []httpapi.Op
	if r.docs {
		row := r.key(i)
		row["COLLECTION_ID"] = fmt.Sprintf("c%d", parent)
		row["TITLE"] = r.word(i) + " ring report"
		row["SUMMARY"] = "Covers the " + r.word(i+1) + " of ring records."
		ops = append(ops, httpapi.Op{Op: "insert", Table: "DOCUMENT", Row: row})
		if i >= ringUpdate {
			ops = append(ops, httpapi.Op{Op: "update", Table: "DOCUMENT", Key: r.key(i - ringUpdate),
				Set: map[string]any{"SUMMARY": "Revised for " + r.word(i+2) + " records."}})
		}
		if i >= ringDelete {
			ops = append(ops, httpapi.Op{Op: "delete", Table: "DOCUMENT", Key: r.key(i - ringDelete)})
		}
		return ops
	}
	row := r.key(i)
	row["L_NAME"] = r.word(i)
	row["S_NAME"] = r.word(i + 1)
	row["D_ID"] = fmt.Sprintf("d%d", parent)
	ops = append(ops, httpapi.Op{Op: "insert", Table: "EMPLOYEE", Row: row})
	if i >= ringUpdate {
		ops = append(ops, httpapi.Op{Op: "update", Table: "EMPLOYEE", Key: r.key(i - ringUpdate),
			Set: map[string]any{"S_NAME": r.word(i + 2)}})
	}
	if i >= ringDelete {
		ops = append(ops, httpapi.Op{Op: "delete", Table: "EMPLOYEE", Key: r.key(i - ringDelete)})
	}
	return ops
}

// mutation converts a wire batch for the in-process twin.
func mutation(ops []httpapi.Op) (kws.Mutation, error) {
	m := kws.Mutation{Ops: make([]kws.Op, len(ops))}
	for i, o := range ops {
		op, err := o.ToOp()
		if err != nil {
			return kws.Mutation{}, err
		}
		m.Ops[i] = op
	}
	return m, nil
}
