package kws

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/symtab"
	"repro/internal/workload"
)

// The shard-determinism property: a sharded engine must be indistinguishable
// — byte for byte, across Search, Stream and SearchBatch, successes and
// failures alike — from the unsharded engine over the same data, at every
// shard count, after every mutation batch. These tests drive the same seeded
// mutation sequences as the rebuild-equivalence suite through an unsharded
// reference engine and a sharded engine per swept count, in lockstep, and
// additionally pin each shard's internal graph and index against a fresh
// build of that shard's partition of the mirror database.

// shardSweep is the shard counts the determinism suite sweeps: the collapse
// case, even and odd counts, a count exceeding some tables' tuple counts.
var shardSweep = []int{1, 2, 3, 4, 7}

func TestShardDeterminismPaperDB(t *testing.T) {
	batches := 10
	if testing.Short() {
		batches = 3
	}
	runShardDeterminism(t, paperdb.MustLoad, 1, batches)
}

func TestShardDeterminismWorkload(t *testing.T) {
	batches := 6
	if testing.Short() {
		batches = 2
	}
	gen := func() *relation.Database {
		db, err := workload.Generate(workload.ScaledConfig(2, 99))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	runShardDeterminism(t, gen, 2, batches)
}

// TestWithShardsOneCollapses pins the n<=1 contract: WithShards(1) builds a
// plain unsharded engine — no group, no vector, no per-shard stats.
func TestWithShardsOneCollapses(t *testing.T) {
	e, err := New(&Database{db: paperdb.MustLoad()}, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if e.group != nil {
		t.Fatal("WithShards(1) built a shard group")
	}
	if v := e.GenerationVector(); v != nil {
		t.Fatalf("GenerationVector() = %v, want nil", v)
	}
	if _, ok := e.ShardStats(); ok {
		t.Fatal("ShardStats() reported ok on an unsharded engine")
	}
}

func runShardDeterminism(t *testing.T, freshDB func() *relation.Database, seed int64, batches int) {
	ctx := context.Background()
	reference, err := New(&Database{db: freshDB()})
	if err != nil {
		t.Fatal(err)
	}
	engines := make(map[int]*Engine, len(shardSweep))
	for _, n := range shardSweep {
		e, err := New(&Database{db: freshDB()}, WithShards(n))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", n, err)
		}
		if n > 1 && e.group == nil {
			t.Fatalf("WithShards(%d) did not build a shard group", n)
		}
		engines[n] = e
	}
	mirror := freshDB()
	rng := rand.New(rand.NewSource(seed))
	counter := 0
	for b := 0; b < batches; b++ {
		nOps := 1 + rng.Intn(4)
		ops := make([]Op, 0, nOps)
		for i := 0; i < nOps; i++ {
			op, ok := randomOp(t, rng, mirror, &counter)
			if !ok {
				continue
			}
			replayOp(t, mirror, op)
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			continue
		}
		wantGen, err := reference.Apply(ctx, Mutation{Ops: ops})
		if err != nil {
			t.Fatalf("batch %d: reference Apply: %v", b, err)
		}
		for _, n := range shardSweep {
			gen, err := engines[n].Apply(ctx, Mutation{Ops: ops})
			if err != nil {
				t.Fatalf("batch %d: shards=%d: Apply: %v", b, n, err)
			}
			if gen != wantGen {
				t.Fatalf("batch %d: shards=%d: generation %d, reference %d", b, n, gen, wantGen)
			}
			requireShardedOutputEqual(t, b, n, reference, engines[n])
			requireShardStateMatchesMirror(t, b, n, engines[n], mirror)
		}
	}
}

// requireShardedOutputEqual byte-compares every read surface of the sharded
// engine against the unsharded reference: ranked Search output, unranked
// Stream order, the full SearchBatch result set, and the exact error text of
// failing queries.
func requireShardedOutputEqual(t *testing.T, batch, n int, reference, sharded *Engine) {
	t.Helper()
	ctx := context.Background()
	queries := make([]Query, 0, len(equivalenceQueries))
	for _, kws := range equivalenceQueries {
		queries = append(queries, Query{Keywords: kws, MaxJoins: 4})
	}
	for _, q := range queries {
		want, wantErr := reference.Search(ctx, q)
		got, gotErr := sharded.Search(ctx, q)
		if !errTextEqual(wantErr, gotErr) {
			t.Fatalf("batch %d shards=%d: Search(%v) error %q, reference %q",
				batch, n, q.Keywords, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d shards=%d: Search(%v) diverged:\nsharded:   %v\nreference: %v",
				batch, n, q.Keywords, renders(got), renders(want))
		}

		var wantStream, gotStream []Result
		wantErr = reference.Stream(ctx, q, func(r Result) bool { wantStream = append(wantStream, r); return true })
		gotErr = sharded.Stream(ctx, q, func(r Result) bool { gotStream = append(gotStream, r); return true })
		if !errTextEqual(wantErr, gotErr) {
			t.Fatalf("batch %d shards=%d: Stream(%v) error %q, reference %q",
				batch, n, q.Keywords, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(gotStream, wantStream) {
			t.Fatalf("batch %d shards=%d: Stream(%v) diverged", batch, n, q.Keywords)
		}
	}

	wantBatch := reference.SearchBatch(ctx, queries)
	gotBatch := sharded.SearchBatch(ctx, queries)
	if len(gotBatch) != len(wantBatch) {
		t.Fatalf("batch %d shards=%d: SearchBatch sizes %d vs %d", batch, n, len(gotBatch), len(wantBatch))
	}
	for i := range wantBatch {
		if !errTextEqual(wantBatch[i].Err, gotBatch[i].Err) {
			t.Fatalf("batch %d shards=%d: SearchBatch[%d] error %q, reference %q",
				batch, n, i, errText(gotBatch[i].Err), errText(wantBatch[i].Err))
		}
		if !reflect.DeepEqual(gotBatch[i].Results, wantBatch[i].Results) {
			t.Fatalf("batch %d shards=%d: SearchBatch[%d] results diverged", batch, n, i)
		}
	}
}

// requireShardStateMatchesMirror pins each shard's internal substrates: the
// shard's partition database, tuple graph and inverted index must equal a
// fresh build over the mirror database's corresponding partition — the
// per-shard analogue of the rebuild-equivalence property.
func requireShardStateMatchesMirror(t *testing.T, batch, n int, e *Engine, mirror *relation.Database) {
	t.Helper()
	snap := e.current()
	if n <= 1 {
		if snap.shards != nil {
			t.Fatalf("batch %d: shards=%d engine carries shard states", batch, n)
		}
		return
	}
	if snap.shards == nil {
		t.Fatalf("batch %d: shards=%d engine has no shard states", batch, n)
	}
	if got := len(snap.shards.Parts); got != n {
		t.Fatalf("batch %d: %d parts, want %d", batch, got, n)
	}
	refParts, err := shard.SplitDatabase(mirror, e.group.Partitioner())
	if err != nil {
		t.Fatalf("batch %d shards=%d: split mirror: %v", batch, n, err)
	}
	for s, part := range snap.shards.Parts {
		ref := refParts[s]
		if got, want := part.DB.Stats().Tuples, ref.Stats().Tuples; got != want {
			t.Fatalf("batch %d shards=%d: shard %d holds %d tuples, mirror partition %d", batch, n, s, got, want)
		}
		for _, name := range ref.TableNames() {
			lt, _ := part.DB.Table(name)
			rt, _ := ref.Table(name)
			if lt.Len() != rt.Len() {
				t.Fatalf("batch %d shards=%d: shard %d table %s has %d tuples, mirror %d",
					batch, n, s, name, lt.Len(), rt.Len())
			}
			for i, tup := range lt.Tuples() {
				want := rt.Tuples()[i]
				if tup.ID() != want.ID() || tup.String() != want.String() {
					t.Fatalf("batch %d shards=%d: shard %d table %s tuple %d: %v != %v",
						batch, n, s, name, i, tup, want)
				}
			}
		}
		tuples := symtab.ForDatabase(ref)
		refGraph := datagraph.BuildParallelWith(ref, tuples, 1)
		refIdx := index.BuildParallelWith(ref, tuples, 1)
		if got, want := graphDump(t, part.Graph, ref), graphDump(t, refGraph, ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d shards=%d: shard %d graph diverged from fresh partition build", batch, n, s)
		}
		if part.Index.DocCount() != refIdx.DocCount() || part.Index.TermCount() != refIdx.TermCount() {
			t.Fatalf("batch %d shards=%d: shard %d index %d docs / %d terms, fresh %d / %d", batch, n, s,
				part.Index.DocCount(), part.Index.TermCount(), refIdx.DocCount(), refIdx.TermCount())
		}
		if got, want := part.Index.Dump(), refIdx.Dump(); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d shards=%d: shard %d index postings diverged from fresh partition build", batch, n, s)
		}
	}
	// The vector is internally consistent: entry s is part s's generation.
	vec := e.GenerationVector()
	for s, part := range snap.shards.Parts {
		if vec[s] != part.Gen {
			t.Fatalf("batch %d shards=%d: vector[%d]=%d, part generation %d", batch, n, s, vec[s], part.Gen)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// errTextEqual compares failures byte for byte: the sharded engine must not
// only fail when the reference fails, it must fail with the identical text.
func errTextEqual(a, b error) bool { return errText(a) == errText(b) }
