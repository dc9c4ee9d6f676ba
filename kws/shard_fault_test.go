package kws

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/store"
)

// The sharded durability property: recovery from the per-shard stores must
// land on a consistent generation vector — the newest committed one —
// covering every acknowledged batch, with the composed state byte-identical
// to a fresh build over the mirror replayed to that point, no matter where a
// crash struck. The matrix below injects sticky faults into individual shard
// stores at every crash point and re-opens the layout cold.

// requireRecoveredEquivalent checks a recovered sharded engine against a
// fresh build over the mirror. Recovery composes the per-shard states
// canonically — tuples ascending by ID within each table — so the seed
// database's insertion order is not reconstructible from per-shard logs.
// That is by design: every rendered surface orders in the string space, not
// by table position. The relational comparison therefore treats each table
// as an ID-keyed set, while the graph adjacency, index postings and full
// search output — all string-space ordered — must still match the fresh
// build byte for byte.
func requireRecoveredEquivalent(t *testing.T, batch int, recovered *Engine, mirror *relation.Database) {
	t.Helper()
	fresh, err := New(&Database{db: mirror})
	if err != nil {
		t.Fatalf("batch %d: fresh build: %v", batch, err)
	}
	lc := recovered.current().comp
	fc := fresh.current().comp

	// Relational state as sets: same tuple IDs, same values, any order.
	for _, name := range mirror.TableNames() {
		lt, _ := lc.DB.Table(name)
		ft, _ := fc.DB.Table(name)
		if lt.Len() != ft.Len() {
			t.Fatalf("batch %d: table %s has %d tuples, mirror has %d", batch, name, lt.Len(), ft.Len())
		}
		if got, want := tupleSet(lt), tupleSet(ft); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: table %s tuple set diverged:\nrecovered: %v\nmirror:    %v", batch, name, got, want)
		}
	}

	// Graph adjacency and index postings render in the string space, so they
	// must be byte-identical regardless of the underlying insertion order.
	if lc.Graph.EdgeCount() != fc.Graph.EdgeCount() || lc.Graph.NodeCount() != fc.Graph.NodeCount() {
		t.Fatalf("batch %d: graph size %d nodes / %d edges, fresh %d / %d", batch,
			lc.Graph.NodeCount(), lc.Graph.EdgeCount(), fc.Graph.NodeCount(), fc.Graph.EdgeCount())
	}
	if got, want := graphDump(t, lc.Graph, lc.DB), graphDump(t, fc.Graph, fc.DB); !reflect.DeepEqual(got, want) {
		t.Fatalf("batch %d: graph adjacency diverged from fresh build", batch)
	}
	if lc.Index.DocCount() != fc.Index.DocCount() || lc.Index.TermCount() != fc.Index.TermCount() {
		t.Fatalf("batch %d: index size %d docs / %d terms, fresh %d / %d", batch,
			lc.Index.DocCount(), lc.Index.TermCount(), fc.Index.DocCount(), fc.Index.TermCount())
	}
	if got, want := lc.Index.Dump(), fc.Index.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batch %d: index postings diverged from fresh build", batch)
	}

	ctx := context.Background()
	for _, kws := range equivalenceQueries {
		q := Query{Keywords: kws, MaxJoins: 4}
		got, gotErr := recovered.Search(ctx, q)
		want, wantErr := fresh.Search(ctx, q)
		if !errTextEqual(gotErr, wantErr) {
			t.Fatalf("batch %d: query %v: err %q, fresh %q", batch, kws, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: query %v diverged from fresh build:\nrecovered: %v\nfresh:     %v",
				batch, kws, renders(got), renders(want))
		}
	}
}

// tupleSet renders a table as an ID-keyed set of tuple values.
func tupleSet(tb *relation.Table) map[relation.TupleID]string {
	out := make(map[relation.TupleID]string, tb.Len())
	for _, tup := range tb.Tuples() {
		out[tup.ID()] = tup.String()
	}
	return out
}

func openShardStores(t *testing.T, dir string, n int) *ShardStores {
	t.Helper()
	s, err := OpenShardedStore(dir, n)
	if err != nil {
		t.Fatalf("OpenShardedStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestShardedRecoverRoundTrip(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	ss := openShardStores(t, dir, shards)
	live, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss), WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bm := newBatchMaker(7)
	for b := 0; b < 6; b++ {
		if _, err := live.Apply(ctx, bm.next(t)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		// The durable sharded engine keeps the equivalence property after
		// every batch, not just at the end.
		requireEngineEquivalent(t, b, live, bm.rebuilt(t, live.Generation()))
	}
	acked := live.Generation()
	vector := live.GenerationVector()
	ss.Close()

	// Restart: fresh handles over the same directory, fresh seed database.
	ss2 := openShardStores(t, dir, shards)
	recovered, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss2))
	if err != nil {
		t.Fatalf("recovering New: %v", err)
	}
	if recovered.Generation() != acked {
		t.Fatalf("recovered generation %d, want %d", recovered.Generation(), acked)
	}
	if got := recovered.GenerationVector(); !reflect.DeepEqual(got, vector) {
		t.Fatalf("recovered vector %v, want %v", got, vector)
	}
	requireRecoveredEquivalent(t, int(acked), recovered, bm.rebuilt(t, acked))

	// The recovered engine is fully live: the next batch continues the same
	// logs and keeps every property.
	if _, err := recovered.Apply(ctx, bm.next(t)); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	requireRecoveredEquivalent(t, int(acked)+1, recovered, bm.rebuilt(t, acked+1))
}

// TestShardedWithShardsCountMismatch pins the constructor contracts: a store
// layout opened with one count cannot serve another, and WithShards must
// agree with the layout when both are given.
func TestShardedWithShardsCountMismatch(t *testing.T) {
	dir := t.TempDir()
	ss := openShardStores(t, dir, 3)
	if _, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss), WithShards(4)); err == nil {
		t.Fatal("New accepted WithShards(4) over a 3-shard layout")
	}
	ss.Close()
	if _, err := OpenShardedStore(dir, 5); err == nil {
		t.Fatal("OpenShardedStore reopened a 3-shard layout as 5 shards")
	}
}

func TestShardedStoreExcludesWithStore(t *testing.T) {
	fs := openStore(t, t.TempDir())
	if _, err := New(&Database{db: paperdb.MustLoad()}, WithStore(fs), WithShards(2)); err == nil {
		t.Fatal("New accepted WithStore combined with WithShards")
	}
}

// TestShardedFaultMatrix wraps every shard store in a sticky FaultStore and
// crashes the shard-WAL append at each point, on each shard of a 3-shard
// engine. The faulted Apply must fail with ErrPersistence and publish
// nothing; cold recovery over the same directory must land exactly on the
// acknowledged generation with a consistent vector — in particular the
// post-append case, where a shard record IS durable but the vector commit
// never happened, so recovery must truncate it away (unlike the unsharded
// engine, where a durable record legally recovers one generation ahead).
func TestShardedFaultMatrix(t *testing.T) {
	const shards = 3
	points := []struct {
		name  string
		point store.CrashPoint
		torn  int
	}{
		{"pre-append", store.CrashPreAppend, 0},
		{"torn-append-empty", store.CrashTornAppend, 0},
		{"torn-append-header", store.CrashTornAppend, 5},
		{"torn-append-payload", store.CrashTornAppend, 12},
		{"post-append", store.CrashPostAppend, 0},
	}
	for _, tc := range points {
		for target := 0; target < shards; target++ {
			t.Run(fmt.Sprintf("%s/shard-%d", tc.name, target), func(t *testing.T) {
				dir := t.TempDir()
				ss := openShardStores(t, dir, shards)
				// Wrap every shard store so the fault fires no matter which
				// shard the faulted batch happens to touch; arm only the
				// target. Sticky: once fired, the store stays dead, like a
				// crashed disk, so no later write can smooth it over.
				faults := make([]*store.FaultStore, shards)
				for s := 0; s < shards; s++ {
					faults[s] = store.NewFaultStore(ss.Shard(s).(*store.FileStore))
					faults[s].Sticky = true
					ss.ReplaceShard(s, faults[s])
				}
				live, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss), WithSnapshotEvery(-1))
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				bm := newBatchMaker(23)
				for b := 0; b < 2; b++ {
					if _, err := live.Apply(ctx, bm.next(t)); err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
				}
				acked := live.Generation()
				vector := live.GenerationVector()

				// Fault the target shard and submit batches until one
				// touches it (the partitioner decides; batches missing the
				// target legitimately succeed and advance the engine).
				faults[target].Point, faults[target].TornBytes = tc.point, tc.torn
				faulted := false
				for b := 0; b < 16; b++ {
					gen, err := live.Apply(ctx, bm.next(t))
					if err != nil {
						if !errors.Is(err, ErrPersistence) {
							t.Fatalf("faulted Apply = %v, want ErrPersistence", err)
						}
						faulted = true
						break
					}
					acked, vector = gen, live.GenerationVector()
				}
				if !faulted {
					t.Fatalf("no batch touched shard %d in 16 tries", target)
				}
				if live.Generation() != acked {
					t.Fatalf("generation after faulted Apply = %d, want %d", live.Generation(), acked)
				}
				ss.Close()

				ss2 := openShardStores(t, dir, shards)
				recovered, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss2))
				if err != nil {
					t.Fatalf("recovering New: %v", err)
				}
				if recovered.Generation() != acked {
					t.Fatalf("recovered generation %d, want %d", recovered.Generation(), acked)
				}
				if got := recovered.GenerationVector(); !reflect.DeepEqual(got, vector) {
					t.Fatalf("recovered vector %v, want %v", got, vector)
				}
				requireRecoveredEquivalent(t, int(acked), recovered, bm.rebuilt(t, acked))
			})
		}
	}
}

// TestShardedCheckpointTruncatesAndRecovers checkpoints every shard and
// verifies the vector log compacts, the shard WALs truncate, and cold
// recovery replays nothing.
func TestShardedCheckpointTruncatesAndRecovers(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	ss := openShardStores(t, dir, shards)
	live, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss), WithSnapshotEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bm := newBatchMaker(53)
	for b := 0; b < 4; b++ {
		if _, err := live.Apply(ctx, bm.next(t)); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ps, ok := live.PersistStats()
	if !ok {
		t.Fatal("PersistStats not ok on a durable sharded engine")
	}
	if ps.WALRecords != 0 {
		t.Fatalf("after Checkpoint: %d WAL records across shards, want 0", ps.WALRecords)
	}
	stats, ok := live.ShardStats()
	if !ok || len(stats) != shards {
		t.Fatalf("ShardStats = %v, %v; want %d shards", stats, ok, shards)
	}
	vector := live.GenerationVector()
	for s, st := range stats {
		if st.SnapshotGeneration != vector[s] {
			t.Fatalf("shard %d snapshot at generation %d, vector says %d", s, st.SnapshotGeneration, vector[s])
		}
	}
	acked := live.Generation()
	ss.Close()

	ss2 := openShardStores(t, dir, shards)
	recovered, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss2))
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Generation() != acked {
		t.Fatalf("recovered generation %d, want %d", recovered.Generation(), acked)
	}
	if got := recovered.GenerationVector(); !reflect.DeepEqual(got, vector) {
		t.Fatalf("recovered vector %v, want %v", got, vector)
	}
	requireRecoveredEquivalent(t, int(acked), recovered, bm.rebuilt(t, acked))
}

// TestShardedSnapshotErrorDoesNotFailApply mirrors the unsharded property:
// an automatic per-shard checkpoint failure is counted, never surfaced.
func TestShardedSnapshotErrorDoesNotFailApply(t *testing.T) {
	const shards = 2
	ss := openShardStores(t, t.TempDir(), shards)
	faults := make([]*store.FaultStore, shards)
	for s := 0; s < shards; s++ {
		faults[s] = store.NewFaultStore(ss.Shard(s).(*store.FileStore))
		ss.ReplaceShard(s, faults[s])
	}
	live, err := New(&Database{db: paperdb.MustLoad()}, WithShardStores(ss), WithSnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	bm := newBatchMaker(41)
	for s := range faults {
		faults[s].Point = store.CrashMidSnapshot
	}
	gen, err := live.Apply(context.Background(), bm.next(t))
	if err != nil || gen != 1 {
		t.Fatalf("Apply = %d, %v; want generation 1 despite snapshot fault", gen, err)
	}
	ps, _ := live.PersistStats()
	if ps.SnapshotErrors != 1 {
		t.Fatalf("SnapshotErrors = %d, want 1", ps.SnapshotErrors)
	}
}
