package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Part is one shard's immutable state: its database partition, the tuple
// graph and inverted index over exactly that partition, and the shard's own
// generation counter (the number of batches that changed this shard since
// the seed).
type Part struct {
	DB    *relation.Database
	Graph *datagraph.Graph
	Index *index.Index
	Gen   uint64
}

// States is one cross-shard generation: the global generation number and
// every shard's Part. A States value is immutable — Next returns a new value
// sharing the untouched Parts.
type States struct {
	// Gen is the global generation: the number of applied batches.
	Gen uint64
	// Parts holds each shard's state, indexed by shard.
	Parts []*Part
}

// Next returns the successor cut: global generation gen, the prepared parts
// replacing their shards, every other shard's Part shared.
func (s *States) Next(gen uint64, prepared map[int]*Part) *States {
	parts := make([]*Part, len(s.Parts))
	copy(parts, s.Parts)
	for i, p := range prepared {
		parts[i] = p
	}
	return &States{Gen: gen, Parts: parts}
}

// Delta is one shard's slice of a batch's net tuple changes, both lists in
// ascending TupleID order (the order the staging layer produces).
type Delta struct {
	Removed []*relation.Tuple
	Added   []*relation.Tuple
}

// empty reports a delta with no net effect on the shard.
func (d Delta) empty() bool { return len(d.Removed) == 0 && len(d.Added) == 0 }

// Group builds and advances the shard states of one partitioner. It is
// memory-only and safe for concurrent use: it holds nothing but the
// partitioner.
type Group struct {
	part Partitioner
}

// NewGroup builds a group over the partitioner. The second parameter and the
// error result only keep the benchmark's call shape: the parameter is
// ignored and the error is always nil.
func NewGroup(p Partitioner, _ any) (*Group, error) {
	return &Group{part: p}, nil
}

// Split partitions a batch's net tuple delta by owner shard. Both input
// lists are in ascending TupleID order and filtering preserves it, so every
// shard's Delta is deterministic.
func (g *Group) Split(removed, added []*relation.Tuple) map[int]Delta {
	out := make(map[int]Delta)
	for _, tup := range removed {
		s := g.part.Owner(tup.ID())
		d := out[s]
		d.Removed = append(d.Removed, tup)
		out[s] = d
	}
	for _, tup := range added {
		s := g.part.Owner(tup.ID())
		d := out[s]
		d.Added = append(d.Added, tup)
		out[s] = d
	}
	return out
}

// Prepare builds the next Part of every shard the deltas touch, one shard
// per goroutine: clone-and-apply the partition database and incrementally
// maintain the shard's graph and index. states is never modified; on any
// failure Prepare returns the first failing shard's error and nothing else.
func (g *Group) Prepare(states *States, deltas map[int]Delta) (map[int]*Part, error) {
	shards := make([]int, 0, len(deltas))
	for s, d := range deltas {
		if !d.empty() {
			shards = append(shards, s)
		}
	}
	sort.Ints(shards)
	parts := make([]*Part, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			parts[i], errs[i] = nextPart(states.Parts[s], deltas[s])
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	prepared := make(map[int]*Part, len(shards))
	for i, s := range shards {
		prepared[s] = parts[i]
	}
	return prepared, nil
}

// nextPart applies one shard's delta to its Part: removals first, then
// additions, both in the staged (TupleID-sorted) order, cloning each touched
// table once — the same copy-on-write discipline as the kws staging layer.
// The graph and index are maintained incrementally against the new partition
// database; a foreign key whose target lives in another shard simply
// dangles, exactly as in a fresh build of the partition.
func nextPart(prev *Part, d Delta) (*Part, error) {
	db := prev.DB.Clone()
	cloned := make(map[string]bool)
	tableFor := func(name string) (*relation.Table, error) {
		t, ok := db.Table(name)
		if !ok {
			return nil, fmt.Errorf("shard: unknown table %s", name)
		}
		if !cloned[name] {
			t = t.Clone()
			if err := db.SetTable(t); err != nil {
				return nil, err
			}
			cloned[name] = true
		}
		return t, nil
	}
	for _, tup := range d.Removed {
		t, err := tableFor(tup.ID().Relation)
		if err != nil {
			return nil, err
		}
		if _, ok := t.Delete(tup.ID().Key); !ok {
			return nil, fmt.Errorf("shard: tuple %s not in its partition", tup.ID())
		}
	}
	for _, tup := range d.Added {
		t, err := tableFor(tup.ID().Relation)
		if err != nil {
			return nil, err
		}
		if _, err := t.InsertRow(tup.Values()...); err != nil {
			return nil, fmt.Errorf("shard: %s: %w", tup.ID(), err)
		}
	}
	return &Part{
		DB:    db,
		Graph: prev.Graph.ApplyDelta(db, d.Removed, d.Added),
		Index: prev.Index.Apply(db, d.Removed, d.Added),
		Gen:   prev.Gen + 1,
	}, nil
}

// Fresh builds the group's initial States from a seed database: split the
// seed by the partitioner and build each shard's graph and index, one shard
// per goroutine (parallelism 1 builds sequentially). Every generation is 0.
func (g *Group) Fresh(seed *relation.Database, parallelism int) (*States, error) {
	dbs, err := SplitDatabase(seed, g.part)
	if err != nil {
		return nil, err
	}
	states := &States{Parts: make([]*Part, len(dbs))}
	build := func(s int) {
		tuples := symtab.ForDatabase(dbs[s])
		states.Parts[s] = &Part{
			DB:    dbs[s],
			Graph: datagraph.BuildParallelWith(dbs[s], tuples, 1),
			Index: index.BuildParallelWith(dbs[s], tuples, 1),
		}
	}
	if parallelism == 1 {
		for s := range dbs {
			build(s)
		}
		return states, nil
	}
	var wg sync.WaitGroup
	for s := range dbs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			build(s)
		}(s)
	}
	wg.Wait()
	return states, nil
}
