// Package shard is the fixture behind the benchmark's per-layer shard.*
// rows (benchmark/trace.go): it partitions a database into N shards by a
// deterministic tuple hash, keeps one graph and inverted index per
// partition, advances them by per-shard deltas, and matches a keyword across
// every partition's index. No product code uses it; it goes, together with
// those rows, in a later benchmark-defining change.
//
// A Partitioner assigns every tuple to one shard by hashing its TupleID
// (FNV-1a over relation and key). The assignment depends only on the
// identity and the shard count. Each shard holds every table of the catalog
// and exactly its own tuples; a foreign key whose target lives in another
// shard dangles and drops out of the shard's graph.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/relation"
)

// Partitioner deterministically assigns tuples to shards. The zero value is
// unusable; construct with NewPartitioner.
type Partitioner struct {
	n int
}

// NewPartitioner returns a partitioner over n shards; n < 1 is clamped to 1.
func NewPartitioner(n int) Partitioner {
	if n < 1 {
		n = 1
	}
	return Partitioner{n: n}
}

// Shards returns the shard count.
func (p Partitioner) Shards() int { return p.n }

// Owner returns the shard owning the tuple: FNV-1a over the relation name, a
// zero separator byte and the encoded key, modulo the shard count. The
// function is total and depends only on its inputs — the identical tuple maps
// to the identical shard in every engine and generation.
func (p Partitioner) Owner(id relation.TupleID) int {
	if p.n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(id.Relation))
	h.Write([]byte{0})
	h.Write([]byte(id.Key))
	return int(h.Sum64() % uint64(p.n))
}

// SplitDatabase partitions db: the result has one database per shard, each
// with every table of db's catalog and exactly the tuples the partitioner
// assigns to it, inserted in db's own table and tuple order (so two splits
// of equal databases are equal). The input is not modified.
func SplitDatabase(db *relation.Database, p Partitioner) ([]*relation.Database, error) {
	parts := make([]*relation.Database, p.Shards())
	for i := range parts {
		parts[i] = relation.NewDatabase(fmt.Sprintf("%s-shard-%d", dbName(db), i))
		for _, schema := range db.Schemas() {
			if _, err := parts[i].CreateTable(schema); err != nil {
				return nil, fmt.Errorf("shard: split: %w", err)
			}
		}
	}
	for _, t := range db.Tables() {
		for _, tup := range t.Tuples() {
			part := parts[p.Owner(tup.ID())]
			pt, _ := part.Table(t.Name())
			if _, err := pt.InsertRow(tup.Values()...); err != nil {
				return nil, fmt.Errorf("shard: split %s: %w", tup.ID(), err)
			}
		}
	}
	return parts, nil
}

// ComposeDatabase is the inverse of SplitDatabase: it merges the shard
// partitions back into one database holding every tuple. Tuples are inserted
// per table in ascending key order — a canonical order independent of which
// shard holds which tuple and of each shard's internal history — so any two
// compositions of state-equal groups are equal, and (because every rendered
// view of graph, index and search output is defined by string-space
// comparators, not insertion order) the composition is search-equivalent to
// the database whose mutation history produced the partitions.
func ComposeDatabase(name string, parts []*relation.Database) (*relation.Database, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: compose: no partitions")
	}
	db := relation.NewDatabase(name)
	for _, schema := range parts[0].Schemas() {
		if _, err := db.CreateTable(schema); err != nil {
			return nil, fmt.Errorf("shard: compose: %w", err)
		}
	}
	for _, name := range parts[0].TableNames() {
		var tuples []*relation.Tuple
		for _, part := range parts {
			pt, ok := part.Table(name)
			if !ok {
				return nil, fmt.Errorf("shard: compose: partition missing table %s", name)
			}
			tuples = append(tuples, pt.Tuples()...)
		}
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].ID().Less(tuples[j].ID()) })
		t, _ := db.Table(name)
		for _, tup := range tuples {
			if _, err := t.InsertRow(tup.Values()...); err != nil {
				return nil, fmt.Errorf("shard: compose %s: %w", tup.ID(), err)
			}
		}
	}
	return db, nil
}

// dbName names split partitions after their source, tolerating an unnamed
// database.
func dbName(db *relation.Database) string {
	if db.Name != "" {
		return db.Name
	}
	return "db"
}
