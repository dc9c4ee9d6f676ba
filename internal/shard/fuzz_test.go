package shard

import (
	"testing"

	"repro/internal/relation"
)

// FuzzShardPartition fuzzes the tuple-to-shard assignment, the function the
// whole fixture leans on. Properties:
//
//   - total: any (relation, key, n) maps to a shard, never panics;
//   - in range: the owner is always a valid shard of the clamped count;
//   - deterministic: two independently constructed partitioners agree, which
//     is what makes the assignment stable across independently built
//     groups (the partitioner carries no state beyond the count);
//   - identity-sensitive only: the owner depends on the TupleID alone, so
//     re-asking with a fresh TupleID value of the same contents agrees;
//   - separator-sound: the relation/key boundary is part of the hash, so
//     moving a byte across it ("ab","c" vs "a","bc") is allowed to — and for
//     some shard count must remain free to — change the owner. We assert
//     only the re-hash agreement, not a distribution.
func FuzzShardPartition(f *testing.F) {
	f.Add("employee", "e1", 1)
	f.Add("employee", "e1", 4)
	f.Add("department", "d1", 2)
	f.Add("works_on", "p1|e3", 7)
	f.Add("", "", 8)
	f.Add("a\x00b", "c", 3)
	f.Add("ab", "\x00c", 3)
	f.Add("projects", "p999", 0)
	f.Add("t", "k", -5)
	f.Fuzz(func(t *testing.T, rel, key string, n int) {
		if n > 1<<16 {
			n = 1 << 16 // the clamp below is about negatives; huge counts just waste cycles
		}
		p := NewPartitioner(n)
		clamped := n
		if clamped < 1 {
			clamped = 1
		}
		if p.Shards() != clamped {
			t.Fatalf("Shards() = %d, want %d", p.Shards(), clamped)
		}
		id := relation.TupleID{Relation: rel, Key: key}
		owner := p.Owner(id)
		if owner < 0 || owner >= clamped {
			t.Fatalf("owner %d out of range [0,%d)", owner, clamped)
		}
		// A second, independently built partitioner and a re-built TupleID
		// must agree: the assignment is a pure function of (contents, count).
		again := NewPartitioner(n).Owner(relation.TupleID{Relation: rel, Key: key})
		if again != owner {
			t.Fatalf("independent partitioner disagrees: %d vs %d", again, owner)
		}
	})
}
