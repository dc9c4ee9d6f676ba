package shard

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
	"repro/internal/workload"
)

// dump renders a database canonically: every table in sorted name order,
// every tuple in ascending TupleID order, with its full value list. Two
// databases holding the same tuples dump identically regardless of the
// insertion history, so the splits and compositions below byte-compare.
func dump(db *relation.Database) string {
	var b strings.Builder
	names := append([]string(nil), db.TableNames()...)
	sort.Strings(names)
	for _, name := range names {
		t, _ := db.Table(name)
		tuples := append([]*relation.Tuple(nil), t.Tuples()...)
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].ID().Less(tuples[j].ID()) })
		fmt.Fprintf(&b, "table %s\n", name)
		for _, tup := range tuples {
			fmt.Fprintf(&b, "  %s %v\n", tup.ID(), tup.Values())
		}
	}
	return b.String()
}

func TestPartitionerDeterministicAndTotal(t *testing.T) {
	db := paperdb.MustLoad()
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		a, b := NewPartitioner(n), NewPartitioner(n)
		for _, table := range db.Tables() {
			for _, tup := range table.Tuples() {
				sa, sb := a.Owner(tup.ID()), b.Owner(tup.ID())
				if sa != sb {
					t.Fatalf("n=%d: %s: independent partitioners disagree: %d vs %d", n, tup.ID(), sa, sb)
				}
				if sa < 0 || sa >= n {
					t.Fatalf("n=%d: %s: owner %d out of range", n, tup.ID(), sa)
				}
			}
		}
	}
}

func TestPartitionerClampsAndSingleShard(t *testing.T) {
	for _, n := range []int{-3, 0, 1} {
		p := NewPartitioner(n)
		if p.Shards() != 1 {
			t.Fatalf("NewPartitioner(%d).Shards() = %d, want 1", n, p.Shards())
		}
		if s := p.Owner(relation.TupleID{Relation: "r", Key: "k"}); s != 0 {
			t.Fatalf("single-shard owner = %d, want 0", s)
		}
	}
}

// TestPartitionerReachability pins the load-spreading property the fuzz
// target also checks: over a modest synthetic ID population every shard owns
// something, for every shard count from 2 to 8.
func TestPartitionerReachability(t *testing.T) {
	for n := 2; n <= 8; n++ {
		p := NewPartitioner(n)
		hit := make([]bool, n)
		for i := 0; i < 512; i++ {
			id := relation.TupleID{Relation: "employee", Key: fmt.Sprintf("e%d", i)}
			hit[p.Owner(id)] = true
		}
		for s, ok := range hit {
			if !ok {
				t.Fatalf("n=%d: shard %d owns none of 512 synthetic tuples", n, s)
			}
		}
	}
}

func TestSplitComposeRoundTrip(t *testing.T) {
	for _, src := range []struct {
		name string
		db   *relation.Database
	}{
		{"paperdb", paperdb.MustLoad()},
		{"scale2", workload.MustGenerate(workload.ScaledConfig(2, 42))},
	} {
		want := dump(src.db)
		for _, n := range []int{1, 2, 3, 4, 7} {
			p := NewPartitioner(n)
			parts, err := SplitDatabase(src.db, p)
			if err != nil {
				t.Fatalf("%s n=%d: split: %v", src.name, n, err)
			}
			if len(parts) != n {
				t.Fatalf("%s n=%d: got %d partitions", src.name, n, len(parts))
			}
			total := 0
			for s, part := range parts {
				for _, table := range part.Tables() {
					for _, tup := range table.Tuples() {
						total++
						if owner := p.Owner(tup.ID()); owner != s {
							t.Fatalf("%s n=%d: %s landed on shard %d, owner is %d", src.name, n, tup.ID(), s, owner)
						}
					}
				}
			}
			if wantTotal := src.db.Stats().Tuples; total != wantTotal {
				t.Fatalf("%s n=%d: partitions hold %d tuples, source %d", src.name, n, total, wantTotal)
			}
			composed, err := ComposeDatabase(src.db.Name, parts)
			if err != nil {
				t.Fatalf("%s n=%d: compose: %v", src.name, n, err)
			}
			if got := dump(composed); got != want {
				t.Fatalf("%s n=%d: compose does not round-trip:\n got %d bytes\n want %d bytes", src.name, n, len(got), len(want))
			}
		}
	}
}

// TestComposeOrderInsensitive pins the canonical ordering: composing the same
// partitions listed in a different order yields a byte-identical database.
func TestComposeOrderInsensitive(t *testing.T) {
	db := paperdb.MustLoad()
	parts, err := SplitDatabase(db, NewPartitioner(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ComposeDatabase("x", parts)
	if err != nil {
		t.Fatal(err)
	}
	reversed := []*relation.Database{parts[2], parts[1], parts[0]}
	b, err := ComposeDatabase("x", reversed)
	if err != nil {
		t.Fatal(err)
	}
	if dump(a) != dump(b) {
		t.Fatal("composition depends on partition order")
	}
}

// TestMatcherSetEquality pins the scatter-gather contract: for every term in
// the composed index's vocabulary, the matcher's gathered set equals the
// composed index's match set (as TupleID sets — order is the enumeration
// layer's business, which sorts either way).
func TestMatcherSetEquality(t *testing.T) {
	db := workload.MustGenerate(workload.ScaledConfig(1, 7))
	tuples := symtab.ForDatabase(db)
	composedIdx := index.BuildParallelWith(db, tuples, 1)
	keywords := []string{"smith", "xml", "databases", "liu", "nosuchterm", "project"}
	for _, n := range []int{1, 2, 3, 4, 7} {
		g, err := NewGroup(NewPartitioner(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		states, err := g.Fresh(db, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMatcher(states, tuples)
		for _, kw := range keywords {
			want := idSet(composedIdx.MatchIDs(kw), tuples)
			got := idSet(m.MatchIDs(kw), tuples)
			if len(got) != len(want) {
				t.Fatalf("n=%d %q: matcher found %d tuples, composed index %d", n, kw, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("n=%d %q: matcher is missing %s", n, kw, id)
				}
			}
		}
	}
}

func idSet(dense []uint32, tuples *symtab.Tuples) map[relation.TupleID]bool {
	set := make(map[relation.TupleID]bool, len(dense))
	for _, d := range dense {
		set[tuples.ID(d)] = true
	}
	return set
}

// TestSplitRejectsNothing ensures the paper database splits cleanly at every
// count, including more shards than some tables have tuples.
func TestSplitMoreShardsThanTuples(t *testing.T) {
	db := paperdb.MustLoad()
	parts, err := SplitDatabase(db, NewPartitioner(64))
	if err != nil {
		t.Fatal(err)
	}
	composed, err := ComposeDatabase(db.Name, parts)
	if err != nil {
		t.Fatal(err)
	}
	if dump(composed) != dump(db) {
		t.Fatal("64-way split does not round-trip")
	}
}
