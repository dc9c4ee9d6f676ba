package symtab

import (
	"testing"

	"repro/internal/relation"
)

// newTuples returns an empty, mutable tuple table.
func newTuples() *Tuples {
	return &Tuples{lookup: make(map[relation.TupleID]uint32)}
}

func tid(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

func TestTuplesInternLookupRoundTrip(t *testing.T) {
	tab := newTuples()
	a := tab.Intern(tid("R", "a"))
	b := tab.Intern(tid("R", "b"))
	if a != 0 || b != 1 {
		t.Fatalf("dense IDs not assigned in order: a=%d b=%d", a, b)
	}
	if again := tab.Intern(tid("R", "a")); again != a {
		t.Fatalf("re-interning changed the ID: %d != %d", again, a)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if got := tab.ID(a); got != tid("R", "a") {
		t.Fatalf("ID(%d) = %v", a, got)
	}
	if dense, ok := tab.Lookup(tid("R", "b")); !ok || dense != b {
		t.Fatalf("Lookup(b) = %d,%v", dense, ok)
	}
	if _, ok := tab.Lookup(tid("R", "absent")); ok {
		t.Fatal("Lookup hit a never-interned tuple")
	}
}

func TestTuplesLessFollowsStringOrder(t *testing.T) {
	tab := newTuples()
	// Interned out of string order: dense order must not leak out.
	z := tab.Intern(tid("Z", "1"))
	a := tab.Intern(tid("A", "1"))
	if !tab.Less(a, z) || tab.Less(z, a) {
		t.Fatal("Less does not follow the tuple-identifier order")
	}
}

func TestTuplesExtendKeepsParentIDsAndFlattens(t *testing.T) {
	layer := newTuples()
	var denseOf []relation.TupleID
	for g := 0; g < maxDepth+3; g++ {
		id := tid("R", string(rune('a'+g)))
		dense := layer.Intern(id)
		if int(dense) != len(denseOf) {
			t.Fatalf("gen %d: dense %d, want %d", g, dense, len(denseOf))
		}
		denseOf = append(denseOf, id)
		for want, tupID := range denseOf {
			if got, ok := layer.Lookup(tupID); !ok || got != uint32(want) {
				t.Fatalf("gen %d: Lookup(%v) = %d,%v, want %d", g, tupID, got, ok, want)
			}
			if got := layer.ID(uint32(want)); got != tupID {
				t.Fatalf("gen %d: ID(%d) = %v, want %v", g, want, got, tupID)
			}
		}
		layer = layer.Extend()
	}
}

func TestInternOnFrozenLayerPanics(t *testing.T) {
	strs := NewStrings()
	strs.Intern("x")
	strs.Extend()
	defer func() {
		if recover() == nil {
			t.Fatal("Intern on a frozen layer did not panic")
		}
	}()
	strs.Intern("y")
}

func TestTuplesInternOnFrozenLayerPanics(t *testing.T) {
	tab := newTuples()
	tab.Intern(tid("R", "a"))
	tab.Extend()
	defer func() {
		if recover() == nil {
			t.Fatal("Intern on a frozen layer did not panic")
		}
	}()
	tab.Intern(tid("R", "b"))
}

func TestForDatabaseCanonicalOrder(t *testing.T) {
	db := relation.NewDatabase("canon")
	db.MustCreateTable(relation.MustSchema("R", []relation.Column{{Name: "K", Type: relation.TypeString}}, []string{"K"}))
	db.MustCreateTable(relation.MustSchema("S", []relation.Column{{Name: "K", Type: relation.TypeString}}, []string{"K"}))
	r, _ := db.Table("R")
	s, _ := db.Table("S")
	for _, row := range []string{"r1", "r2"} {
		if _, err := r.Insert(map[string]relation.Value{"K": relation.String(row)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Insert(map[string]relation.Value{"K": relation.String("s1")}); err != nil {
		t.Fatal(err)
	}

	one := ForDatabase(db)
	two := ForDatabase(db)
	if one.Len() != 3 || two.Len() != 3 {
		t.Fatalf("Len = %d and %d, want 3", one.Len(), two.Len())
	}
	// Independently derived tables agree on every assignment — the property
	// that lets the graph and the index be built without sharing a table.
	for dense := uint32(0); int(dense) < one.Len(); dense++ {
		if one.ID(dense) != two.ID(dense) {
			t.Fatalf("dense %d: %v vs %v", dense, one.ID(dense), two.ID(dense))
		}
	}
	if first := one.ID(0); first != tid("R", "r1") {
		t.Fatalf("first dense ID is %v, want R/r1 (creation then insertion order)", first)
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	b.Grow(130) // three words
	if !b.Add(0) || !b.Add(64) || !b.Add(129) {
		t.Fatal("Add reported present for fresh IDs")
	}
	if b.Add(64) {
		t.Fatal("Add reported absent for a member")
	}
	for _, id := range []uint32{0, 64, 129} {
		if !b.Has(id) {
			t.Fatalf("Has(%d) = false after Add", id)
		}
	}
	if b.Has(1) || b.Has(1000) {
		t.Fatal("Has reported membership for absent IDs")
	}
	b.Del(64)
	b.Del(100000) // beyond capacity: no-op
	if b.Has(64) {
		t.Fatal("Has(64) after Del")
	}
	// Grow keeps existing members.
	b.Add(129)
	b.Grow(1024)
	if !b.Has(129) {
		t.Fatal("Grow dropped a member")
	}
}
