package index

import (
	"reflect"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
)

// requireIndexEquivalent asserts the incrementally maintained index matches a
// fresh build of the same database, down to postings, frequencies and scores.
func requireIndexEquivalent(t *testing.T, db *relation.Database, inc *Index) {
	t.Helper()
	fresh := build(db)
	if inc.DocCount() != fresh.DocCount() {
		t.Fatalf("DocCount = %d, fresh build has %d", inc.DocCount(), fresh.DocCount())
	}
	if inc.TermCount() != fresh.TermCount() {
		t.Fatalf("TermCount = %d, fresh build has %d (vocab %v vs %v)",
			inc.TermCount(), fresh.TermCount(), inc.Vocabulary(), fresh.Vocabulary())
	}
	if got, want := inc.Dump(), fresh.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("postings diverged from fresh build:\nincremental: %v\nfresh:       %v", got, want)
	}
	for _, term := range fresh.Vocabulary() {
		if inc.DocFrequency(term) != fresh.DocFrequency(term) {
			t.Fatalf("DocFrequency(%q) = %d, want %d", term, inc.DocFrequency(term), fresh.DocFrequency(term))
		}
	}
	for _, tab := range db.Tables() {
		for _, tup := range tab.Tuples() {
			if inc.DocLength(tup.ID()) != fresh.DocLength(tup.ID()) {
				t.Fatalf("DocLength(%s) = %d, want %d", tup.ID(), inc.DocLength(tup.ID()), fresh.DocLength(tup.ID()))
			}
		}
	}
}

func mustDelete(t *testing.T, db *relation.Database, table, key string) *relation.Tuple {
	t.Helper()
	tab, _ := db.Table(table)
	tup, ok := tab.Delete(key)
	if !ok {
		t.Fatalf("no tuple %s[%s]", table, key)
	}
	return tup
}

func mustInsert(t *testing.T, db *relation.Database, table string, row map[string]relation.Value) *relation.Tuple {
	t.Helper()
	tab, _ := db.Table(table)
	tup, err := tab.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	return tup
}

func TestIndexApplyInsertAndDelete(t *testing.T) {
	db := paperdb.MustLoad()
	idx := build(db)
	str, txt := relation.String, relation.Text

	// Insert a department whose description introduces a brand-new term.
	d9 := mustInsert(t, db, "DEPARTMENT", map[string]relation.Value{
		"ID": str("d9"), "D_NAME": str("phys"),
		"D_DESCRIPTION": txt("Research on quantum devices and XML tooling.")})
	i1 := idx.Apply(db, nil, []*relation.Tuple{d9})
	requireIndexEquivalent(t, db, i1)
	if got := len(i1.Match("quantum")); got != 1 {
		t.Fatalf("new term matched %d tuples, want 1", got)
	}
	// The old index is untouched.
	if got := len(idx.Match("quantum")); got != 0 {
		t.Fatalf("old index gained the new term (%d matches)", got)
	}

	// Delete it again: the new terms leave the vocabulary with no tombstone.
	mustDelete(t, db, "DEPARTMENT", "d9")
	i2 := i1.Apply(db, []*relation.Tuple{d9}, nil)
	requireIndexEquivalent(t, db, i2)
	if i2.TermCount() != idx.TermCount() {
		t.Fatalf("TermCount after delete = %d, want the original %d", i2.TermCount(), idx.TermCount())
	}
	if got := i2.DocLength(d9.ID()); got != 0 {
		t.Fatalf("doc length of deleted tuple = %d, want 0", got)
	}
}

func TestIndexApplyUpdateSameID(t *testing.T) {
	db := paperdb.MustLoad()
	idx := build(db)
	str, txt := relation.String, relation.Text
	old := mustDelete(t, db, "PROJECT", "p1")
	neu := mustInsert(t, db, "PROJECT", map[string]relation.Value{
		"ID": str("p1"), "D_ID": str("d1"), "P_NAME": str("DB-project"),
		"P_DESCRIPTION": txt("Now about streaming graph maintenance.")})
	i1 := idx.Apply(db, []*relation.Tuple{old}, []*relation.Tuple{neu})
	requireIndexEquivalent(t, db, i1)
	if got := len(i1.Match("streaming")); got != 1 {
		t.Fatalf("updated text not searchable: %d matches", got)
	}
	for _, m := range i1.Match("relational") {
		if m.Tuple == neu.ID() {
			t.Fatal("stale posting of the old tuple text survived the update")
		}
	}
}

func TestIndexApplyScoresMatchFreshBuild(t *testing.T) {
	db := paperdb.MustLoad()
	idx := build(db)
	str, txt := relation.String, relation.Text
	d9 := mustInsert(t, db, "DEPARTMENT", map[string]relation.Value{
		"ID": str("d9"), "D_NAME": str("lab"),
		"D_DESCRIPTION": txt("XML XML XML and more databases")})
	inc := idx.Apply(db, nil, []*relation.Tuple{d9})
	fresh := build(db)
	// IDF shifts with docCount and document frequency; scores must be
	// bit-identical to a fresh build for every keyword and tuple.
	for _, kw := range []string{"XML", "databases", "Smith", "information retrieval"} {
		got, want := inc.Match(kw), fresh.Match(kw)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Match(%q) diverged:\nincremental: %v\nfresh:       %v", kw, got, want)
		}
		incScorer, freshScorer := inc.NewScorer([]string{kw}), fresh.NewScorer([]string{kw})
		for _, tab := range db.Tables() {
			for _, tup := range tab.Tuples() {
				if g, w := incScorer.Score(tup.ID()), freshScorer.Score(tup.ID()); g != w {
					t.Fatalf("Score(%s, %q) = %v, want %v", tup.ID(), kw, g, w)
				}
			}
		}
	}
}
