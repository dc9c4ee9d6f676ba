package index

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// build is BuildParallelWith over the database's canonical tuple table.
func build(db *relation.Database) *Index { return buildParallel(db, 0) }

func buildParallel(db *relation.Database, workers int) *Index {
	return BuildParallelWith(db, symtab.ForDatabase(db), workers)
}

func id(rel, key string) relation.TupleID { return relation.TupleID{Relation: rel, Key: key} }

func paperIndex(t testing.TB) *Index {
	t.Helper()
	return build(paperdb.MustLoad())
}

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"The main topics of teaching are programming, databases and XML.": {
			"the", "main", "topics", "of", "teaching", "are", "programming", "databases", "and", "xml"},
		"XML and IR":   {"xml", "and", "ir"},
		"  ":           nil,
		"":             nil,
		"DB-project":   {"db", "project"},
		"C3PO & R2D2!": {"c3po", "r2d2"},
		"Ünïcode Täg":  {"ünïcode", "täg"},
	}
	for in, want := range cases {
		got := Tokenize(in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizeLowercaseIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		once := Tokenize(s)
		// Re-tokenizing the joined tokens yields the same tokens.
		again := Tokenize(NormalizeKeyword(s))
		return reflect.DeepEqual(once, again)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeKeyword(t *testing.T) {
	if got := NormalizeKeyword("  Information   Retrieval "); got != "information retrieval" {
		t.Errorf("NormalizeKeyword = %q", got)
	}
	if got := NormalizeKeyword("XML"); got != "xml" {
		t.Errorf("NormalizeKeyword = %q", got)
	}
}

// TestMatchPaperKeywords reproduces the keyword-matching step of the paper's
// Section 3: "Smith" matches the two first employees, "XML" matches two
// projects and two departments, "Alice" matches the dependent t1.
func TestMatchPaperKeywords(t *testing.T) {
	idx := paperIndex(t)

	smith := idx.KeywordTuples("Smith")
	if len(smith) != 2 || !smith[id("EMPLOYEE", "e1")] || !smith[id("EMPLOYEE", "e2")] {
		t.Errorf("Smith matches = %v", smith)
	}

	xml := idx.KeywordTuples("XML")
	wantXML := []relation.TupleID{id("DEPARTMENT", "d1"), id("DEPARTMENT", "d2"), id("PROJECT", "p1"), id("PROJECT", "p2")}
	if len(xml) != 4 {
		t.Errorf("XML matches %d tuples, want 4: %v", len(xml), xml)
	}
	for _, want := range wantXML {
		if !xml[want] {
			t.Errorf("XML should match %v", want)
		}
	}

	alice := idx.KeywordTuples("Alice")
	if len(alice) != 1 || !alice[id("DEPENDENT", "t1")] {
		t.Errorf("Alice matches = %v", alice)
	}

	if got := idx.KeywordTuples("blockchain"); len(got) != 0 {
		t.Errorf("unknown keyword matches = %v", got)
	}
}

func TestMatchIsCaseInsensitive(t *testing.T) {
	idx := paperIndex(t)
	lower := idx.KeywordTuples("xml")
	upper := idx.KeywordTuples("XML")
	if !reflect.DeepEqual(lower, upper) {
		t.Error("matching should be case-insensitive")
	}
}

func TestMatchReportsColumns(t *testing.T) {
	idx := paperIndex(t)
	matches := idx.Match("XML")
	byTuple := make(map[relation.TupleID][]string)
	for _, m := range matches {
		byTuple[m.Tuple] = m.Columns
	}
	if cols := byTuple[id("DEPARTMENT", "d1")]; len(cols) != 1 || cols[0] != "D_DESCRIPTION" {
		t.Errorf("d1 match columns = %v", cols)
	}
	// p2 mentions XML both in its name and description.
	if cols := byTuple[id("PROJECT", "p2")]; len(cols) != 2 {
		t.Errorf("p2 match columns = %v", cols)
	}
}

func TestMatchScoresOrderedAndPositive(t *testing.T) {
	idx := paperIndex(t)
	matches := idx.Match("XML")
	if len(matches) != 4 {
		t.Fatalf("matches = %d", len(matches))
	}
	for i, m := range matches {
		if m.Score <= 0 {
			t.Errorf("match %v has non-positive score %g", m.Tuple, m.Score)
		}
		if i > 0 && matches[i-1].Score < m.Score {
			t.Error("matches not sorted by descending score")
		}
	}
	// p2 mentions XML twice (name + description), so it scores highest.
	if matches[0].Tuple != id("PROJECT", "p2") {
		t.Errorf("top XML match = %v, want p2", matches[0].Tuple)
	}
}

func TestMatchMultiTermKeyword(t *testing.T) {
	idx := paperIndex(t)
	// "information retrieval" occurs in d2's description and p3's description.
	matches := idx.Match("information retrieval")
	got := make(map[relation.TupleID]bool)
	for _, m := range matches {
		got[m.Tuple] = true
	}
	if len(got) != 2 || !got[id("DEPARTMENT", "d2")] || !got[id("PROJECT", "p3")] {
		t.Errorf("multi-term matches = %v", got)
	}
	// Conjunctive semantics: "history retrieval" matches nothing because no
	// single tuple contains both terms.
	if got := idx.Match("history retrieval"); len(got) != 0 {
		t.Errorf("conjunctive match should be empty, got %v", got)
	}
	if got := idx.Match("   "); got != nil {
		t.Errorf("blank keyword matches = %v", got)
	}
}

// TestMatchAll resolves every keyword of a query through each of the three
// match views — scored (Match), dense (MatchIDs) and set (KeywordTuples) —
// and checks they name the same tuples.
func TestMatchAll(t *testing.T) {
	idx := paperIndex(t)
	sizes := map[string]int{"Smith": 2, "XML": 4, "nonexistent": 0}
	for _, kw := range append([]string{"nonexistent"}, paperdb.QuerySmithXML...) {
		matches, ids, set := idx.Match(kw), idx.MatchIDs(kw), idx.KeywordTuples(kw)
		if len(matches) != sizes[kw] || len(ids) != sizes[kw] || len(set) != sizes[kw] {
			t.Fatalf("%q: %d matches, %d ids, %d set members, want %d each", kw, len(matches), len(ids), len(set), sizes[kw])
		}
		for _, m := range matches {
			if !set[m.Tuple] {
				t.Errorf("%q: Match names %v, KeywordTuples does not", kw, m.Tuple)
			}
		}
		for _, dense := range ids {
			if !set[idx.Tuples().ID(dense)] {
				t.Errorf("%q: MatchIDs names %v, KeywordTuples does not", kw, idx.Tuples().ID(dense))
			}
		}
	}
}

func TestContentScore(t *testing.T) {
	idx := paperIndex(t)
	sc := idx.NewScorer(paperdb.QuerySmithXML)
	e1 := sc.Score(id("EMPLOYEE", "e1"))
	d1 := sc.Score(id("DEPARTMENT", "d1"))
	if e1 <= 0 || d1 <= 0 {
		t.Errorf("scores: e1=%g d1=%g", e1, d1)
	}
	if none := sc.Score(id("DEPENDENT", "t2")); none != 0 {
		t.Errorf("non-matching tuple score = %g, want 0", none)
	}
	if unknown := sc.Score(id("DEPENDENT", "zz")); unknown != 0 {
		t.Errorf("unknown tuple score = %g, want 0", unknown)
	}
	// A tuple matching both keywords scores at least as much as one
	// matching a single keyword with the same frequencies; p2 matches XML
	// twice so it beats d1.
	if p2 := sc.Score(id("PROJECT", "p2")); p2 <= d1 {
		t.Errorf("p2 score %g should exceed d1 score %g", p2, d1)
	}
	// Per keyword, the scorer and Match are the same sum, bit for bit.
	for _, kw := range paperdb.QuerySmithXML {
		one := idx.NewScorer([]string{kw})
		for _, m := range idx.Match(kw) {
			if got := one.Score(m.Tuple); got != m.Score {
				t.Errorf("Scorer(%q).Score(%v) = %v, Match scored it %v", kw, m.Tuple, got, m.Score)
			}
		}
	}
}

func TestIndexStatsAndVocabulary(t *testing.T) {
	idx := paperIndex(t)
	if idx.DocCount() != 16 {
		t.Errorf("DocCount = %d, want 16", idx.DocCount())
	}
	if idx.TermCount() == 0 {
		t.Error("TermCount = 0")
	}
	if df := idx.DocFrequency("XML"); df != 4 {
		t.Errorf("DocFrequency(XML) = %d, want 4", df)
	}
	if df := idx.DocFrequency("zzz"); df != 0 {
		t.Errorf("DocFrequency(zzz) = %d", df)
	}
	vocab := idx.Vocabulary()
	for i := 1; i < len(vocab); i++ {
		if vocab[i-1] >= vocab[i] {
			t.Fatal("vocabulary not strictly sorted")
		}
	}
	found := false
	for _, term := range vocab {
		if term == "xml" {
			found = true
		}
	}
	if !found {
		t.Error("vocabulary missing 'xml'")
	}
}

func TestKeyAndForeignKeyColumnsAreNotIndexed(t *testing.T) {
	idx := paperIndex(t)
	// "d1" only occurs as a key / foreign-key value, never in text columns.
	if got := idx.Match("d1"); len(got) != 0 {
		t.Errorf("key values should not be indexed, got %v", got)
	}
	// "40" only occurs in the numeric HOURS column.
	if got := idx.Match("40"); len(got) != 0 {
		t.Errorf("numeric values should not be indexed, got %v", got)
	}
}
