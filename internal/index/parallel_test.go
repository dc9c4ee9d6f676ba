package index

import (
	"reflect"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/workload"
)

// TestBuildParallelDeterminism asserts that the per-table parallel build
// merges into an index indistinguishable from the sequential one: same
// counts, same vocabulary, same document frequencies and same match lists
// for every indexed term.
func TestBuildParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  *Index
		pars []*Index
	}{
		{
			name: "paper",
			seq:  buildParallel(paperdb.MustLoad(), 1),
			pars: []*Index{buildParallel(paperdb.MustLoad(), 4), build(paperdb.MustLoad())},
		},
		{
			name: "workload",
			seq:  buildParallel(workload.MustGenerate(workload.ScaledConfig(2, 42)), 1),
			pars: []*Index{buildParallel(workload.MustGenerate(workload.ScaledConfig(2, 42)), 8)},
		},
	} {
		vocab := tc.seq.Vocabulary()
		for i, par := range tc.pars {
			if got, want := par.DocCount(), tc.seq.DocCount(); got != want {
				t.Fatalf("%s[%d]: DocCount = %d, want %d", tc.name, i, got, want)
			}
			if got, want := par.TermCount(), tc.seq.TermCount(); got != want {
				t.Fatalf("%s[%d]: TermCount = %d, want %d", tc.name, i, got, want)
			}
			if !reflect.DeepEqual(par.Vocabulary(), vocab) {
				t.Fatalf("%s[%d]: vocabularies differ", tc.name, i)
			}
			for _, term := range vocab {
				if got, want := par.DocFrequency(term), tc.seq.DocFrequency(term); got != want {
					t.Fatalf("%s[%d]: DocFrequency(%q) = %d, want %d", tc.name, i, term, got, want)
				}
				if !reflect.DeepEqual(par.Match(term), tc.seq.Match(term)) {
					t.Fatalf("%s[%d]: Match(%q) differs", tc.name, i, term)
				}
			}
		}
	}
}

// TestDocFrequencyNormalizesLikeTheIndex is the regression test for the
// ToLower bug: DocFrequency used to lowercase its input without tokenizing,
// so any punctuated term ("XML-based", "e-mail") silently reported 0 even
// when its tokens were indexed.
func TestDocFrequencyNormalizesLikeTheIndex(t *testing.T) {
	idx := build(paperdb.MustLoad())
	if df := idx.DocFrequency("XML"); df == 0 {
		t.Fatal("sanity: XML should be indexed")
	}
	if got, want := idx.DocFrequency("XML."), idx.DocFrequency("XML"); got != want {
		t.Errorf("DocFrequency(\"XML.\") = %d, want %d (same as unpunctuated)", got, want)
	}
	if got, want := idx.DocFrequency("  xml  "), idx.DocFrequency("xml"); got != want {
		t.Errorf("DocFrequency with surrounding whitespace = %d, want %d", got, want)
	}
	// A hyphenated input tokenizes into two terms and must count the tuples
	// containing both, consistent with Match's conjunctive semantics.
	if got, want := idx.DocFrequency("XML-data"), len(idx.Match("XML data")); got != want {
		t.Errorf("DocFrequency(\"XML-data\") = %d, want %d (conjunctive count)", got, want)
	}
	if df := idx.DocFrequency("no-such-term-anywhere"); df != 0 {
		t.Errorf("DocFrequency of unknown term = %d, want 0", df)
	}
	if df := idx.DocFrequency("..."); df != 0 {
		t.Errorf("DocFrequency of pure punctuation = %d, want 0", df)
	}
}

// TestMatchSeedsFromRarestTerm pins the conjunctive-intersection fix: the
// result of a multi-term keyword must be the full conjunction regardless of
// which term seeds it, including when the first term is the most frequent.
func TestMatchSeedsFromRarestTerm(t *testing.T) {
	db := workload.MustGenerate(workload.ScaledConfig(2, 42))
	idx := build(db)
	vocab := idx.Vocabulary()
	if len(vocab) < 2 {
		t.Skip("workload vocabulary too small")
	}
	// Pick the most and least frequent terms, query them in both orders and
	// check the intersections agree.
	common, rare := vocab[0], vocab[0]
	for _, term := range vocab {
		if idx.DocFrequency(term) > idx.DocFrequency(common) {
			common = term
		}
		if idx.DocFrequency(term) < idx.DocFrequency(rare) {
			rare = term
		}
	}
	ab := idx.Match(common + " " + rare)
	ba := idx.Match(rare + " " + common)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("Match is order-sensitive: %v vs %v", ab, ba)
	}
	for _, m := range ab {
		for _, term := range []string{common, rare} {
			found := false
			for _, single := range idx.Match(term) {
				if single.Tuple == m.Tuple {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tuple %s matched %q conjunctively but not %q alone", m.Tuple, common+" "+rare, term)
			}
		}
	}
}
