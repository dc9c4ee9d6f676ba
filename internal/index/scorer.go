package index

import (
	"math"

	"repro/internal/postings"
	"repro/internal/relation"
)

// Scorer scores tuples against a fixed keyword set with the query's terms
// pre-tokenized and pre-resolved to posting lists and idf values, so scoring
// a tuple is one point lookup per query term, reusing one iterator across
// calls. Every engine's answer annotation scores through one. Not safe for
// concurrent use; each annotating goroutine builds its own.
type Scorer struct {
	idx   *Index
	lists []*postings.List // resolved terms, query token order; unknown terms omitted
	idfs  []float64
	it    postings.Iterator
}

// NewScorer resolves the keywords (in order, duplicates kept) against the
// index. A score sums the term contributions in that order — the same order
// Match uses within one keyword — which fixes its floating-point bits.
func (idx *Index) NewScorer(keywords []string) *Scorer {
	s := &Scorer{idx: idx}
	var tokens []string
	for _, kw := range keywords {
		tokens = TokenizeInto(tokens[:0], kw)
		for _, term := range tokens {
			l := idx.list(term)
			if l.Len() == 0 {
				continue // unknown terms score zero for every tuple
			}
			s.lists = append(s.lists, l)
			s.idfs = append(s.idfs, idx.idfOf(l))
		}
	}
	return s
}

// ScoreID returns the total TF-IDF score of the tuple with the given dense
// ID over the Scorer's keywords; tuples matching none of them score zero.
func (s *Scorer) ScoreID(dense uint32) float64 {
	score := 0.0
	for i, l := range s.lists {
		e, ok := l.Find(dense, &s.it)
		if !ok {
			continue
		}
		score += (1 + math.Log(float64(e.TF))) * s.idfs[i]
	}
	return score
}

// Score is ScoreID in the string space; unknown tuples score zero.
func (s *Scorer) Score(id relation.TupleID) float64 {
	dense, ok := s.idx.tuples.Lookup(id)
	if !ok {
		return 0
	}
	return s.ScoreID(dense)
}
