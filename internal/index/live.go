package index

import (
	"sort"

	"repro/internal/postings"
	"repro/internal/relation"
)

// termEdit accumulates the pending changes to one term's posting list during
// an Apply: dense tuple IDs to drop and freshly built entries to insert.
type termEdit struct {
	removed map[uint32]bool
	added   map[uint32]*postings.Entry
}

// docLenEdit records one tuple's new document length.
type docLenEdit struct {
	id uint32
	n  int32
}

// Apply returns a new index reflecting a batch of tuple mutations without
// rebuilding: `removed` are tuples no longer in db, `added` are tuples now in
// db (an updated tuple appears in both lists, old version then new). The
// receiver is left untouched — posting blocks of unaffected terms are shared
// between the two indexes, and only the terms occurring in a mutated tuple
// are re-encoded. The interned symbol tables are extended copy-on-write, so
// every dense ID of the receiver denotes the same symbol in the result;
// freshly inserted tuples get new IDs appended in `added` list order, which
// keeps the ID space aligned with a data graph maintained from the same
// mutation batches.
//
// Maintenance is tombstone-free: a term whose last posting is removed leaves
// the vocabulary entirely, and a removed tuple's document length drops to
// zero, so the result is semantically identical to a fresh build of db —
// DocCount, TermCount, per-term document frequencies and TF-IDF scores all
// match exactly. (Dense IDs may differ from a fresh build's canonical
// assignment; only the string-space views are comparable across lineages.)
func (idx *Index) Apply(db *relation.Database, removed, added []*relation.Tuple) *Index {
	next := &Index{
		db:       db,
		tuples:   idx.tuples.Extend(),
		terms:    idx.terms.Extend(),
		cols:     idx.cols.Extend(),
		post:     make(map[uint32]*postings.List, len(idx.post)),
		docCount: idx.docCount,
	}
	for t, l := range idx.post {
		next.post[t] = l
	}

	edits := make(map[uint32]*termEdit)
	edit := func(t uint32) *termEdit {
		e := edits[t]
		if e == nil {
			e = &termEdit{removed: make(map[uint32]bool), added: make(map[uint32]*postings.Entry)}
			edits[t] = e
		}
		return e
	}

	// Removals first, so a tuple updated in place (same identity removed
	// then re-added) never mixes old and new postings. Dense IDs are never
	// reclaimed: the removed tuple keeps its ID with a zero document length.
	var docLens []docLenEdit
	var tokens []string
	for _, tup := range removed {
		dense, ok := next.tuples.Lookup(tup.ID())
		if !ok {
			continue // never indexed; nothing to undo
		}
		next.docCount--
		docLens = append(docLens, docLenEdit{dense, 0})
		for _, column := range tup.Schema().TextColumns() {
			v := tup.Value(column)
			if v.IsNull() {
				continue
			}
			tokens = TokenizeInto(tokens[:0], v.AsString())
			for _, term := range tokens {
				if t, ok := next.terms.Lookup(term); ok {
					edit(t).removed[dense] = true
				}
			}
		}
	}
	for _, tup := range added {
		dense := next.tuples.Intern(tup.ID())
		next.docCount++
		n := int32(0)
		for _, column := range tup.Schema().TextColumns() {
			v := tup.Value(column)
			if v.IsNull() {
				continue
			}
			tokens = TokenizeInto(tokens[:0], v.AsString())
			if len(tokens) == 0 {
				continue
			}
			colID := next.cols.Intern(column)
			for _, term := range tokens {
				e := edit(next.terms.Intern(term))
				ent := e.added[dense]
				if ent == nil {
					ent = &postings.Entry{ID: dense}
					e.added[dense] = ent
				}
				ent.TF++
				if !containsU32(ent.Cols, colID) {
					ent.Cols = append(ent.Cols, colID)
				}
				n++
			}
		}
		docLens = append(docLens, docLenEdit{dense, n})
	}

	next.docLen = make([]int32, next.tuples.Len())
	copy(next.docLen, idx.docLen)
	for _, d := range docLens {
		next.docLen[d.id] = d.n
	}

	// Re-encode each touched term: decode the shared block, drop removed
	// postings, merge in the new ones (both sides ascending by dense ID),
	// and rebuild. Terms whose postings emptied out leave the vocabulary,
	// exactly as if the index had been rebuilt without them.
	var old []postings.Entry
	for t, e := range edits {
		old = old[:0]
		if l := next.post[t]; l != nil {
			old = l.Decode(old)
		}
		adds := make([]postings.Entry, 0, len(e.added))
		for _, ent := range e.added {
			sortU32(ent.Cols)
			adds = append(adds, *ent)
		}
		sort.Slice(adds, func(i, j int) bool { return adds[i].ID < adds[j].ID })
		merged := make([]postings.Entry, 0, len(old)+len(adds))
		ai := 0
		for _, ent := range old {
			if e.removed[ent.ID] || e.added[ent.ID] != nil {
				continue
			}
			for ai < len(adds) && adds[ai].ID < ent.ID {
				merged = append(merged, adds[ai])
				ai++
			}
			merged = append(merged, ent)
		}
		merged = append(merged, adds[ai:]...)
		if len(merged) == 0 {
			delete(next.post, t)
			continue
		}
		next.post[t] = postings.Build(merged)
	}
	return next
}

// TermPosting is the exported snapshot of one posting in the string space,
// used by the rebuild-equivalence tests and debugging tools to compare
// indexes across lineages (dense IDs are lineage-private and never appear
// here).
type TermPosting struct {
	// Tuple is the posting's document.
	Tuple relation.TupleID
	// TF is the term frequency within the tuple.
	TF int
	// Columns are the attribute names containing the term, sorted.
	Columns []string
}

// TermPostings returns the postings of a raw (already tokenized) term,
// decoded into the string space and sorted by tuple identifier — not by the
// internal dense-ID order, which differs between a fresh build and an
// incrementally maintained lineage. Unknown terms return nil.
func (idx *Index) TermPostings(term string) []TermPosting {
	l := idx.list(term)
	if l.Len() == 0 {
		return nil
	}
	out := make([]TermPosting, 0, l.Len())
	it := l.Iter()
	for it.Next() {
		cols := make([]string, 0, len(it.Entry.Cols))
		for _, c := range it.Entry.Cols {
			cols = append(cols, idx.cols.String(c))
		}
		sort.Strings(cols)
		out = append(out, TermPosting{
			Tuple:   idx.tuples.ID(it.Entry.ID),
			TF:      int(it.Entry.TF),
			Columns: cols,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Less(out[j].Tuple) })
	return out
}

// DocLength returns the number of indexed term occurrences of the tuple
// (0 for tuples with no indexed text, including removed tuples whose dense
// ID is still interned).
func (idx *Index) DocLength(id relation.TupleID) int {
	dense, ok := idx.tuples.Lookup(id)
	if !ok || int(dense) >= len(idx.docLen) {
		return 0
	}
	return int(idx.docLen[dense])
}

// Dump renders the whole index as term -> sorted postings in the string
// space, for equivalence checks between incrementally maintained and freshly
// built indexes (whose dense ID assignments legitimately differ).
func (idx *Index) Dump() map[string][]TermPosting {
	out := make(map[string][]TermPosting, len(idx.post))
	for t := range idx.post {
		term := idx.terms.String(t)
		out[term] = idx.TermPostings(term)
	}
	return out
}
