package index

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/parallel"
	"repro/internal/postings"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Match is one tuple matching a keyword, in the string space: Tuple is the
// full relation+key identifier and Columns are attribute names.
type Match struct {
	// Tuple identifies the matching tuple.
	Tuple relation.TupleID
	// Score is the TF-IDF content score of the match (sum over the
	// keyword's terms).
	Score float64
	// Columns are the attribute names in which at least one of the
	// keyword's terms occurs, sorted.
	Columns []string
}

// Index is an inverted index over the text attributes of a database. Terms,
// column names and tuple identifiers are interned into dense uint32 spaces
// (see internal/symtab); postings are varint-delta-compressed blocks sorted
// by interned tuple ID (see internal/postings). The exported surface speaks
// the string space unless a method is explicitly suffixed with IDs/ID — the
// interned views exist for the search engines, whose hot loops run on dense
// IDs and convert only at render time.
//
// The tuple-ID space is the canonical assignment of symtab.ForDatabase, so
// an Index and a datagraph.Graph built over the same database agree on every
// tuple's dense ID.
type Index struct {
	db       *relation.Database
	tuples   *symtab.Tuples
	terms    *symtab.Strings
	cols     *symtab.Strings
	post     map[uint32]*postings.List
	docLen   []int32 // indexed by dense tuple ID; 0 for unindexed or removed
	docCount int
}

// partial is one table's worth of postings, accumulated by a build worker in
// its own term/column ID spaces and remapped during the merge.
type partial struct {
	terms *symtab.Strings
	cols  *symtab.Strings
	// post is indexed by the partial's term ID; entries are ascending by
	// dense tuple ID because tuples are scanned in canonical order and each
	// table covers a contiguous ID range.
	post     [][]postings.Entry
	docLen   []int32 // the table's segment of the document-length column
	start    uint32  // first dense tuple ID of the table
	docCount int
}

// BuildParallelWith indexes every tuple of the database over a pre-interned
// tuple table, which must contain every tuple of db (symtab.ForDatabase
// order): all VARCHAR and TEXT attributes that are not key or foreign-key
// columns (see relation.Schema.TextColumns) are tokenized and added to the
// postings. Each table is indexed by one of up to `workers` goroutines (0 or
// negative means GOMAXPROCS, 1 is the fully sequential path) into a partial
// index, and the partials are merged afterwards; tuples are disjoint across
// tables, so the merged index is identical to a sequential build regardless
// of the worker count.
func BuildParallelWith(db *relation.Database, tuples *symtab.Tuples, workers int) *Index {
	tables := db.Tables()
	starts := make([]uint32, len(tables))
	off := uint32(0)
	for i, t := range tables {
		starts[i] = off
		off += uint32(len(t.Tuples()))
	}
	parts, _ := parallel.Map(context.Background(), workers, len(tables), func(_ context.Context, i int) (*partial, error) {
		part := &partial{
			terms:  symtab.NewStrings(),
			cols:   symtab.NewStrings(),
			docLen: make([]int32, len(tables[i].Tuples())),
			start:  starts[i],
		}
		var tokens []string
		for ti, tup := range tables[i].Tuples() {
			part.docCount++
			id := starts[i] + uint32(ti)
			schema := tup.Schema()
			for _, column := range schema.TextColumns() {
				v := tup.Value(column)
				if v.IsNull() {
					continue
				}
				tokens = TokenizeInto(tokens[:0], v.AsString())
				if len(tokens) == 0 {
					continue
				}
				colID := part.cols.Intern(column)
				for _, term := range tokens {
					part.add(term, id, colID)
					part.docLen[ti]++
				}
			}
		}
		return part, nil
	})

	idx := &Index{
		db:     db,
		tuples: tuples,
		terms:  symtab.NewStrings(),
		cols:   symtab.NewStrings(),
		docLen: make([]int32, tuples.Len()),
	}
	// Merge in table order: the per-table entry runs cover ascending dense-ID
	// ranges, so concatenation keeps every term's entries sorted.
	acc := make(map[uint32][]postings.Entry)
	for _, part := range parts {
		idx.docCount += part.docCount
		copy(idx.docLen[part.start:], part.docLen)
		colMap := make([]uint32, part.cols.Len())
		for pc := range colMap {
			colMap[pc] = idx.cols.Intern(part.cols.String(uint32(pc)))
		}
		for pt, entries := range part.post {
			term := idx.terms.Intern(part.terms.String(uint32(pt)))
			for i := range entries {
				cols := entries[i].Cols
				for j, c := range cols {
					cols[j] = colMap[c]
				}
				sortU32(cols)
			}
			acc[term] = append(acc[term], entries...)
		}
	}
	idx.post = make(map[uint32]*postings.List, len(acc))
	for term, entries := range acc {
		idx.post[term] = postings.Build(entries)
	}
	return idx
}

// add records one occurrence of term in the tuple with the given dense ID.
// Entries stay aggregated because a tuple's occurrences arrive contiguously.
func (p *partial) add(term string, id uint32, colID uint32) {
	t := p.terms.Intern(term)
	if int(t) == len(p.post) {
		p.post = append(p.post, nil)
	}
	entries := p.post[t]
	if n := len(entries); n > 0 && entries[n-1].ID == id {
		e := &entries[n-1]
		e.TF++
		if !containsU32(e.Cols, colID) {
			e.Cols = append(e.Cols, colID)
		}
		return
	}
	p.post[t] = append(entries, postings.Entry{ID: id, TF: 1, Cols: []uint32{colID}})
}

func containsU32(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func sortU32(s []uint32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Tuples returns the index's interned tuple-ID table: the dense space every
// IDs-suffixed method speaks. It is the canonical symtab.ForDatabase
// assignment, shared (by construction or by value) with the data graph.
func (idx *Index) Tuples() *symtab.Tuples { return idx.tuples }

// DocCount returns the number of indexed tuples.
func (idx *Index) DocCount() int { return idx.docCount }

// TermCount returns the number of distinct terms in the index.
func (idx *Index) TermCount() int { return len(idx.post) }

// list returns the posting list of a raw term, or nil.
func (idx *Index) list(term string) *postings.List {
	t, ok := idx.terms.Lookup(term)
	if !ok {
		return nil
	}
	return idx.post[t]
}

// DocFrequency returns the number of tuples containing the term. The term
// is normalized with the same tokenizer that built the postings, so
// punctuated inputs such as "XML-based" resolve to their indexed tokens
// (a plain ToLower would silently report 0); an input that tokenizes into
// several terms reports the number of tuples containing all of them,
// consistent with Match's conjunctive semantics.
func (idx *Index) DocFrequency(term string) int {
	sc := getScratch()
	defer putScratch(sc)
	terms := TokenizeInto(sc.tokens[:0], term)
	sc.tokens = terms
	switch len(terms) {
	case 0:
		return 0
	case 1:
		return idx.list(terms[0]).Len()
	}
	lists, seed, ok := idx.resolveLists(sc, terms)
	if !ok {
		return 0
	}
	n := 0
	idx.intersect(sc, lists, seed, func(uint32, []postings.Entry) bool {
		n++
		return true
	})
	return n
}

// resolveLists resolves terms to posting lists into sc.lists, in query
// token order, and returns the index of the rarest list — the cheapest seed
// for the conjunctive merge-join. ok is false when any term is unknown
// (conjunctive queries then match nothing). Token order is preserved so
// that scores sum term contributions in exactly the order the pre-interning
// implementation did, keeping floating-point results bit-identical.
func (idx *Index) resolveLists(sc *scratch, terms []string) (lists []*postings.List, seed int, ok bool) {
	lists = sc.lists[:0]
	defer func() { sc.lists = lists }()
	for _, t := range terms {
		l := idx.list(t)
		if l.Len() == 0 {
			return lists, 0, false
		}
		lists = append(lists, l)
	}
	for i, l := range lists[1:] {
		if l.Len() < lists[seed].Len() {
			seed = i + 1
		}
	}
	return lists, seed, true
}

// intersect runs the conjunctive merge-join over the lists, driving from
// lists[seed] and Seek-ing the others, and invokes fn for every tuple
// present in all of them. entries[i] is the posting from lists[i] (token
// order); its Cols alias iterator scratch and are only valid inside fn.
// fn returning false stops the scan.
func (idx *Index) intersect(sc *scratch, lists []*postings.List, seed int, fn func(id uint32, entries []postings.Entry) bool) {
	iters := sc.iters
	for len(iters) < len(lists) {
		iters = append(iters, postings.Iterator{})
	}
	sc.iters = iters
	for i, l := range lists {
		iters[i].Reset(l)
	}
	entries := sc.entries
	for len(entries) < len(lists) {
		entries = append(entries, postings.Entry{})
	}
	sc.entries = entries
	drv := &iters[seed]
	for drv.Next() {
		id := drv.Entry.ID
		ok := true
		for i := range lists {
			if i == seed {
				entries[i] = drv.Entry
				continue
			}
			it := &iters[i]
			if !it.Seek(id) || it.Entry.ID != id {
				ok = false
				break
			}
			entries[i] = it.Entry
		}
		if !ok {
			continue
		}
		if !fn(id, entries[:len(lists)]) {
			return
		}
	}
}

// idfOf is the smoothed inverse document frequency of a term's posting list.
func (idx *Index) idfOf(l *postings.List) float64 {
	df := l.Len()
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(idx.docCount)/float64(df))
}

// scratch bundles the per-query decode state Match and its siblings reuse:
// token and column buffers, iterators, and per-term idf values. Pooled so
// steady-state matching allocates only its results.
type scratch struct {
	tokens  []string
	lists   []*postings.List
	iters   []postings.Iterator
	entries []postings.Entry
	idf     []float64
	colIDs  []uint32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) } //kwslint:ignore pooledescape paired accessor of putScratch; every caller defers putScratch
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// Match returns the tuples matching the keyword, sorted by descending score
// then tuple id. A keyword that tokenizes into several terms matches tuples
// containing all of them (conjunctive semantics). Unknown keywords return no
// matches.
func (idx *Index) Match(keyword string) []Match {
	sc := getScratch()
	defer putScratch(sc)
	terms := TokenizeInto(sc.tokens[:0], keyword)
	sc.tokens = terms
	if len(terms) == 0 {
		return nil
	}
	lists, seed, ok := idx.resolveLists(sc, terms)
	if !ok {
		return nil
	}
	idfs := sc.idf[:0]
	for _, l := range lists {
		idfs = append(idfs, idx.idfOf(l))
	}
	sc.idf = idfs
	// Result capacity: the rarest list bounds the intersection size.
	out := make([]Match, 0, lists[seed].Len())
	idx.intersect(sc, lists, seed, func(id uint32, entries []postings.Entry) bool {
		score := 0.0
		colIDs := sc.colIDs[:0]
		for i, e := range entries {
			score += (1 + math.Log(float64(e.TF))) * idfs[i]
			for _, c := range e.Cols {
				if !containsU32(colIDs, c) {
					colIDs = append(colIDs, c)
				}
			}
		}
		sc.colIDs = colIDs[:0]
		cols := make([]string, 0, len(colIDs))
		for _, c := range colIDs {
			cols = append(cols, idx.cols.String(c))
		}
		sort.Strings(cols)
		out = append(out, Match{Tuple: idx.tuples.ID(id), Score: score, Columns: cols})
		return true
	})
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tuple.Less(out[j].Tuple)
	})
	return out
}

// MatchIDs returns the dense tuple IDs matching the keyword, ascending by
// interned ID (not by tuple-identifier order — sort via Tuples().Less when
// the string-space order matters). Same conjunctive semantics as Match,
// without scores or columns: this is the entry the search engines seed from.
func (idx *Index) MatchIDs(keyword string) []uint32 {
	sc := getScratch()
	defer putScratch(sc)
	terms := TokenizeInto(sc.tokens[:0], keyword)
	sc.tokens = terms
	if len(terms) == 0 {
		return nil
	}
	lists, seed, ok := idx.resolveLists(sc, terms)
	if !ok {
		return nil
	}
	out := make([]uint32, 0, lists[seed].Len())
	idx.intersect(sc, lists, seed, func(id uint32, _ []postings.Entry) bool {
		out = append(out, id)
		return true
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// KeywordTuples returns the set of tuples matching the keyword as a
// string-space map.
func (idx *Index) KeywordTuples(keyword string) map[relation.TupleID]bool {
	ids := idx.MatchIDs(keyword)
	out := make(map[relation.TupleID]bool, len(ids))
	for _, id := range ids {
		out[idx.tuples.ID(id)] = true
	}
	return out
}

// Vocabulary returns the indexed terms in sorted order; useful for workload
// generators that need realistic query keywords.
func (idx *Index) Vocabulary() []string {
	out := make([]string, 0, len(idx.post))
	for t := range idx.post {
		out = append(out, idx.terms.String(t))
	}
	sort.Strings(out)
	return out
}
