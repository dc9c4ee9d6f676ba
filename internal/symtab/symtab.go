// Package symtab implements the engine's per-generation symbol layer: dense
// uint32 handles for strings (index terms, column names, foreign-key labels)
// and for tuple identifiers. The hot structures of the data graph, the
// inverted index and the search engines operate on these handles — cache-line
// friendly integers instead of pointer-heavy string maps — and convert back
// to the string space only at answer-annotation and render time.
//
// Interning is copy-on-write across generations: Extend returns a new layer
// that shares every symbol of its (now frozen) parent, so an ID interned in
// generation N denotes the same symbol in every later generation, and readers
// pinned to an old snapshot are never disturbed by a writer extending the
// table. Lookups walk the layer chain; Extend flattens the chain once it gets
// deep, keeping lookups O(1) amortized.
package symtab

import (
	"repro/internal/relation"
)

// maxDepth bounds the layer chain: Extend flattens a table whose chain would
// exceed it, so chained lookups stay cheap no matter how many generations a
// long-lived engine publishes.
const maxDepth = 8

// Strings interns strings into dense uint32 IDs starting at 0. The zero
// value is not usable; call NewStrings.
//
// A Strings is single-writer: Intern may only be called on the newest layer
// (interning on a layer that has been extended panics). Lookup, String and
// Len are safe for concurrent use with each other on any layer once the
// layer's writer is done, which is the engine's generation discipline.
type Strings struct {
	parent *Strings
	base   uint32
	syms   []string
	lookup map[string]uint32
	depth  int
	frozen bool
}

// NewStrings returns an empty, mutable string table.
func NewStrings() *Strings {
	return &Strings{lookup: make(map[string]uint32)}
}

// Len returns the number of interned strings; valid IDs are [0, Len).
func (t *Strings) Len() int { return int(t.base) + len(t.syms) }

// Intern returns the ID of s, assigning the next dense ID on first sight.
func (t *Strings) Intern(s string) uint32 {
	if t.frozen {
		panic("symtab: Intern on a frozen Strings layer")
	}
	if id, ok := t.Lookup(s); ok {
		return id
	}
	id := uint32(t.Len())
	t.syms = append(t.syms, s)
	t.lookup[s] = id
	return id
}

// Lookup returns the ID of s and whether it is interned.
func (t *Strings) Lookup(s string) (uint32, bool) {
	for l := t; l != nil; l = l.parent {
		if id, ok := l.lookup[s]; ok {
			return id, true
		}
	}
	return 0, false
}

// String returns the string of an interned ID. IDs outside [0, Len) panic:
// they can only come from mixing tables of unrelated generations.
func (t *Strings) String(id uint32) string {
	for l := t; l != nil; l = l.parent {
		if id >= l.base {
			return l.syms[id-l.base]
		}
	}
	panic("symtab: String on an ID below the root layer")
}

// Extend freezes t and returns a new mutable layer sharing every existing
// symbol and ID. Multiple layers may be extended from the same parent (for
// example when a staged generation is abandoned before publication); their
// additions are independent but IDs inherited from the parent coincide.
func (t *Strings) Extend() *Strings {
	t.frozen = true
	if t.depth+1 >= maxDepth {
		return t.flatten()
	}
	return &Strings{
		parent: t,
		base:   uint32(t.Len()),
		lookup: make(map[string]uint32),
		depth:  t.depth + 1,
	}
}

// flatten merges the whole chain into a single mutable layer.
func (t *Strings) flatten() *Strings {
	n := t.Len()
	flat := &Strings{
		syms:   make([]string, n),
		lookup: make(map[string]uint32, n),
	}
	for l := t; l != nil; l = l.parent {
		copy(flat.syms[l.base:], l.syms)
	}
	for id, s := range flat.syms {
		flat.lookup[s] = uint32(id)
	}
	return flat
}

// Tuples interns relation.TupleID values into dense uint32 IDs, with the
// same copy-on-write layering as Strings. The canonical assignment for a
// freshly built database is ForDatabase, which every substrate derives
// independently — so a graph and an index built over the same database agree
// on every tuple's ID without sharing a table object.
type Tuples struct {
	parent *Tuples
	base   uint32
	ids    []relation.TupleID
	lookup map[relation.TupleID]uint32
	depth  int
	frozen bool
}

// ForDatabase interns every tuple of the database in canonical order: tables
// in creation order, tuples in insertion order. Substrates built separately
// over the same database therefore assign identical IDs, and substrates
// maintained incrementally stay aligned by extending with the same mutation
// batches in the same order.
func ForDatabase(db *relation.Database) *Tuples {
	t := &Tuples{lookup: make(map[relation.TupleID]uint32, db.TupleCount())}
	for _, tab := range db.Tables() {
		for _, tup := range tab.Tuples() {
			t.Intern(tup.ID())
		}
	}
	return t
}

// Len returns the number of interned tuple IDs; valid IDs are [0, Len).
func (t *Tuples) Len() int { return int(t.base) + len(t.ids) }

// Intern returns the dense ID of the tuple, assigning the next one on first
// sight. IDs are never reclaimed: a deleted tuple keeps its ID, and
// re-inserting the same identity reuses it.
func (t *Tuples) Intern(id relation.TupleID) uint32 {
	if t.frozen {
		panic("symtab: Intern on a frozen Tuples layer")
	}
	if dense, ok := t.Lookup(id); ok {
		return dense
	}
	dense := uint32(t.Len())
	t.ids = append(t.ids, id)
	t.lookup[id] = dense
	return dense
}

// Lookup returns the dense ID of the tuple and whether it is interned.
func (t *Tuples) Lookup(id relation.TupleID) (uint32, bool) {
	for l := t; l != nil; l = l.parent {
		if dense, ok := l.lookup[id]; ok {
			return dense, true
		}
	}
	return 0, false
}

// ID returns the tuple identifier of an interned dense ID.
func (t *Tuples) ID(dense uint32) relation.TupleID {
	for l := t; l != nil; l = l.parent {
		if dense >= l.base {
			return l.ids[dense-l.base]
		}
	}
	panic("symtab: ID below the root layer")
}

// Less orders two dense IDs by the lexicographic order of the tuple
// identifiers they denote — the tie-break order every rendered output uses.
func (t *Tuples) Less(a, b uint32) bool {
	return t.ID(a).Less(t.ID(b))
}

// Extend freezes t and returns a new mutable layer sharing every existing
// ID, flattening the chain when it gets deep.
func (t *Tuples) Extend() *Tuples {
	t.frozen = true
	if t.depth+1 >= maxDepth {
		return t.flatten()
	}
	return &Tuples{
		parent: t,
		base:   uint32(t.Len()),
		lookup: make(map[relation.TupleID]uint32),
		depth:  t.depth + 1,
	}
}

func (t *Tuples) flatten() *Tuples {
	n := t.Len()
	flat := &Tuples{
		ids:    make([]relation.TupleID, n),
		lookup: make(map[relation.TupleID]uint32, n),
	}
	for l := t; l != nil; l = l.parent {
		copy(flat.ids[l.base:], l.ids)
	}
	for dense, id := range flat.ids {
		flat.lookup[id] = uint32(dense)
	}
	return flat
}
