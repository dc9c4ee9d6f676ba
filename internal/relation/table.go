package relation

import (
	"fmt"
	"sort"
)

// Table holds the extension (the tuples) of one relation together with a
// primary-key index and per-foreign-key secondary indexes used by joins and
// by the data-graph construction.
type Table struct {
	schema *Schema
	tuples []*Tuple
	byPK   map[string]*Tuple
	// byFK maps foreign-key label -> encoded referenced key -> referencing tuples.
	byFK map[string]map[string][]*Tuple
}

// NewTable creates an empty table for the schema.
func NewTable(schema *Schema) *Table {
	return &Table{
		schema: schema,
		byPK:   make(map[string]*Tuple),
		byFK:   make(map[string]map[string][]*Tuple),
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the relation name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of tuples in the table.
func (t *Table) Len() int { return len(t.tuples) }

// Insert adds a tuple given a column->value map. Missing columns become NULL.
// It validates column names, types (with loss-free coercion), primary-key
// presence and uniqueness, and indexes the tuple. The inserted tuple is
// returned.
func (t *Table) Insert(values map[string]Value) (*Tuple, error) {
	row := make([]Value, len(t.schema.Columns))
	for name := range values {
		if !t.schema.HasColumn(name) {
			return nil, fmt.Errorf("relation: %s has no column %s", t.schema.Name, name)
		}
	}
	for i, col := range t.schema.Columns {
		v, ok := values[col.Name]
		if !ok || v.IsNull() {
			if t.schema.IsPrimaryKeyColumn(col.Name) {
				return nil, fmt.Errorf("relation: %s: primary key column %s is NULL", t.schema.Name, col.Name)
			}
			if !col.Nullable && ok {
				// explicit NULL into a NOT NULL column
				return nil, fmt.Errorf("relation: %s: column %s is not nullable", t.schema.Name, col.Name)
			}
			row[i] = Null()
			continue
		}
		cv, err := v.Coerce(col.Type)
		if err != nil {
			return nil, fmt.Errorf("relation: %s.%s: %w", t.schema.Name, col.Name, err)
		}
		row[i] = cv
	}
	tup := &Tuple{schema: t.schema, values: row}
	key := EncodeKey(tup.PrimaryKey())
	if _, dup := t.byPK[key]; dup {
		return nil, fmt.Errorf("relation: %s: duplicate primary key %q", t.schema.Name, key)
	}
	tup.id = TupleID{Relation: t.schema.Name, Key: key}
	t.tuples = append(t.tuples, tup)
	t.byPK[key] = tup
	t.indexForeignKeys(tup)
	return tup, nil
}

// InsertRow adds a tuple given positional values in schema column order.
func (t *Table) InsertRow(values ...Value) (*Tuple, error) {
	if len(values) != len(t.schema.Columns) {
		return nil, fmt.Errorf("relation: %s expects %d values, got %d",
			t.schema.Name, len(t.schema.Columns), len(values))
	}
	m := make(map[string]Value, len(values))
	for i, col := range t.schema.Columns {
		m[col.Name] = values[i]
	}
	return t.Insert(m)
}

func (t *Table) indexForeignKeys(tup *Tuple) {
	for _, fk := range t.schema.ForeignKeys {
		vals, ok := tup.ForeignKeyValues(fk)
		if !ok {
			continue
		}
		label := fk.Label()
		idx := t.byFK[label]
		if idx == nil {
			idx = make(map[string][]*Tuple)
			t.byFK[label] = idx
		}
		key := EncodeKey(vals)
		idx[key] = append(idx[key], tup)
	}
}

// Delete removes the tuple with the given encoded primary key from the
// table and all of its indexes, preserving the insertion order of the
// remaining tuples. It returns the removed tuple, or false when no tuple has
// the key. The removed tuple itself stays valid (tuples are immutable), so
// callers can still read its values — the incremental index and graph
// maintenance rely on this to compute removal deltas.
func (t *Table) Delete(key string) (*Tuple, bool) {
	tup, ok := t.byPK[key]
	if !ok {
		return nil, false
	}
	delete(t.byPK, key)
	for i, cur := range t.tuples {
		if cur == tup {
			t.tuples = append(t.tuples[:i:i], t.tuples[i+1:]...)
			break
		}
	}
	t.unindexForeignKeys(tup)
	return tup, true
}

func (t *Table) unindexForeignKeys(tup *Tuple) {
	for _, fk := range t.schema.ForeignKeys {
		vals, ok := tup.ForeignKeyValues(fk)
		if !ok {
			continue
		}
		idx := t.byFK[fk.Label()]
		if idx == nil {
			continue
		}
		key := EncodeKey(vals)
		tups := idx[key]
		for i, cur := range tups {
			if cur == tup {
				tups = append(tups[:i:i], tups[i+1:]...)
				break
			}
		}
		if len(tups) == 0 {
			delete(idx, key)
		} else {
			idx[key] = tups
		}
	}
}

// Clone returns a copy of the table that shares the immutable tuples but owns
// every index structure: the tuple slice, the primary-key index and the
// per-foreign-key indexes are all fresh, so Insert and Delete on the clone
// never touch the receiver (and vice versa). Copy-on-write snapshots build on
// this.
func (t *Table) Clone() *Table {
	nt := &Table{
		schema: t.schema,
		tuples: append([]*Tuple(nil), t.tuples...),
		byPK:   make(map[string]*Tuple, len(t.byPK)),
		byFK:   make(map[string]map[string][]*Tuple, len(t.byFK)),
	}
	for k, tup := range t.byPK {
		nt.byPK[k] = tup
	}
	for label, idx := range t.byFK {
		ni := make(map[string][]*Tuple, len(idx))
		for key, tups := range idx {
			ni[key] = append([]*Tuple(nil), tups...)
		}
		nt.byFK[label] = ni
	}
	return nt
}

// ByPrimaryKey returns the tuple with the given encoded primary key.
func (t *Table) ByPrimaryKey(key string) (*Tuple, bool) {
	tup, ok := t.byPK[key]
	return tup, ok
}

// ReferencingTuples returns the tuples of this table whose foreign key fk
// points at the given encoded referenced key. The result is in insertion
// order.
func (t *Table) ReferencingTuples(fk ForeignKey, refKey string) []*Tuple {
	idx := t.byFK[fk.Label()]
	if idx == nil {
		return nil
	}
	return idx[refKey]
}

// Tuples returns the table's tuples in insertion order. The returned slice
// must not be modified.
func (t *Table) Tuples() []*Tuple { return t.tuples }

// SortedTuples returns the tuples ordered by primary key; used for
// deterministic rendering of tables in reports.
func (t *Table) SortedTuples() []*Tuple {
	out := append([]*Tuple(nil), t.tuples...)
	sort.Slice(out, func(i, j int) bool { return out[i].id.Key < out[j].id.Key })
	return out
}
