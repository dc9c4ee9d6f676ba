package relation

import (
	"fmt"
	"sort"
	"strings"
)

// TupleID identifies a tuple within a database: the relation name plus the
// encoded primary-key value. It is comparable and usable as a map key, which
// the data graph and the search engines rely on.
type TupleID struct {
	Relation string
	Key      string
}

// String renders the id as relation[key].
func (id TupleID) String() string { return id.Relation + "[" + id.Key + "]" }

// Less orders tuple ids lexicographically by relation then key.
func (id TupleID) Less(o TupleID) bool {
	if id.Relation != o.Relation {
		return id.Relation < o.Relation
	}
	return id.Key < o.Key
}

// EncodeKey joins primary-key value renderings into a single key string.
// A single-column key is its plain rendering; composite keys are joined with
// the ASCII unit separator so they cannot collide with data.
func EncodeKey(values []Value) string {
	if len(values) == 1 {
		return values[0].String()
	}
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = v.String()
	}
	return strings.Join(parts, "\x1f")
}

// Tuple is a row of a relation. Tuples are immutable after insertion.
type Tuple struct {
	schema *Schema
	values []Value
	id     TupleID
}

// Schema returns the schema of the relation the tuple belongs to.
func (t *Tuple) Schema() *Schema { return t.schema }

// ID returns the tuple identifier (relation plus encoded primary key).
func (t *Tuple) ID() TupleID { return t.id }

// Value returns the value of the named column. Unknown columns yield NULL.
func (t *Tuple) Value(column string) Value {
	i := t.schema.ColumnIndex(column)
	if i < 0 {
		return Null()
	}
	return t.values[i]
}

// Values returns a copy of the tuple's values in schema column order.
func (t *Tuple) Values() []Value { return append([]Value(nil), t.values...) }

// PrimaryKey returns the primary-key values in key-declaration order.
func (t *Tuple) PrimaryKey() []Value {
	out := make([]Value, len(t.schema.PrimaryKey))
	for i, col := range t.schema.PrimaryKey {
		out[i] = t.Value(col)
	}
	return out
}

// ForeignKeyValues returns the values of the given foreign key's referencing
// columns, and reports whether all of them are non-NULL (i.e. the reference
// is actually present).
func (t *Tuple) ForeignKeyValues(fk ForeignKey) ([]Value, bool) {
	out := make([]Value, len(fk.Columns))
	for i, col := range fk.Columns {
		v := t.Value(col)
		if v.IsNull() {
			return out, false
		}
		out[i] = v
	}
	return out, true
}

// String renders the tuple as relation(col=value, ...) with columns in
// declaration order.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.schema.Name)
	b.WriteString("(")
	for i, c := range t.schema.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", c.Name, t.values[i].String())
	}
	b.WriteString(")")
	return b.String()
}

// SortTupleIDs sorts a slice of tuple ids in place (relation, then key) and
// returns it, for deterministic output.
func SortTupleIDs(ids []TupleID) []TupleID {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}
