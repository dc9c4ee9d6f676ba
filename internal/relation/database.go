package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Database is a catalog of tables plus the referential structure between
// them. It offers primary-key and foreign-key navigation, integrity
// checking, and the statistics the experiment harness reports.
type Database struct {
	// Name is a human-readable database name used in reports.
	Name   string
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// CreateTable adds a table for the schema. The schema name must be unique.
func (db *Database) CreateTable(schema *Schema) (*Table, error) {
	if schema == nil {
		return nil, fmt.Errorf("relation: nil schema")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if _, exists := db.tables[schema.Name]; exists {
		return nil, fmt.Errorf("relation: table %s already exists", schema.Name)
	}
	t := NewTable(schema)
	db.tables[schema.Name] = t
	db.order = append(db.order, schema.Name)
	return t, nil
}

// MustCreateTable is CreateTable but panics on error; for fixtures.
func (db *Database) MustCreateTable(schema *Schema) *Table {
	t, err := db.CreateTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Clone returns a shallow copy of the catalog: the clone owns its table map
// and creation order but shares the *Table values with the receiver. Pair it
// with Table.Clone and SetTable to mutate a database copy-on-write — clone
// the catalog, clone only the tables being written, and leave every other
// table shared with the original.
func (db *Database) Clone() *Database {
	nd := &Database{
		Name:   db.Name,
		tables: make(map[string]*Table, len(db.tables)),
		order:  append([]string(nil), db.order...),
	}
	for name, t := range db.tables {
		nd.tables[name] = t
	}
	return nd
}

// SetTable replaces the same-named table of the catalog, typically with a
// clone about to be mutated. The table must already exist: SetTable is a
// copy-on-write hook, not DDL.
func (db *Database) SetTable(t *Table) error {
	if t == nil {
		return fmt.Errorf("relation: nil table")
	}
	if _, ok := db.tables[t.Name()]; !ok {
		return fmt.Errorf("relation: SetTable: unknown table %s", t.Name())
	}
	db.tables[t.Name()] = t
	return nil
}

// Table returns the named table.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns the table names in creation order.
func (db *Database) TableNames() []string { return append([]string(nil), db.order...) }

// Tables returns the tables in creation order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, name := range db.order {
		out = append(out, db.tables[name])
	}
	return out
}

// Schemas returns the schemas in creation order.
func (db *Database) Schemas() []*Schema {
	out := make([]*Schema, 0, len(db.order))
	for _, name := range db.order {
		out = append(out, db.tables[name].Schema())
	}
	return out
}

// Tuple resolves a tuple id to its tuple.
func (db *Database) Tuple(id TupleID) (*Tuple, bool) {
	t, ok := db.tables[id.Relation]
	if !ok {
		return nil, false
	}
	return t.ByPrimaryKey(id.Key)
}

// TupleCount returns the total number of tuples across all tables.
func (db *Database) TupleCount() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// Validate checks cross-relation consistency of the catalog: every foreign
// key references an existing relation and existing columns of compatible
// types, and the referenced columns form the referenced relation's primary
// key (the common case this engine supports).
func (db *Database) Validate() error {
	for _, name := range db.order {
		s := db.tables[name].Schema()
		for _, fk := range s.ForeignKeys {
			ref, ok := db.tables[fk.RefRelation]
			if !ok {
				return fmt.Errorf("relation: %s foreign key %s references unknown relation %s",
					s.Name, fk.Label(), fk.RefRelation)
			}
			rs := ref.Schema()
			for i, rc := range fk.RefColumns {
				col, ok := rs.Column(rc)
				if !ok {
					return fmt.Errorf("relation: %s foreign key %s references unknown column %s.%s",
						s.Name, fk.Label(), fk.RefRelation, rc)
				}
				local, _ := s.Column(fk.Columns[i])
				if col.Type.IsTextual() != local.Type.IsTextual() &&
					!(col.Type == TypeInt && local.Type == TypeInt) {
					return fmt.Errorf("relation: %s foreign key %s: column %s type %s incompatible with %s.%s type %s",
						s.Name, fk.Label(), fk.Columns[i], local.Type, fk.RefRelation, rc, col.Type)
				}
			}
			if len(fk.RefColumns) != len(rs.PrimaryKey) {
				return fmt.Errorf("relation: %s foreign key %s must reference the primary key of %s",
					s.Name, fk.Label(), fk.RefRelation)
			}
			for i, rc := range fk.RefColumns {
				if rs.PrimaryKey[i] != rc {
					return fmt.Errorf("relation: %s foreign key %s must reference the primary key of %s in key order",
						s.Name, fk.Label(), fk.RefRelation)
				}
			}
		}
	}
	return nil
}

// CheckIntegrity verifies referential integrity of the data: every non-NULL
// foreign-key value resolves to an existing referenced tuple. It returns all
// violations found (empty means the instance is consistent).
func (db *Database) CheckIntegrity() []error {
	var errs []error
	for _, name := range db.order {
		t := db.tables[name]
		s := t.Schema()
		for _, fk := range s.ForeignKeys {
			ref, ok := db.tables[fk.RefRelation]
			if !ok {
				errs = append(errs, fmt.Errorf("relation: %s references missing relation %s", s.Name, fk.RefRelation))
				continue
			}
			for _, tup := range t.Tuples() {
				vals, present := tup.ForeignKeyValues(fk)
				if !present {
					continue
				}
				key := EncodeKey(vals)
				if _, ok := ref.ByPrimaryKey(key); !ok {
					errs = append(errs, fmt.Errorf("relation: %s dangling foreign key %s -> %s[%s]",
						tup.ID(), fk.Label(), fk.RefRelation, key))
				}
			}
		}
	}
	return errs
}

// ReferencedTuple follows foreign key fk from tuple tup to the tuple it
// references, if the reference is present and resolves.
func (db *Database) ReferencedTuple(tup *Tuple, fk ForeignKey) (*Tuple, bool) {
	vals, present := tup.ForeignKeyValues(fk)
	if !present {
		return nil, false
	}
	ref, ok := db.tables[fk.RefRelation]
	if !ok {
		return nil, false
	}
	return ref.ByPrimaryKey(EncodeKey(vals))
}

// Stats summarises the database for reports.
type Stats struct {
	Relations    int
	Tuples       int
	ForeignKeys  int
	JunctionRels int
	PerRelation  map[string]int
}

// Stats computes catalog statistics.
func (db *Database) Stats() Stats {
	st := Stats{PerRelation: make(map[string]int, len(db.order))}
	for _, name := range db.order {
		t := db.tables[name]
		st.Relations++
		st.Tuples += t.Len()
		st.ForeignKeys += len(t.Schema().ForeignKeys)
		if t.Schema().IsJunction() {
			st.JunctionRels++
		}
		st.PerRelation[name] = t.Len()
	}
	return st
}

// String renders a short summary of the database.
func (db *Database) String() string {
	st := db.Stats()
	names := append([]string(nil), db.order...)
	sort.Strings(names)
	return fmt.Sprintf("Database %s: %d relations, %d tuples (%s)",
		db.Name, st.Relations, st.Tuples, strings.Join(names, ", "))
}
