package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation schema.
type Column struct {
	// Name is the attribute name, unique within the relation.
	Name string
	// Type is the column type.
	Type Type
	// Nullable reports whether NULL values are accepted. Primary-key
	// columns are never nullable regardless of this flag.
	Nullable bool
}

// ForeignKey is a referential constraint from this relation to another.
type ForeignKey struct {
	// Name is an optional constraint name used in diagnostics and as an
	// edge label in the schema graph. When empty a name is derived from
	// the referencing columns.
	Name string
	// Columns are the referencing columns in the owning relation.
	Columns []string
	// RefRelation is the referenced relation.
	RefRelation string
	// RefColumns are the referenced columns (normally the primary key of
	// RefRelation). Must be parallel to Columns.
	RefColumns []string
}

// Label returns the constraint name, deriving one from the referencing
// columns when no explicit name was given.
func (fk ForeignKey) Label() string {
	if fk.Name != "" {
		return fk.Name
	}
	return fmt.Sprintf("fk_%s_%s", strings.Join(fk.Columns, "_"), fk.RefRelation)
}

// Schema describes a relation: its name, attributes and key constraints.
type Schema struct {
	// Name is the relation name, unique within a database.
	Name string
	// Columns are the attributes in declaration order.
	Columns []Column
	// PrimaryKey lists the primary-key columns (at least one).
	PrimaryKey []string
	// ForeignKeys lists the referential constraints owned by the relation.
	ForeignKeys []ForeignKey

	colIndex map[string]int
}

// NewSchema constructs a schema and validates it.
func NewSchema(name string, columns []Column, primaryKey []string, foreignKeys ...ForeignKey) (*Schema, error) {
	s := &Schema{
		Name:        name,
		Columns:     append([]Column(nil), columns...),
		PrimaryKey:  append([]string(nil), primaryKey...),
		ForeignKeys: append([]ForeignKey(nil), foreignKeys...),
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.buildIndex()
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically known schemas in fixtures and examples.
func MustSchema(name string, columns []Column, primaryKey []string, foreignKeys ...ForeignKey) *Schema {
	s, err := NewSchema(name, columns, primaryKey, foreignKeys...)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Schema) buildIndex() {
	s.colIndex = make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		s.colIndex[c.Name] = i
	}
}

// Validate checks the internal consistency of the schema: non-empty name,
// unique column names, a primary key over existing columns, and foreign keys
// whose referencing columns exist and are parallel to the referenced ones.
// Cross-relation checks (the referenced relation and columns exist) are
// performed by Database.Validate.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relation: schema with empty name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relation: schema %s has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relation: schema %s has a column with empty name", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relation: schema %s has duplicate column %s", s.Name, c.Name)
		}
		if c.Type == TypeNull {
			return fmt.Errorf("relation: schema %s column %s has no type", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if len(s.PrimaryKey) == 0 {
		return fmt.Errorf("relation: schema %s has no primary key", s.Name)
	}
	pkSeen := make(map[string]bool, len(s.PrimaryKey))
	for _, pk := range s.PrimaryKey {
		if !seen[pk] {
			return fmt.Errorf("relation: schema %s primary key column %s does not exist", s.Name, pk)
		}
		if pkSeen[pk] {
			return fmt.Errorf("relation: schema %s primary key repeats column %s", s.Name, pk)
		}
		pkSeen[pk] = true
	}
	for _, fk := range s.ForeignKeys {
		if len(fk.Columns) == 0 {
			return fmt.Errorf("relation: schema %s foreign key %s has no columns", s.Name, fk.Label())
		}
		if len(fk.Columns) != len(fk.RefColumns) {
			return fmt.Errorf("relation: schema %s foreign key %s has %d referencing but %d referenced columns",
				s.Name, fk.Label(), len(fk.Columns), len(fk.RefColumns))
		}
		if fk.RefRelation == "" {
			return fmt.Errorf("relation: schema %s foreign key %s references no relation", s.Name, fk.Label())
		}
		for _, c := range fk.Columns {
			if !seen[c] {
				return fmt.Errorf("relation: schema %s foreign key %s references unknown local column %s",
					s.Name, fk.Label(), c)
			}
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1 when absent.
func (s *Schema) ColumnIndex(name string) int {
	if s.colIndex == nil {
		s.buildIndex()
	}
	if i, ok := s.colIndex[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column definition.
func (s *Schema) Column(name string) (Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// HasColumn reports whether the schema defines the named column.
func (s *Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// ColumnNames returns the attribute names in declaration order.
func (s *Schema) ColumnNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// TextColumns returns the names of TEXT and VARCHAR columns that are not part
// of the primary key and not foreign-key columns; these are the attributes a
// keyword index covers by default.
func (s *Schema) TextColumns() []string {
	key := make(map[string]bool)
	for _, pk := range s.PrimaryKey {
		key[pk] = true
	}
	for _, fk := range s.ForeignKeys {
		for _, c := range fk.Columns {
			key[c] = true
		}
	}
	var out []string
	for _, c := range s.Columns {
		if c.Type.IsTextual() && !key[c.Name] {
			out = append(out, c.Name)
		}
	}
	return out
}

// IsPrimaryKeyColumn reports whether the named column is part of the
// primary key.
func (s *Schema) IsPrimaryKeyColumn(name string) bool {
	for _, pk := range s.PrimaryKey {
		if pk == name {
			return true
		}
	}
	return false
}

// IsJunction reports whether the relation looks like a middle ("junction",
// "bridge") relation implementing an N:M relationship: every primary-key
// column participates in some foreign key and the relation has at least two
// foreign keys. Junction relations contribute zero length to conceptual
// (ER-level) connection lengths.
func (s *Schema) IsJunction() bool {
	if len(s.ForeignKeys) < 2 {
		return false
	}
	fkCols := make(map[string]bool)
	for _, fk := range s.ForeignKeys {
		for _, c := range fk.Columns {
			fkCols[c] = true
		}
	}
	for _, pk := range s.PrimaryKey {
		if !fkCols[pk] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cp := &Schema{
		Name:       s.Name,
		Columns:    append([]Column(nil), s.Columns...),
		PrimaryKey: append([]string(nil), s.PrimaryKey...),
	}
	for _, fk := range s.ForeignKeys {
		cp.ForeignKeys = append(cp.ForeignKeys, ForeignKey{
			Name:        fk.Name,
			Columns:     append([]string(nil), fk.Columns...),
			RefRelation: fk.RefRelation,
			RefColumns:  append([]string(nil), fk.RefColumns...),
		})
	}
	cp.buildIndex()
	return cp
}

// String renders the schema as a CREATE TABLE-like description.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", s.Name)
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	fmt.Fprintf(&b, ", PRIMARY KEY(%s)", strings.Join(s.PrimaryKey, ", "))
	for _, fk := range s.ForeignKeys {
		fmt.Fprintf(&b, ", FOREIGN KEY(%s) REFERENCES %s(%s)",
			strings.Join(fk.Columns, ", "), fk.RefRelation, strings.Join(fk.RefColumns, ", "))
	}
	b.WriteString(")")
	return b.String()
}
