package er

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Attribute is an attribute of an entity type or relationship type.
type Attribute struct {
	// Name is the attribute name, unique within its owner.
	Name string
	// Type is the value type the attribute holds.
	Type relation.Type
	// Key marks the attribute as part of the entity key. Ignored for
	// relationship attributes.
	Key bool
	// Nullable marks the attribute as optional.
	Nullable bool
}

// EntityType is an entity type of the ER schema.
type EntityType struct {
	// Name is the entity-type name, unique within the schema.
	Name string
	// Attributes are the entity attributes; at least one must be a key
	// attribute.
	Attributes []Attribute
}

// Key returns the names of the key attributes in declaration order.
func (e *EntityType) Key() []string {
	var out []string
	for _, a := range e.Attributes {
		if a.Key {
			out = append(out, a.Name)
		}
	}
	return out
}

// Attribute returns the named attribute.
func (e *EntityType) Attribute(name string) (Attribute, bool) {
	for _, a := range e.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// RelationshipType is a binary relationship between two entity types with a
// cardinality constraint read from Source to Target ("Source X:Y Target").
type RelationshipType struct {
	// Name is the relationship name, unique within the schema.
	Name string
	// Source and Target are entity-type names.
	Source, Target string
	// Cardinality is the constraint read from Source to Target.
	Cardinality Cardinality
	// Attributes are relationship attributes (e.g. HOURS on WORKS_ON).
	Attributes []Attribute
	// SourceFKColumn optionally names the foreign-key column that
	// references the Source entity in the relational mapping (placed on
	// the Target relation for 1:N and 1:1, or in the middle relation for
	// N:M). TargetFKColumn names the column referencing the Target
	// entity. When empty, names are derived from the relationship and
	// key-attribute names. Only single-attribute keys can be overridden.
	SourceFKColumn string
	TargetFKColumn string
	// MiddleRelation optionally overrides the name of the middle relation
	// generated for an N:M relationship. When empty, the relationship
	// name is used.
	MiddleRelation string
}

// Schema is an ER schema: a named collection of entity types and
// relationship types.
type Schema struct {
	// Name is a human-readable schema name.
	Name string

	entities      map[string]*EntityType
	entityOrder   []string
	relationships []*RelationshipType
	relByName     map[string]*RelationshipType
}

// NewSchema creates an empty ER schema.
func NewSchema(name string) *Schema {
	return &Schema{
		Name:      name,
		entities:  make(map[string]*EntityType),
		relByName: make(map[string]*RelationshipType),
	}
}

// AddEntity adds an entity type. The name must be unique and the type must
// declare at least one key attribute.
func (s *Schema) AddEntity(e *EntityType) error {
	if e == nil || e.Name == "" {
		return fmt.Errorf("er: entity type with empty name")
	}
	if _, dup := s.entities[e.Name]; dup {
		return fmt.Errorf("er: duplicate entity type %s", e.Name)
	}
	if len(e.Attributes) == 0 {
		return fmt.Errorf("er: entity type %s has no attributes", e.Name)
	}
	if len(e.Key()) == 0 {
		return fmt.Errorf("er: entity type %s has no key attribute", e.Name)
	}
	seen := make(map[string]bool)
	for _, a := range e.Attributes {
		if a.Name == "" {
			return fmt.Errorf("er: entity type %s has an attribute with empty name", e.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("er: entity type %s has duplicate attribute %s", e.Name, a.Name)
		}
		seen[a.Name] = true
	}
	s.entities[e.Name] = e
	s.entityOrder = append(s.entityOrder, e.Name)
	return nil
}

// MustAddEntity is AddEntity but panics on error; for fixtures.
func (s *Schema) MustAddEntity(e *EntityType) {
	if err := s.AddEntity(e); err != nil {
		panic(err)
	}
}

// AddRelationship adds a relationship type between existing entity types.
func (s *Schema) AddRelationship(r *RelationshipType) error {
	if r == nil || r.Name == "" {
		return fmt.Errorf("er: relationship type with empty name")
	}
	if _, dup := s.relByName[r.Name]; dup {
		return fmt.Errorf("er: duplicate relationship type %s", r.Name)
	}
	if _, ok := s.entities[r.Source]; !ok {
		return fmt.Errorf("er: relationship %s references unknown entity type %s", r.Name, r.Source)
	}
	if _, ok := s.entities[r.Target]; !ok {
		return fmt.Errorf("er: relationship %s references unknown entity type %s", r.Name, r.Target)
	}
	s.relationships = append(s.relationships, r)
	s.relByName[r.Name] = r
	return nil
}

// MustAddRelationship is AddRelationship but panics on error; for fixtures.
func (s *Schema) MustAddRelationship(r *RelationshipType) {
	if err := s.AddRelationship(r); err != nil {
		panic(err)
	}
}

// Entity returns the named entity type.
func (s *Schema) Entity(name string) (*EntityType, bool) {
	e, ok := s.entities[name]
	return e, ok
}

// Entities returns the entity types in insertion order.
func (s *Schema) Entities() []*EntityType {
	out := make([]*EntityType, 0, len(s.entityOrder))
	for _, n := range s.entityOrder {
		out = append(out, s.entities[n])
	}
	return out
}

// Relationship returns the named relationship type.
func (s *Schema) Relationship(name string) (*RelationshipType, bool) {
	r, ok := s.relByName[name]
	return r, ok
}

// Relationships returns the relationship types in insertion order.
func (s *Schema) Relationships() []*RelationshipType {
	return append([]*RelationshipType(nil), s.relationships...)
}

// Validate checks the schema: every relationship endpoint exists (enforced
// at insertion) and relationship names are unique; additionally it rejects
// relationship attributes with duplicate names.
func (s *Schema) Validate() error {
	for _, r := range s.relationships {
		seen := make(map[string]bool)
		for _, a := range r.Attributes {
			if a.Name == "" {
				return fmt.Errorf("er: relationship %s has an attribute with empty name", r.Name)
			}
			if seen[a.Name] {
				return fmt.Errorf("er: relationship %s has duplicate attribute %s", r.Name, a.Name)
			}
			seen[a.Name] = true
		}
	}
	return nil
}

// DescribeRelationships renders one line per relationship, sorted by name,
// in the paper's notation "SOURCE X:Y TARGET (name)"; used by cmd/repro for
// Figure 1.
func (s *Schema) DescribeRelationships() []string {
	rels := s.Relationships()
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	out := make([]string, len(rels))
	for i, r := range rels {
		out[i] = fmt.Sprintf("%s %s %s (%s)", r.Source, r.Cardinality, r.Target, r.Name)
	}
	return out
}
