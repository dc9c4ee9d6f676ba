package er

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

// companyER builds the paper's Figure 1 ER schema: DEPARTMENT, EMPLOYEE,
// PROJECT, DEPENDENT with WORKS_FOR (1:N), WORKS_ON (N:M), CONTROLS (1:N)
// and DEPENDENTS_OF (1:N).
func companyER(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema("company")
	s.MustAddEntity(&EntityType{Name: "DEPARTMENT", Attributes: []Attribute{
		{Name: "ID", Type: relation.TypeString, Key: true},
		{Name: "D_NAME", Type: relation.TypeString},
		{Name: "D_DESCRIPTION", Type: relation.TypeText, Nullable: true},
	}})
	s.MustAddEntity(&EntityType{Name: "EMPLOYEE", Attributes: []Attribute{
		{Name: "SSN", Type: relation.TypeString, Key: true},
		{Name: "L_NAME", Type: relation.TypeString},
		{Name: "S_NAME", Type: relation.TypeString},
	}})
	s.MustAddEntity(&EntityType{Name: "PROJECT", Attributes: []Attribute{
		{Name: "ID", Type: relation.TypeString, Key: true},
		{Name: "P_NAME", Type: relation.TypeString},
		{Name: "P_DESCRIPTION", Type: relation.TypeText, Nullable: true},
	}})
	s.MustAddEntity(&EntityType{Name: "DEPENDENT", Attributes: []Attribute{
		{Name: "ID", Type: relation.TypeString, Key: true},
		{Name: "DEPENDENT_NAME", Type: relation.TypeString},
	}})
	s.MustAddRelationship(&RelationshipType{
		Name: "WORKS_FOR", Source: "DEPARTMENT", Target: "EMPLOYEE", Cardinality: OneToMany,
		SourceFKColumn: "D_ID",
	})
	s.MustAddRelationship(&RelationshipType{
		Name: "CONTROLS", Source: "DEPARTMENT", Target: "PROJECT", Cardinality: OneToMany,
		SourceFKColumn: "D_ID",
	})
	s.MustAddRelationship(&RelationshipType{
		Name: "WORKS_ON", Source: "EMPLOYEE", Target: "PROJECT", Cardinality: ManyToMany,
		SourceFKColumn: "ESSN", TargetFKColumn: "P_ID",
		Attributes:     []Attribute{{Name: "HOURS", Type: relation.TypeInt, Nullable: true}},
		MiddleRelation: "WORKS_FOR_REL",
	})
	s.MustAddRelationship(&RelationshipType{
		Name: "DEPENDENTS_OF", Source: "EMPLOYEE", Target: "DEPENDENT", Cardinality: OneToMany,
		SourceFKColumn: "ESSN",
	})
	return s
}

func TestSchemaAddEntityValidation(t *testing.T) {
	s := NewSchema("t")
	if err := s.AddEntity(&EntityType{Name: ""}); err == nil {
		t.Error("empty entity name should fail")
	}
	if err := s.AddEntity(&EntityType{Name: "A", Attributes: []Attribute{{Name: "X", Type: relation.TypeString}}}); err == nil {
		t.Error("entity without key should fail")
	}
	if err := s.AddEntity(&EntityType{Name: "A", Attributes: []Attribute{
		{Name: "X", Type: relation.TypeString, Key: true},
		{Name: "X", Type: relation.TypeString},
	}}); err == nil {
		t.Error("duplicate attribute should fail")
	}
	ok := &EntityType{Name: "A", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}}
	if err := s.AddEntity(ok); err != nil {
		t.Fatalf("AddEntity: %v", err)
	}
	if err := s.AddEntity(ok); err == nil {
		t.Error("duplicate entity should fail")
	}
}

func TestSchemaAddRelationshipValidation(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "A", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	if err := s.AddRelationship(&RelationshipType{Name: "r", Source: "A", Target: "B", Cardinality: OneToMany}); err == nil {
		t.Error("relationship to unknown entity should fail")
	}
	if err := s.AddRelationship(&RelationshipType{Name: "", Source: "A", Target: "A", Cardinality: OneToMany}); err == nil {
		t.Error("relationship with empty name should fail")
	}
	if err := s.AddRelationship(&RelationshipType{Name: "r", Source: "A", Target: "A", Cardinality: OneToMany}); err != nil {
		t.Fatalf("self relationship should be allowed: %v", err)
	}
	if err := s.AddRelationship(&RelationshipType{Name: "r", Source: "A", Target: "A", Cardinality: OneToMany}); err == nil {
		t.Error("duplicate relationship name should fail")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := companyER(t)
	if got := s.Entities(); len(got) != 4 || got[0].Name != "DEPARTMENT" {
		t.Errorf("Entities = %v", got)
	}
	e, ok := s.Entity("EMPLOYEE")
	if !ok || len(e.Key()) != 1 || e.Key()[0] != "SSN" {
		t.Errorf("Entity(EMPLOYEE) = %+v, %v", e, ok)
	}
	if _, ok := s.Entity("NOPE"); ok {
		t.Error("Entity(NOPE) should be absent")
	}
	a, ok := e.Attribute("L_NAME")
	if !ok || a.Type != relation.TypeString {
		t.Errorf("Attribute(L_NAME) = %+v, %v", a, ok)
	}
	if _, ok := e.Attribute("NOPE"); ok {
		t.Error("Attribute(NOPE) should be absent")
	}
	r, ok := s.Relationship("WORKS_ON")
	if !ok || r.Cardinality != ManyToMany {
		t.Errorf("Relationship(WORKS_ON) = %+v, %v", r, ok)
	}
	if got := len(s.Relationships()); got != 4 {
		t.Errorf("Relationships = %d", got)
	}
}

// other returns the entity type at the other end of the relationship, and
// the cardinality read from the given entity. The second return is false
// when the entity does not participate.
func other(r *RelationshipType, entity string) (string, Cardinality, bool) {
	switch entity {
	case r.Source:
		return r.Target, r.Cardinality, true
	case r.Target:
		return r.Source, r.Cardinality.Reverse(), true
	default:
		return "", Cardinality{}, false
	}
}

func TestRelationshipOther(t *testing.T) {
	s := companyER(t)
	r, _ := s.Relationship("WORKS_FOR")
	end, card, ok := other(r, "DEPARTMENT")
	if !ok || end != "EMPLOYEE" || card != OneToMany {
		t.Errorf("other(DEPARTMENT) = %s, %v, %v", end, card, ok)
	}
	end, card, ok = other(r, "EMPLOYEE")
	if !ok || end != "DEPARTMENT" || card != ManyToOne {
		t.Errorf("other(EMPLOYEE) = %s, %v, %v", end, card, ok)
	}
	if _, _, ok := other(r, "PROJECT"); ok {
		t.Error("other(PROJECT) should report non-participation")
	}
}

func TestSchemaValidateRelationshipAttributes(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "A", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddRelationship(&RelationshipType{
		Name: "r", Source: "A", Target: "A", Cardinality: ManyToMany,
		Attributes: []Attribute{{Name: "X", Type: relation.TypeInt}, {Name: "X", Type: relation.TypeInt}},
	})
	if err := s.Validate(); err == nil {
		t.Error("duplicate relationship attributes should fail validation")
	}
}

func TestDescribeRelationships(t *testing.T) {
	s := companyER(t)
	lines := s.DescribeRelationships()
	if len(lines) != 4 {
		t.Fatalf("DescribeRelationships = %d lines", len(lines))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"DEPARTMENT 1:N EMPLOYEE (WORKS_FOR)",
		"DEPARTMENT 1:N PROJECT (CONTROLS)",
		"EMPLOYEE N:M PROJECT (WORKS_ON)",
		"EMPLOYEE 1:N DEPENDENT (DEPENDENTS_OF)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("DescribeRelationships missing %q in:\n%s", want, joined)
		}
	}
	// Sorted by relationship name.
	if !strings.HasPrefix(lines[0], "DEPARTMENT 1:N PROJECT") {
		t.Errorf("lines not sorted by name: %v", lines)
	}
}
