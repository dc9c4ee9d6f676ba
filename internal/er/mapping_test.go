package er

import (
	"testing"

	"repro/internal/relation"
)

func TestToRelationalCompanySchema(t *testing.T) {
	schemas, mapping, err := ToRelational(companyER(t))
	if err != nil {
		t.Fatalf("ToRelational: %v", err)
	}
	if len(schemas) != 5 {
		t.Fatalf("got %d relational schemas, want 5 (4 entities + 1 middle)", len(schemas))
	}
	byName := make(map[string]*relation.Schema)
	for _, s := range schemas {
		byName[s.Name] = s
	}
	emp, ok := byName["EMPLOYEE"]
	if !ok {
		t.Fatal("EMPLOYEE relation missing")
	}
	if !emp.HasColumn("D_ID") {
		t.Errorf("EMPLOYEE should carry foreign key column D_ID (works_for): %v", emp.ColumnNames())
	}
	if len(emp.ForeignKeys) != 1 || emp.ForeignKeys[0].RefRelation != "DEPARTMENT" {
		t.Errorf("EMPLOYEE foreign keys = %+v", emp.ForeignKeys)
	}
	proj := byName["PROJECT"]
	if !proj.HasColumn("D_ID") || len(proj.ForeignKeys) != 1 || proj.ForeignKeys[0].RefRelation != "DEPARTMENT" {
		t.Errorf("PROJECT = %s", proj)
	}
	dep := byName["DEPENDENT"]
	if !dep.HasColumn("ESSN") || dep.ForeignKeys[0].RefRelation != "EMPLOYEE" {
		t.Errorf("DEPENDENT = %s", dep)
	}
	middle, ok := byName["WORKS_FOR_REL"]
	if !ok {
		t.Fatal("middle relation WORKS_FOR_REL missing")
	}
	if !middle.IsJunction() {
		t.Errorf("middle relation should be a junction: %s", middle)
	}
	if !middle.HasColumn("ESSN") || !middle.HasColumn("P_ID") || !middle.HasColumn("HOURS") {
		t.Errorf("middle relation columns = %v", middle.ColumnNames())
	}
	if len(middle.PrimaryKey) != 2 {
		t.Errorf("middle relation primary key = %v", middle.PrimaryKey)
	}

	// Mapping records the correspondences.
	if mapping.EntityRelation["EMPLOYEE"] != "EMPLOYEE" {
		t.Errorf("EntityRelation = %v", mapping.EntityRelation)
	}
	if mapping.RelationshipMiddle["WORKS_ON"] != "WORKS_FOR_REL" {
		t.Errorf("RelationshipMiddle = %v", mapping.RelationshipMiddle)
	}
	if !mapping.IsMiddleRelation("WORKS_FOR_REL") || mapping.IsMiddleRelation("EMPLOYEE") {
		t.Error("IsMiddleRelation misbehaves")
	}
	if fk, ok := mapping.RelationshipFK["WORKS_FOR"]; !ok || fk.Owner != "EMPLOYEE" {
		t.Errorf("RelationshipFK[WORKS_FOR] = %+v, %v", fk, ok)
	}
	if name, ok := mapping.RelationshipForFK("EMPLOYEE", "WORKS_FOR"); !ok || name != "WORKS_FOR" {
		t.Errorf("RelationshipForFK = %q, %v", name, ok)
	}
}

func TestToRelationalProducesValidDatabase(t *testing.T) {
	schemas, _, err := ToRelational(companyER(t))
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase("company")
	for _, s := range schemas {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatalf("CreateTable(%s): %v", s.Name, err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Errorf("generated catalog invalid: %v", err)
	}
}

func TestToRelationalManyToOnePlacesFKOnSource(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "EMPLOYEE", Attributes: []Attribute{{Name: "SSN", Type: relation.TypeString, Key: true}}})
	s.MustAddEntity(&EntityType{Name: "DEPARTMENT", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	// EMPLOYEE N:1 DEPARTMENT (reading employee->department): FK on EMPLOYEE.
	s.MustAddRelationship(&RelationshipType{
		Name: "WORKS_FOR", Source: "EMPLOYEE", Target: "DEPARTMENT", Cardinality: ManyToOne,
		TargetFKColumn: "D_ID",
	})
	schemas, mapping, err := ToRelational(s)
	if err != nil {
		t.Fatal(err)
	}
	var emp *relation.Schema
	for _, sch := range schemas {
		if sch.Name == "EMPLOYEE" {
			emp = sch
		}
	}
	if emp == nil || !emp.HasColumn("D_ID") || len(emp.ForeignKeys) != 1 {
		t.Fatalf("EMPLOYEE = %v", emp)
	}
	if fk := mapping.RelationshipFK["WORKS_FOR"]; fk.Owner != "EMPLOYEE" {
		t.Errorf("FK owner = %s, want EMPLOYEE", fk.Owner)
	}
}

func TestToRelationalOneToOne(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "EMPLOYEE", Attributes: []Attribute{{Name: "SSN", Type: relation.TypeString, Key: true}}})
	s.MustAddEntity(&EntityType{Name: "BADGE", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddRelationship(&RelationshipType{Name: "HOLDS", Source: "EMPLOYEE", Target: "BADGE", Cardinality: OneToOne})
	schemas, _, err := ToRelational(s)
	if err != nil {
		t.Fatal(err)
	}
	var badge *relation.Schema
	for _, sch := range schemas {
		if sch.Name == "BADGE" {
			badge = sch
		}
	}
	if badge == nil || len(badge.ForeignKeys) != 1 || badge.ForeignKeys[0].RefRelation != "EMPLOYEE" {
		t.Errorf("1:1 should place FK on target: %v", badge)
	}
}

func TestToRelationalDerivedFKColumnNames(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "A", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddEntity(&EntityType{Name: "B", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddRelationship(&RelationshipType{Name: "OWNS", Source: "A", Target: "B", Cardinality: OneToMany})
	schemas, _, err := ToRelational(s)
	if err != nil {
		t.Fatal(err)
	}
	var b *relation.Schema
	for _, sch := range schemas {
		if sch.Name == "B" {
			b = sch
		}
	}
	if b == nil || !b.HasColumn("OWNS_ID") {
		t.Errorf("derived FK column missing: %v", b)
	}
}

func TestToRelationalCompositeKeyOverrideRejected(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "A", Attributes: []Attribute{
		{Name: "K1", Type: relation.TypeString, Key: true},
		{Name: "K2", Type: relation.TypeString, Key: true},
	}})
	s.MustAddEntity(&EntityType{Name: "B", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddRelationship(&RelationshipType{
		Name: "r", Source: "A", Target: "B", Cardinality: OneToMany, SourceFKColumn: "A_ID",
	})
	if _, _, err := ToRelational(s); err == nil {
		t.Error("single override for composite key should fail")
	}
}

func TestToRelationalMiddleRelationCollision(t *testing.T) {
	s := NewSchema("t")
	s.MustAddEntity(&EntityType{Name: "A", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddEntity(&EntityType{Name: "B", Attributes: []Attribute{{Name: "ID", Type: relation.TypeString, Key: true}}})
	s.MustAddRelationship(&RelationshipType{Name: "A", Source: "A", Target: "B", Cardinality: ManyToMany})
	if _, _, err := ToRelational(s); err == nil {
		t.Error("middle relation colliding with entity relation should fail")
	}
}

func TestRoundTripERToRelationalToER(t *testing.T) {
	schemas, _, err := ToRelational(companyER(t))
	if err != nil {
		t.Fatal(err)
	}
	derived, _, err := FromRelational("derived", schemas, nil)
	if err != nil {
		t.Fatalf("FromRelational: %v", err)
	}
	// The derived conceptual schema has the same four entity types and an
	// N:M relationship between EMPLOYEE and PROJECT via the middle relation.
	if got := len(derived.Entities()); got != 4 {
		t.Errorf("derived entities = %v", derived.Entities())
	}
	var foundNM bool
	for _, r := range derived.Relationships() {
		if r.Cardinality == ManyToMany {
			foundNM = true
			if !(r.Source == "EMPLOYEE" && r.Target == "PROJECT") && !(r.Source == "PROJECT" && r.Target == "EMPLOYEE") {
				t.Errorf("derived N:M between %s and %s", r.Source, r.Target)
			}
		}
	}
	if !foundNM {
		t.Error("derived schema lost the N:M relationship")
	}
	if got := len(derived.Relationships()); got != 4 {
		t.Errorf("derived relationships = %d, want 4", got)
	}
}
