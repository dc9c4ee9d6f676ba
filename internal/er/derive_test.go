package er

import (
	"testing"

	"repro/internal/relation"
)

// figure2Schemas returns the paper's Figure 2 relational schemas exactly as
// printed (the junction relation is called WORKS_FOR in the paper's figure).
func figure2Schemas() []*relation.Schema {
	department := relation.MustSchema("DEPARTMENT",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "D_NAME", Type: relation.TypeString},
			{Name: "D_DESCRIPTION", Type: relation.TypeText, Nullable: true},
		},
		[]string{"ID"})
	project := relation.MustSchema("PROJECT",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "D_ID", Type: relation.TypeString},
			{Name: "P_NAME", Type: relation.TypeString},
			{Name: "P_DESCRIPTION", Type: relation.TypeText, Nullable: true},
		},
		[]string{"ID"},
		relation.ForeignKey{Name: "CONTROLS", Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}})
	employee := relation.MustSchema("EMPLOYEE",
		[]relation.Column{
			{Name: "SSN", Type: relation.TypeString},
			{Name: "L_NAME", Type: relation.TypeString},
			{Name: "S_NAME", Type: relation.TypeString},
			{Name: "D_ID", Type: relation.TypeString},
		},
		[]string{"SSN"},
		relation.ForeignKey{Name: "WORKS_FOR", Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}})
	worksOn := relation.MustSchema("WORKS_ON",
		[]relation.Column{
			{Name: "ESSN", Type: relation.TypeString},
			{Name: "P_ID", Type: relation.TypeString},
			{Name: "HOURS", Type: relation.TypeInt, Nullable: true},
		},
		[]string{"ESSN", "P_ID"},
		relation.ForeignKey{Name: "WORKS_ON_EMP", Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}},
		relation.ForeignKey{Name: "WORKS_ON_PROJ", Columns: []string{"P_ID"}, RefRelation: "PROJECT", RefColumns: []string{"ID"}})
	dependent := relation.MustSchema("DEPENDENT",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "ESSN", Type: relation.TypeString},
			{Name: "DEPENDENT_NAME", Type: relation.TypeString},
		},
		[]string{"ID"},
		relation.ForeignKey{Name: "DEPENDENTS_OF", Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}})
	return []*relation.Schema{department, project, employee, worksOn, dependent}
}

func TestFromRelationalFigure2(t *testing.T) {
	schema, mapping, err := FromRelational("company", figure2Schemas(), nil)
	if err != nil {
		t.Fatalf("FromRelational: %v", err)
	}
	wantEntities := []string{"DEPARTMENT", "PROJECT", "EMPLOYEE", "DEPENDENT"}
	if got := schema.Entities(); len(got) != len(wantEntities) {
		t.Fatalf("entities = %v", got)
	}
	for _, e := range wantEntities {
		if _, ok := schema.Entity(e); !ok {
			t.Errorf("entity %s missing", e)
		}
	}
	if _, ok := schema.Entity("WORKS_ON"); ok {
		t.Error("junction WORKS_ON must not become an entity type")
	}

	rels := schema.Relationships()
	if len(rels) != 4 {
		t.Fatalf("relationships = %d, want 4", len(rels))
	}
	// The junction becomes an N:M relationship EMPLOYEE—PROJECT.
	nm, ok := schema.Relationship("WORKS_ON")
	if !ok || nm.Cardinality != ManyToMany {
		t.Fatalf("WORKS_ON relationship = %+v, %v", nm, ok)
	}
	if nm.Source != "EMPLOYEE" || nm.Target != "PROJECT" {
		t.Errorf("WORKS_ON endpoints = %s, %s", nm.Source, nm.Target)
	}
	// FK-derived relationships are 1:N with the referenced side as source.
	wf, ok := schema.Relationship("WORKS_FOR")
	if !ok || wf.Cardinality != OneToMany || wf.Source != "DEPARTMENT" || wf.Target != "EMPLOYEE" {
		t.Errorf("WORKS_FOR = %+v", wf)
	}
	ctl, ok := schema.Relationship("CONTROLS")
	if !ok || ctl.Source != "DEPARTMENT" || ctl.Target != "PROJECT" {
		t.Errorf("CONTROLS = %+v", ctl)
	}
	dep, ok := schema.Relationship("DEPENDENTS_OF")
	if !ok || dep.Source != "EMPLOYEE" || dep.Target != "DEPENDENT" {
		t.Errorf("DEPENDENTS_OF = %+v", dep)
	}

	// Mapping bookkeeping.
	if !mapping.IsMiddleRelation("WORKS_ON") {
		t.Error("WORKS_ON should be recorded as a middle relation")
	}
	if name, ok := mapping.RelationshipForFK("EMPLOYEE", "WORKS_FOR"); !ok || name != "WORKS_FOR" {
		t.Errorf("RelationshipForFK(EMPLOYEE, WORKS_FOR) = %q, %v", name, ok)
	}
	if name, ok := mapping.RelationshipForFK("WORKS_ON", "WORKS_ON_EMP"); !ok || name != "WORKS_ON/src" {
		t.Errorf("RelationshipForFK(WORKS_ON, WORKS_ON_EMP) = %q, %v", name, ok)
	}
}

func TestFromRelationalJunctionAttributes(t *testing.T) {
	schema, _, err := FromRelational("company", figure2Schemas(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nm, _ := schema.Relationship("WORKS_ON")
	if len(nm.Attributes) != 1 || nm.Attributes[0].Name != "HOURS" {
		t.Errorf("junction attributes = %+v", nm.Attributes)
	}
	schema2, _, err := FromRelational("company", figure2Schemas(), &DeriveOptions{DropJunctionAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	nm2, _ := schema2.Relationship("WORKS_ON")
	if len(nm2.Attributes) != 0 {
		t.Errorf("junction attributes should be dropped, got %+v", nm2.Attributes)
	}
}

func TestFromRelationalOneToOneOption(t *testing.T) {
	schemas := figure2Schemas()
	opts := &DeriveOptions{OneToOneFKs: map[string]bool{"EMPLOYEE.WORKS_FOR": true}}
	schema, _, err := FromRelational("company", schemas, opts)
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := schema.Relationship("WORKS_FOR")
	if wf.Cardinality != OneToOne {
		t.Errorf("WORKS_FOR cardinality = %v, want 1:1", wf.Cardinality)
	}
}

func TestFromRelationalRejectsDanglingReference(t *testing.T) {
	orphan := relation.MustSchema("A",
		[]relation.Column{{Name: "ID", Type: relation.TypeString}, {Name: "B_ID", Type: relation.TypeString}},
		[]string{"ID"},
		relation.ForeignKey{Columns: []string{"B_ID"}, RefRelation: "B", RefColumns: []string{"ID"}})
	if _, _, err := FromRelational("x", []*relation.Schema{orphan}, nil); err == nil {
		t.Error("FK to unknown relation should fail")
	}
}

func TestFromRelationalRejectsDuplicateRelation(t *testing.T) {
	a := relation.MustSchema("A", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"})
	if _, _, err := FromRelational("x", []*relation.Schema{a, a}, nil); err == nil {
		t.Error("duplicate relation names should fail")
	}
}

func TestFromRelationalTernaryJunctionIsReified(t *testing.T) {
	a := relation.MustSchema("A", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"})
	b := relation.MustSchema("B", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"})
	c := relation.MustSchema("C", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"})
	tern := relation.MustSchema("T",
		[]relation.Column{
			{Name: "A_ID", Type: relation.TypeString},
			{Name: "B_ID", Type: relation.TypeString},
			{Name: "C_ID", Type: relation.TypeString},
		},
		[]string{"A_ID", "B_ID", "C_ID"},
		relation.ForeignKey{Name: "fa", Columns: []string{"A_ID"}, RefRelation: "A", RefColumns: []string{"ID"}},
		relation.ForeignKey{Name: "fb", Columns: []string{"B_ID"}, RefRelation: "B", RefColumns: []string{"ID"}},
		relation.ForeignKey{Name: "fc", Columns: []string{"C_ID"}, RefRelation: "C", RefColumns: []string{"ID"}})
	schema, mapping, err := FromRelational("x", []*relation.Schema{a, b, c, tern}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The ternary junction is kept as an entity type with three 1:N
	// relationships (reification).
	if _, ok := schema.Entity("T"); !ok {
		t.Error("ternary junction should be reified as an entity type")
	}
	if got := len(schema.Relationships()); got != 3 {
		t.Errorf("relationships = %d, want 3", got)
	}
	if mapping.IsMiddleRelation("T") {
		t.Error("ternary junction should not be a middle relation")
	}
}
