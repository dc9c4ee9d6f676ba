package paperdb

import (
	"strings"
	"testing"

	"repro/internal/er"
	"repro/internal/relation"
)

func TestLoadFigure2Instance(t *testing.T) {
	db, err := Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	st := db.Stats()
	if st.Relations != 5 {
		t.Errorf("relations = %d, want 5", st.Relations)
	}
	want := map[string]int{"DEPARTMENT": 3, "PROJECT": 3, "EMPLOYEE": 4, "WORKS_ON": 4, "DEPENDENT": 2}
	for rel, n := range want {
		if st.PerRelation[rel] != n {
			t.Errorf("%s has %d tuples, want %d", rel, st.PerRelation[rel], n)
		}
	}
	if st.Tuples != 16 {
		t.Errorf("total tuples = %d, want 16", st.Tuples)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("catalog invalid: %v", err)
	}
	if errs := db.CheckIntegrity(); len(errs) != 0 {
		t.Errorf("integrity violations: %v", errs)
	}
}

func TestFigure2TupleContents(t *testing.T) {
	db := MustLoad()
	emp, _ := db.Table("EMPLOYEE")
	e1, ok := emp.ByPrimaryKey("e1")
	if !ok || e1.Value("L_NAME").AsString() != "Smith" || e1.Value("S_NAME").AsString() != "John" {
		t.Errorf("e1 = %v", e1)
	}
	if e1.Value("D_ID").AsString() != "d1" {
		t.Errorf("e1 department = %v", e1.Value("D_ID"))
	}
	dept, _ := db.Table("DEPARTMENT")
	d3, _ := dept.ByPrimaryKey("d3")
	if !strings.Contains(d3.Value("D_DESCRIPTION").AsString(), "Scandinavian") {
		t.Errorf("d3 description = %v", d3.Value("D_DESCRIPTION"))
	}
	dep, _ := db.Table("DEPENDENT")
	t1, _ := dep.ByPrimaryKey("t1")
	if t1.Value("DEPENDENT_NAME").AsString() != "Alice" || t1.Value("ESSN").AsString() != "e3" {
		t.Errorf("t1 = %v", t1)
	}
}

func TestERSchemaFigure1(t *testing.T) {
	s := ERSchema()
	if got := len(s.Entities()); got != 4 {
		t.Errorf("entities = %d", got)
	}
	if got := len(s.Relationships()); got != 4 {
		t.Errorf("relationships = %d", got)
	}
	wo, ok := s.Relationship("WORKS_ON")
	if !ok || wo.Cardinality != er.ManyToMany {
		t.Errorf("WORKS_ON = %+v", wo)
	}
	wf, ok := s.Relationship("WORKS_FOR")
	if !ok || wf.Cardinality != er.OneToMany || wf.Source != "DEPARTMENT" {
		t.Errorf("WORKS_FOR = %+v", wf)
	}
}

func TestERSchemaMapsToFigure2Schema(t *testing.T) {
	schemas, mapping, err := er.ToRelational(ERSchema())
	if err != nil {
		t.Fatalf("ToRelational: %v", err)
	}
	byName := make(map[string]*relation.Schema)
	for _, s := range schemas {
		byName[s.Name] = s
	}
	// The generated relational schema has the same relations and columns
	// as the hand-written Figure 2 schema.
	for _, want := range Schemas() {
		got, ok := byName[want.Name]
		if !ok {
			t.Errorf("generated schema missing relation %s", want.Name)
			continue
		}
		for _, c := range want.ColumnNames() {
			if !got.HasColumn(c) {
				t.Errorf("generated %s missing column %s", want.Name, c)
			}
		}
	}
	if !mapping.IsMiddleRelation("WORKS_ON") {
		t.Error("WORKS_ON should map to a middle relation")
	}
}

func TestConceptualDerivation(t *testing.T) {
	schema, mapping, err := Conceptual()
	if err != nil {
		t.Fatalf("Conceptual: %v", err)
	}
	if got := len(schema.Entities()); got != 4 {
		t.Errorf("conceptual entities = %v", schema.Entities())
	}
	nm, ok := schema.Relationship("WORKS_ON")
	if !ok || nm.Cardinality != er.ManyToMany {
		t.Errorf("conceptual WORKS_ON = %+v", nm)
	}
	if !mapping.IsMiddleRelation("WORKS_ON") {
		t.Error("mapping should mark WORKS_ON as middle relation")
	}
}

func TestDisplayLabel(t *testing.T) {
	cases := map[relation.TupleID]string{
		{Relation: "DEPARTMENT", Key: "d1"}:     "d1",
		{Relation: "EMPLOYEE", Key: "e2"}:       "e2",
		{Relation: "DEPENDENT", Key: "t1"}:      "t1",
		{Relation: "WORKS_ON", Key: "e1\x1fp1"}: "w_f1",
		{Relation: "WORKS_ON", Key: "e2\x1fp3"}: "w_f2",
		{Relation: "WORKS_ON", Key: "e3\x1fp2"}: "w_f3",
		{Relation: "WORKS_ON", Key: "e4\x1fp3"}: "w_f4",
	}
	for id, want := range cases {
		if got := DisplayLabel(id); got != want {
			t.Errorf("DisplayLabel(%v) = %q, want %q", id, got, want)
		}
	}
	// Unknown junction tuples fall back to the full id rendering.
	odd := relation.TupleID{Relation: "WORKS_ON", Key: "zz"}
	if got := DisplayLabel(odd); !strings.Contains(got, "WORKS_ON") {
		t.Errorf("DisplayLabel(unknown) = %q", got)
	}
}

func TestKeywordQueryConstants(t *testing.T) {
	if len(QuerySmithXML) != 2 || QuerySmithXML[0] != "Smith" || QuerySmithXML[1] != "XML" {
		t.Errorf("QuerySmithXML = %v", QuerySmithXML)
	}
	if len(QueryAliceXML) != 2 || QueryAliceXML[0] != "Alice" {
		t.Errorf("QueryAliceXML = %v", QueryAliceXML)
	}
}

func TestMustLoadDoesNotPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("MustLoad panicked: %v", r)
		}
	}()
	if db := MustLoad(); db.TupleCount() != 16 {
		t.Error("MustLoad returned wrong instance")
	}
}
