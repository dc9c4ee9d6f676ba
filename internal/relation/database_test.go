package relation

import (
	"bytes"
	"strings"
	"testing"
)

// companySchemas returns the Figure 2 schemas of the paper (DEPARTMENT,
// PROJECT, EMPLOYEE, WORKS_FOR, DEPENDENT) for reuse across tests.
func companySchemas() []*Schema {
	department := MustSchema("DEPARTMENT",
		[]Column{
			{Name: "ID", Type: TypeString},
			{Name: "D_NAME", Type: TypeString},
			{Name: "D_DESCRIPTION", Type: TypeText, Nullable: true},
		},
		[]string{"ID"})
	project := MustSchema("PROJECT",
		[]Column{
			{Name: "ID", Type: TypeString},
			{Name: "D_ID", Type: TypeString},
			{Name: "P_NAME", Type: TypeString},
			{Name: "P_DESCRIPTION", Type: TypeText, Nullable: true},
		},
		[]string{"ID"},
		ForeignKey{Name: "controls", Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}})
	employee := MustSchema("EMPLOYEE",
		[]Column{
			{Name: "SSN", Type: TypeString},
			{Name: "L_NAME", Type: TypeString},
			{Name: "S_NAME", Type: TypeString},
			{Name: "D_ID", Type: TypeString},
		},
		[]string{"SSN"},
		ForeignKey{Name: "works_for", Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}})
	worksOn := MustSchema("WORKS_ON",
		[]Column{
			{Name: "ESSN", Type: TypeString},
			{Name: "P_ID", Type: TypeString},
			{Name: "HOURS", Type: TypeInt, Nullable: true},
		},
		[]string{"ESSN", "P_ID"},
		ForeignKey{Name: "works_on_emp", Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}},
		ForeignKey{Name: "works_on_proj", Columns: []string{"P_ID"}, RefRelation: "PROJECT", RefColumns: []string{"ID"}})
	dependent := MustSchema("DEPENDENT",
		[]Column{
			{Name: "ID", Type: TypeString},
			{Name: "ESSN", Type: TypeString},
			{Name: "DEPENDENT_NAME", Type: TypeString},
		},
		[]string{"ID"},
		ForeignKey{Name: "dependents_of", Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}})
	return []*Schema{department, project, employee, worksOn, dependent}
}

func newCompanyDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("company")
	for _, s := range companySchemas() {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatalf("CreateTable(%s): %v", s.Name, err)
		}
	}
	return db
}

func TestDatabaseCreateTableAndLookup(t *testing.T) {
	db := newCompanyDB(t)
	if got := len(db.TableNames()); got != 5 {
		t.Errorf("TableNames = %d", got)
	}
	if _, ok := db.Table("EMPLOYEE"); !ok {
		t.Error("Table(EMPLOYEE) missing")
	}
	if _, ok := db.Table("NOPE"); ok {
		t.Error("Table(NOPE) should be absent")
	}
	if _, err := db.CreateTable(companySchemas()[0]); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	if _, err := db.CreateTable(nil); err == nil {
		t.Error("CreateTable(nil) should fail")
	}
}

func TestDatabaseValidateCatalog(t *testing.T) {
	db := newCompanyDB(t)
	if err := db.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// A foreign key to a missing relation fails catalog validation.
	bad := NewDatabase("bad")
	bad.MustCreateTable(MustSchema("A",
		[]Column{{Name: "ID", Type: TypeString}, {Name: "B_ID", Type: TypeString}},
		[]string{"ID"},
		ForeignKey{Columns: []string{"B_ID"}, RefRelation: "B", RefColumns: []string{"ID"}}))
	if err := bad.Validate(); err == nil {
		t.Error("Validate should reject FK to missing relation")
	}
}

func TestDatabaseValidateRejectsNonPrimaryKeyReference(t *testing.T) {
	db := NewDatabase("bad")
	db.MustCreateTable(MustSchema("B",
		[]Column{{Name: "ID", Type: TypeString}, {Name: "CODE", Type: TypeString}},
		[]string{"ID"}))
	db.MustCreateTable(MustSchema("A",
		[]Column{{Name: "ID", Type: TypeString}, {Name: "B_CODE", Type: TypeString}},
		[]string{"ID"},
		ForeignKey{Columns: []string{"B_CODE"}, RefRelation: "B", RefColumns: []string{"CODE"}}))
	if err := db.Validate(); err == nil {
		t.Error("Validate should reject FK not referencing the primary key")
	}
}

func TestDatabaseIntegrity(t *testing.T) {
	db := newCompanyDB(t)
	dept, _ := db.Table("DEPARTMENT")
	emp, _ := db.Table("EMPLOYEE")
	if _, err := dept.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("cs")}); err != nil {
		t.Fatal(err)
	}
	if _, err := emp.Insert(map[string]Value{
		"SSN": String("e1"), "L_NAME": String("Smith"), "S_NAME": String("John"), "D_ID": String("d1"),
	}); err != nil {
		t.Fatal(err)
	}
	if errs := db.CheckIntegrity(); len(errs) != 0 {
		t.Errorf("CheckIntegrity = %v", errs)
	}
	// Dangling reference detected.
	if _, err := emp.Insert(map[string]Value{
		"SSN": String("e2"), "L_NAME": String("Miller"), "S_NAME": String("Melina"), "D_ID": String("d9"),
	}); err != nil {
		t.Fatal(err)
	}
	errs := db.CheckIntegrity()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "dangling") {
		t.Errorf("CheckIntegrity = %v", errs)
	}
}

func TestDatabaseReferenceNavigation(t *testing.T) {
	db := newCompanyDB(t)
	dept, _ := db.Table("DEPARTMENT")
	emp, _ := db.Table("EMPLOYEE")
	d1, err := dept.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("cs")})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := emp.Insert(map[string]Value{
		"SSN": String("e1"), "L_NAME": String("Smith"), "S_NAME": String("John"), "D_ID": String("d1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	fk := emp.Schema().ForeignKeys[0]
	ref, ok := db.ReferencedTuple(e1, fk)
	if !ok || ref != d1 {
		t.Error("ReferencedTuple failed to navigate works_for")
	}
	back := emp.ReferencingTuples(fk, d1.ID().Key)
	if len(back) != 1 || back[0] != e1 {
		t.Error("ReferencingTuples failed to navigate works_for backwards")
	}
	// Tuple lookup by id.
	got, ok := db.Tuple(e1.ID())
	if !ok || got != e1 {
		t.Error("Tuple(id) failed")
	}
	if _, ok := db.Tuple(TupleID{Relation: "EMPLOYEE", Key: "zz"}); ok {
		t.Error("Tuple should miss unknown key")
	}
	if _, ok := db.Tuple(TupleID{Relation: "NOPE", Key: "1"}); ok {
		t.Error("Tuple should miss unknown relation")
	}
}

func TestDatabaseStatsAndString(t *testing.T) {
	db := newCompanyDB(t)
	dept, _ := db.Table("DEPARTMENT")
	if _, err := dept.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("cs")}); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Relations != 5 || st.Tuples != 1 || st.JunctionRels != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if st.ForeignKeys != 5 {
		t.Errorf("Stats.ForeignKeys = %d, want 5", st.ForeignKeys)
	}
	if db.TupleCount() != 1 {
		t.Errorf("TupleCount = %d", db.TupleCount())
	}
	s := db.String()
	if !strings.Contains(s, "company") || !strings.Contains(s, "5 relations") {
		t.Errorf("String = %q", s)
	}
}

func TestDatabaseSchemasAndTablesOrder(t *testing.T) {
	db := newCompanyDB(t)
	names := db.TableNames()
	want := []string{"DEPARTMENT", "PROJECT", "EMPLOYEE", "WORKS_ON", "DEPENDENT"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("TableNames[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if got := len(db.Schemas()); got != 5 {
		t.Errorf("Schemas = %d", got)
	}
	if got := len(db.Tables()); got != 5 {
		t.Errorf("Tables = %d", got)
	}
}

func TestDumpTableAndStats(t *testing.T) {
	db := newCompanyDB(t)
	dept, _ := db.Table("DEPARTMENT")
	if _, err := dept.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("cs"), "D_DESCRIPTION": Text("databases")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpTable(&buf, dept); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "DEPARTMENT") || !strings.Contains(out, "databases") {
		t.Errorf("DumpTable = %q", out)
	}
	buf.Reset()
	if err := DumpDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "WORKS_ON") {
		t.Errorf("DumpDatabase missing WORKS_ON: %q", buf.String())
	}
	buf.Reset()
	if err := DumpStats(&buf, db); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "relations=5") {
		t.Errorf("DumpStats = %q", buf.String())
	}
}

func populatedCompanyDB(t *testing.T) *Database {
	t.Helper()
	db := newCompanyDB(t)
	dept, _ := db.Table("DEPARTMENT")
	proj, _ := db.Table("PROJECT")
	emp, _ := db.Table("EMPLOYEE")
	won, _ := db.Table("WORKS_ON")
	dep, _ := db.Table("DEPENDENT")
	must := func(_ *Tuple, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(dept.InsertRow(String("d1"), String("cs"), Text("programming, databases and XML")))
	must(dept.InsertRow(String("d2"), String("inf"), Text("information retrieval and XML")))
	must(proj.InsertRow(String("p1"), String("d1"), String("DB-project"), Text("relational, object and XML")))
	must(proj.InsertRow(String("p2"), String("d2"), String("XML and IR"), Text("XML offers a notation")))
	must(emp.InsertRow(String("e1"), String("Smith"), String("John"), String("d1")))
	must(emp.InsertRow(String("e2"), String("Smith"), String("Barbara"), String("d2")))
	must(won.InsertRow(String("e1"), String("p1"), Int(40)))
	must(won.InsertRow(String("e2"), String("p2"), Int(70)))
	must(dep.InsertRow(String("t1"), String("e1"), String("Alice")))
	return db
}

// TestJoinOnForeignKey follows a foreign key from every owning tuple to the
// tuple it references — the equi-join the data graph's edges are built from.
func TestJoinOnForeignKey(t *testing.T) {
	db := populatedCompanyDB(t)
	emp, _ := db.Table("EMPLOYEE")
	fk := emp.Schema().ForeignKeys[0]
	for _, tup := range emp.Tuples() {
		ref, ok := db.ReferencedTuple(tup, fk)
		if !ok {
			t.Fatalf("%v references no department", tup)
		}
		if tup.Value("D_ID").AsString() != ref.Value("ID").AsString() {
			t.Errorf("join mismatch: %v -> %v", tup, ref)
		}
	}
	// A foreign key the tuple's relation does not own resolves nothing, and
	// neither does one into an unknown relation.
	dept, _ := db.Table("DEPARTMENT")
	if _, ok := db.ReferencedTuple(dept.Tuples()[0], fk); ok {
		t.Error("a department tuple resolved the employees' foreign key")
	}
	other := ForeignKey{Columns: []string{"D_ID"}, RefRelation: "NOPE", RefColumns: []string{"ID"}}
	if _, ok := db.ReferencedTuple(emp.Tuples()[0], other); ok {
		t.Error("a foreign key into an unknown relation resolved")
	}
}
