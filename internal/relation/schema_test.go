package relation

import (
	"sort"
	"strings"
	"testing"
)

// foreignKeyColumns returns the set of columns that participate in any
// foreign key of s, sorted by name.
func foreignKeyColumns(s *Schema) []string {
	set := make(map[string]bool)
	for _, fk := range s.ForeignKeys {
		for _, c := range fk.Columns {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func employeeSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("EMPLOYEE",
		[]Column{
			{Name: "SSN", Type: TypeString},
			{Name: "L_NAME", Type: TypeString},
			{Name: "S_NAME", Type: TypeString},
			{Name: "D_ID", Type: TypeString, Nullable: true},
		},
		[]string{"SSN"},
		ForeignKey{Name: "works_for", Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValid(t *testing.T) {
	s := employeeSchema(t)
	if s.Name != "EMPLOYEE" {
		t.Errorf("Name = %q", s.Name)
	}
	if got := len(s.Columns); got != 4 {
		t.Errorf("len(Columns) = %d", got)
	}
}

func TestNewSchemaRejectsDuplicateColumns(t *testing.T) {
	_, err := NewSchema("R", []Column{{Name: "A", Type: TypeInt}, {Name: "A", Type: TypeInt}}, []string{"A"})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate column error, got %v", err)
	}
}

func TestNewSchemaRejectsMissingPrimaryKey(t *testing.T) {
	_, err := NewSchema("R", []Column{{Name: "A", Type: TypeInt}}, nil)
	if err == nil {
		t.Error("expected error for missing primary key")
	}
	_, err = NewSchema("R", []Column{{Name: "A", Type: TypeInt}}, []string{"B"})
	if err == nil {
		t.Error("expected error for primary key over unknown column")
	}
}

func TestNewSchemaRejectsBadForeignKey(t *testing.T) {
	_, err := NewSchema("R", []Column{{Name: "A", Type: TypeInt}}, []string{"A"},
		ForeignKey{Columns: []string{"X"}, RefRelation: "S", RefColumns: []string{"ID"}})
	if err == nil {
		t.Error("expected error for FK over unknown column")
	}
	_, err = NewSchema("R", []Column{{Name: "A", Type: TypeInt}}, []string{"A"},
		ForeignKey{Columns: []string{"A"}, RefRelation: "S", RefColumns: []string{"ID", "ID2"}})
	if err == nil {
		t.Error("expected error for mismatched FK column counts")
	}
	_, err = NewSchema("R", []Column{{Name: "A", Type: TypeInt}}, []string{"A"},
		ForeignKey{Columns: []string{"A"}, RefColumns: []string{"ID"}})
	if err == nil {
		t.Error("expected error for FK without referenced relation")
	}
}

func TestSchemaColumnLookup(t *testing.T) {
	s := employeeSchema(t)
	if i := s.ColumnIndex("L_NAME"); i != 1 {
		t.Errorf("ColumnIndex(L_NAME) = %d", i)
	}
	if i := s.ColumnIndex("missing"); i != -1 {
		t.Errorf("ColumnIndex(missing) = %d", i)
	}
	c, ok := s.Column("D_ID")
	if !ok || !c.Nullable {
		t.Errorf("Column(D_ID) = %+v, %v", c, ok)
	}
	if !s.HasColumn("SSN") || s.HasColumn("nope") {
		t.Error("HasColumn misbehaves")
	}
}

func TestSchemaTextColumnsExcludesKeys(t *testing.T) {
	s := employeeSchema(t)
	got := s.TextColumns()
	want := []string{"L_NAME", "S_NAME"}
	if len(got) != len(want) {
		t.Fatalf("TextColumns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TextColumns[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSchemaIsJunction(t *testing.T) {
	worksOn := MustSchema("WORKS_ON",
		[]Column{
			{Name: "ESSN", Type: TypeString},
			{Name: "P_ID", Type: TypeString},
			{Name: "HOURS", Type: TypeInt, Nullable: true},
		},
		[]string{"ESSN", "P_ID"},
		ForeignKey{Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}},
		ForeignKey{Columns: []string{"P_ID"}, RefRelation: "PROJECT", RefColumns: []string{"ID"}},
	)
	if !worksOn.IsJunction() {
		t.Error("WORKS_ON should be a junction relation")
	}
	if employeeSchema(t).IsJunction() {
		t.Error("EMPLOYEE should not be a junction relation")
	}
	// A relation with two FKs but its own surrogate key is not a junction.
	review := MustSchema("REVIEW",
		[]Column{
			{Name: "ID", Type: TypeString},
			{Name: "ESSN", Type: TypeString},
			{Name: "P_ID", Type: TypeString},
		},
		[]string{"ID"},
		ForeignKey{Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}},
		ForeignKey{Columns: []string{"P_ID"}, RefRelation: "PROJECT", RefColumns: []string{"ID"}},
	)
	if review.IsJunction() {
		t.Error("REVIEW with surrogate key should not be a junction relation")
	}
}

func TestSchemaForeignKeyLabel(t *testing.T) {
	fk := ForeignKey{Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}}
	if got := fk.Label(); got != "fk_D_ID_DEPARTMENT" {
		t.Errorf("Label = %q", got)
	}
	fk.Name = "works_for"
	if got := fk.Label(); got != "works_for" {
		t.Errorf("Label = %q", got)
	}
}

func TestSchemaCloneIsDeep(t *testing.T) {
	s := employeeSchema(t)
	cp := s.Clone()
	cp.Columns[0].Name = "CHANGED"
	cp.ForeignKeys[0].RefRelation = "OTHER"
	if s.Columns[0].Name != "SSN" || s.ForeignKeys[0].RefRelation != "DEPARTMENT" {
		t.Error("Clone is not deep")
	}
}

func TestSchemaStringRendering(t *testing.T) {
	s := employeeSchema(t)
	str := s.String()
	for _, want := range []string{"EMPLOYEE(", "SSN VARCHAR", "PRIMARY KEY(SSN)", "REFERENCES DEPARTMENT(ID)"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestSchemaForeignKeyColumnsSorted(t *testing.T) {
	s := MustSchema("WORKS_ON",
		[]Column{{Name: "P_ID", Type: TypeString}, {Name: "ESSN", Type: TypeString}},
		[]string{"ESSN", "P_ID"},
		ForeignKey{Columns: []string{"P_ID"}, RefRelation: "PROJECT", RefColumns: []string{"ID"}},
		ForeignKey{Columns: []string{"ESSN"}, RefRelation: "EMPLOYEE", RefColumns: []string{"SSN"}},
	)
	got := foreignKeyColumns(s)
	if len(got) != 2 || got[0] != "ESSN" || got[1] != "P_ID" {
		t.Errorf("foreignKeyColumns = %v", got)
	}
}

func TestMustSchemaPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema("", nil, nil)
}
