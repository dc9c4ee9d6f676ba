package relation

import (
	"strings"
	"testing"
	"testing/quick"
)

func deptSchema() *Schema {
	return MustSchema("DEPARTMENT",
		[]Column{
			{Name: "ID", Type: TypeString},
			{Name: "D_NAME", Type: TypeString},
			{Name: "D_DESCRIPTION", Type: TypeText, Nullable: true},
		},
		[]string{"ID"})
}

func TestTableInsertAndLookup(t *testing.T) {
	tab := NewTable(deptSchema())
	tup, err := tab.Insert(map[string]Value{
		"ID": String("d1"), "D_NAME": String("cs"), "D_DESCRIPTION": Text("databases and XML"),
	})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
	if tup.ID() != (TupleID{Relation: "DEPARTMENT", Key: "d1"}) {
		t.Errorf("ID = %v", tup.ID())
	}
	got, ok := tab.ByPrimaryKey("d1")
	if !ok || got != tup {
		t.Error("ByPrimaryKey did not return inserted tuple")
	}
	if _, ok := tab.ByPrimaryKey("dX"); ok {
		t.Error("ByPrimaryKey should miss for unknown key")
	}
}

func TestTableInsertRejectsDuplicatePK(t *testing.T) {
	tab := NewTable(deptSchema())
	if _, err := tab.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("a")}); err != nil {
		t.Fatal(err)
	}
	_, err := tab.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("b")})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate key error, got %v", err)
	}
}

func TestTableInsertRejectsUnknownColumn(t *testing.T) {
	tab := NewTable(deptSchema())
	_, err := tab.Insert(map[string]Value{"ID": String("d1"), "NOPE": String("x")})
	if err == nil {
		t.Error("expected unknown column error")
	}
}

func TestTableInsertRejectsNullPrimaryKey(t *testing.T) {
	tab := NewTable(deptSchema())
	_, err := tab.Insert(map[string]Value{"D_NAME": String("x")})
	if err == nil {
		t.Error("expected NULL primary key error")
	}
}

func TestTableInsertRejectsTypeMismatch(t *testing.T) {
	s := MustSchema("R", []Column{{Name: "ID", Type: TypeInt}, {Name: "N", Type: TypeInt, Nullable: true}}, []string{"ID"})
	tab := NewTable(s)
	_, err := tab.Insert(map[string]Value{"ID": String("abc")})
	if err == nil {
		t.Error("expected type mismatch error")
	}
	if _, err := tab.Insert(map[string]Value{"ID": Int(1), "N": Float(2)}); err != nil {
		t.Errorf("loss-free coercion should succeed: %v", err)
	}
}

func TestTableInsertRow(t *testing.T) {
	tab := NewTable(deptSchema())
	tup, err := tab.InsertRow(String("d2"), String("inf"), Text("information retrieval"))
	if err != nil {
		t.Fatalf("InsertRow: %v", err)
	}
	if tup.Value("D_NAME").AsString() != "inf" {
		t.Errorf("tuple = %v", tup)
	}
	if _, err := tab.InsertRow(String("d3")); err == nil {
		t.Error("InsertRow with wrong arity should fail")
	}
}

func TestTableCompositeKeyEncoding(t *testing.T) {
	s := MustSchema("WORKS_ON",
		[]Column{{Name: "ESSN", Type: TypeString}, {Name: "P_ID", Type: TypeString}},
		[]string{"ESSN", "P_ID"})
	tab := NewTable(s)
	tup, err := tab.InsertRow(String("e1"), String("p1"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tup.ID().Key, "\x1f") {
		t.Errorf("composite key should use separator, got %q", tup.ID().Key)
	}
	if _, ok := tab.ByPrimaryKey(EncodeKey([]Value{String("e1"), String("p1")})); !ok {
		t.Error("composite key lookup failed")
	}
}

func TestTableForeignKeyIndex(t *testing.T) {
	emp := MustSchema("EMPLOYEE",
		[]Column{{Name: "SSN", Type: TypeString}, {Name: "D_ID", Type: TypeString, Nullable: true}},
		[]string{"SSN"},
		ForeignKey{Name: "works_for", Columns: []string{"D_ID"}, RefRelation: "DEPARTMENT", RefColumns: []string{"ID"}})
	tab := NewTable(emp)
	mustInsert := func(ssn, dept string) {
		t.Helper()
		vals := map[string]Value{"SSN": String(ssn)}
		if dept != "" {
			vals["D_ID"] = String(dept)
		}
		if _, err := tab.Insert(vals); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert("e1", "d1")
	mustInsert("e2", "d1")
	mustInsert("e3", "d2")
	mustInsert("e4", "")
	fk := emp.ForeignKeys[0]
	if got := len(tab.ReferencingTuples(fk, "d1")); got != 2 {
		t.Errorf("ReferencingTuples(d1) = %d tuples", got)
	}
	if got := len(tab.ReferencingTuples(fk, "d2")); got != 1 {
		t.Errorf("ReferencingTuples(d2) = %d tuples", got)
	}
	if got := len(tab.ReferencingTuples(fk, "d9")); got != 0 {
		t.Errorf("ReferencingTuples(d9) = %d tuples", got)
	}
}

func TestTableScanAndSelect(t *testing.T) {
	tab := NewTable(deptSchema())
	for _, id := range []string{"d1", "d2", "d3"} {
		if _, err := tab.Insert(map[string]Value{"ID": String(id), "D_NAME": String("n" + id)}); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	var sel []*Tuple
	for _, tup := range tab.Tuples() {
		order = append(order, tup.ID().Key)
		if tup.Value("D_NAME").Equal(String("nd2")) {
			sel = append(sel, tup)
		}
	}
	if strings.Join(order, ",") != "d1,d2,d3" {
		t.Errorf("Tuples order = %v, want insertion order", order)
	}
	if len(sel) != 1 || sel[0].Value("ID").AsString() != "d2" {
		t.Errorf("selection over Tuples = %v", sel)
	}
}

func TestTableSortedTuplesOrder(t *testing.T) {
	tab := NewTable(deptSchema())
	for _, id := range []string{"d3", "d1", "d2"} {
		if _, err := tab.Insert(map[string]Value{"ID": String(id), "D_NAME": String("x")}); err != nil {
			t.Fatal(err)
		}
	}
	sorted := tab.SortedTuples()
	for i, want := range []string{"d1", "d2", "d3"} {
		if got := sorted[i].ID().Key; got != want {
			t.Errorf("SortedTuples[%d] = %s, want %s", i, got, want)
		}
	}
}

func TestTupleTextContentAndAttributeText(t *testing.T) {
	tab := NewTable(deptSchema())
	tup, err := tab.Insert(map[string]Value{
		"ID": String("d1"), "D_NAME": String("cs"), "D_DESCRIPTION": Text("programming, databases and XML"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The keyword index reads a tuple's text through its schema's text
	// columns, one value per column.
	attrs := make(map[string]string)
	for _, c := range tup.Schema().TextColumns() {
		attrs[c] = tup.Value(c).AsString()
	}
	if attrs["D_NAME"] != "cs" || !strings.Contains(attrs["D_DESCRIPTION"], "databases") {
		t.Errorf("text attributes = %v", attrs)
	}
}

func TestTupleStringRendering(t *testing.T) {
	tab := NewTable(deptSchema())
	tup, _ := tab.Insert(map[string]Value{"ID": String("d1"), "D_NAME": String("cs")})
	s := tup.String()
	if !strings.Contains(s, "DEPARTMENT(") || !strings.Contains(s, "ID=d1") {
		t.Errorf("String = %q", s)
	}
}

func TestEncodeKeySingleVsComposite(t *testing.T) {
	if got := EncodeKey([]Value{String("a")}); got != "a" {
		t.Errorf("single key = %q", got)
	}
	if got := EncodeKey([]Value{String("a"), Int(2)}); got != "a\x1f2" {
		t.Errorf("composite key = %q", got)
	}
}

func TestEncodeKeyInjectiveProperty(t *testing.T) {
	// Distinct (string,string) pairs without the separator must encode to
	// distinct keys.
	f := func(a1, a2, b1, b2 string) bool {
		for _, s := range []string{a1, a2, b1, b2} {
			if strings.Contains(s, "\x1f") {
				return true
			}
		}
		ka := EncodeKey([]Value{String(a1), String(a2)})
		kb := EncodeKey([]Value{String(b1), String(b2)})
		if a1 == b1 && a2 == b2 {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortTupleIDs(t *testing.T) {
	ids := []TupleID{{"B", "2"}, {"A", "2"}, {"A", "1"}}
	SortTupleIDs(ids)
	want := []TupleID{{"A", "1"}, {"A", "2"}, {"B", "2"}}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %v, want %v", i, ids[i], want[i])
		}
	}
}
