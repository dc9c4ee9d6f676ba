package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	db := populatedCompanyDB(t)
	emp, _ := db.Table("EMPLOYEE")
	var buf bytes.Buffer
	if err := WriteCSV(&buf, emp); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "SSN,L_NAME,S_NAME,D_ID") {
		t.Errorf("CSV header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	// Load back into a fresh table.
	fresh := NewTable(emp.Schema().Clone())
	n, err := LoadCSV(strings.NewReader(out), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || fresh.Len() != 2 {
		t.Errorf("LoadCSV loaded %d rows", n)
	}
	got, ok := fresh.ByPrimaryKey("e2")
	if !ok || got.Value("S_NAME").AsString() != "Barbara" {
		t.Errorf("round-tripped tuple = %v", got)
	}
}

func TestLoadCSVRejectsUnknownColumn(t *testing.T) {
	tab := NewTable(deptSchema())
	_, err := LoadCSV(strings.NewReader("ID,NOPE\n1,2\n"), tab)
	if err == nil {
		t.Error("LoadCSV should reject unknown header column")
	}
}

func TestLoadCSVRejectsBadValue(t *testing.T) {
	s := MustSchema("R", []Column{{Name: "ID", Type: TypeInt}}, []string{"ID"})
	tab := NewTable(s)
	_, err := LoadCSV(strings.NewReader("ID\nabc\n"), tab)
	if err == nil {
		t.Error("LoadCSV should reject non-integer value for INTEGER column")
	}
}
