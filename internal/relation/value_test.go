package relation

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// parseType converts a type name (as produced by Type.String, case
// insensitive, with a few aliases) back into a Type.
func parseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "NULL":
		return TypeNull, nil
	case "VARCHAR", "STRING", "CHAR":
		return TypeString, nil
	case "TEXT":
		return TypeText, nil
	case "INTEGER", "INT", "BIGINT":
		return TypeInt, nil
	case "DOUBLE", "FLOAT", "REAL", "NUMERIC":
		return TypeFloat, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	default:
		return TypeNull, fmt.Errorf("relation: unknown type %q", s)
	}
}

// coercibleTo reports whether the value may be stored in a column of type
// t without information loss.
func coercibleTo(v Value, t Type) bool {
	if v.typ == TypeNull {
		return true
	}
	switch t {
	case TypeString, TypeText:
		return v.typ.IsTextual()
	case TypeInt:
		_, ok := v.AsInt()
		return ok && v.typ != TypeBool
	case TypeFloat:
		_, ok := v.AsFloat()
		return ok
	case TypeBool:
		return v.typ == TypeBool
	default:
		return false
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeNull:   "NULL",
		TypeString: "VARCHAR",
		TypeText:   "TEXT",
		TypeInt:    "INTEGER",
		TypeFloat:  "DOUBLE",
		TypeBool:   "BOOLEAN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeString, TypeText, TypeInt, TypeFloat, TypeBool} {
		got, err := parseType(typ.String())
		if err != nil {
			t.Fatalf("parseType(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("parseType(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
}

func TestParseTypeAliases(t *testing.T) {
	cases := map[string]Type{
		"int": TypeInt, "INT": TypeInt, "string": TypeString, "bool": TypeBool,
		"float": TypeFloat, "real": TypeFloat, "char": TypeString,
	}
	for in, want := range cases {
		got, err := parseType(in)
		if err != nil {
			t.Fatalf("parseType(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("parseType(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := parseType("blob"); err == nil {
		t.Error("parseType(blob) should fail")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() is not NULL")
	}
	if got := String("abc").AsString(); got != "abc" {
		t.Errorf("String.AsString = %q", got)
	}
	if got := Text("body").AsString(); got != "body" {
		t.Errorf("Text.AsString = %q", got)
	}
	if i, ok := Int(42).AsInt(); !ok || i != 42 {
		t.Errorf("Int.AsInt = %d, %v", i, ok)
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("Float.AsFloat = %g, %v", f, ok)
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Errorf("Bool.AsBool = %v, %v", b, ok)
	}
}

func TestValueAsIntConversions(t *testing.T) {
	if i, ok := Float(3).AsInt(); !ok || i != 3 {
		t.Errorf("Float(3).AsInt = %d, %v", i, ok)
	}
	if _, ok := Float(3.5).AsInt(); ok {
		t.Error("Float(3.5).AsInt should fail")
	}
	if i, ok := Bool(true).AsInt(); !ok || i != 1 {
		t.Errorf("Bool(true).AsInt = %d, %v", i, ok)
	}
	if _, ok := String("5").AsInt(); ok {
		t.Error("String.AsInt should fail")
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL should not equal NULL")
	}
	if Null().Equal(Int(0)) || Int(0).Equal(Null()) {
		t.Error("NULL should not equal any value")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if !String("x").Equal(Text("x")) {
		t.Error("VARCHAR and TEXT with same content should be equal")
	}
	if Int(1).Equal(String("1")) {
		t.Error("numeric and textual values should not be equal")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{String("a"), String("b"), -1},
		{Text("b"), String("a"), 1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCoerce(t *testing.T) {
	v, err := Int(7).Coerce(TypeFloat)
	if err != nil {
		t.Fatalf("coerce int->float: %v", err)
	}
	if f, _ := v.AsFloat(); f != 7 {
		t.Errorf("coerced value = %v", v)
	}
	if _, err := String("abc").Coerce(TypeInt); err == nil {
		t.Error("coerce string->int should fail")
	}
	if _, err := Float(1.5).Coerce(TypeInt); err == nil {
		t.Error("coerce 1.5->int should fail")
	}
	n, err := Null().Coerce(TypeInt)
	if err != nil || !n.IsNull() {
		t.Errorf("coerce NULL = %v, %v", n, err)
	}
	s, err := Text("hello").Coerce(TypeString)
	if err != nil || s.Type() != TypeString {
		t.Errorf("coerce text->varchar = %v, %v", s, err)
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("42", TypeInt)
	if err != nil {
		t.Fatalf("ParseValue int: %v", err)
	}
	if i, _ := v.AsInt(); i != 42 {
		t.Errorf("parsed %v", v)
	}
	v, err = ParseValue("", TypeInt)
	if err != nil || !v.IsNull() {
		t.Errorf("empty int should parse to NULL, got %v, %v", v, err)
	}
	if _, err := ParseValue("xyz", TypeFloat); err == nil {
		t.Error("ParseValue(xyz, float) should fail")
	}
	v, err = ParseValue("true", TypeBool)
	if err != nil {
		t.Fatalf("ParseValue bool: %v", err)
	}
	if b, _ := v.AsBool(); !b {
		t.Error("parsed bool should be true")
	}
	v, _ = ParseValue("free text", TypeText)
	if v.Type() != TypeText || v.AsString() != "free text" {
		t.Errorf("parsed text %v", v)
	}
}

func TestValueCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareConsistentWithEqualProperty(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := String(a), String(b)
		if va.Equal(vb) {
			return va.Compare(vb) == 0
		}
		return va.Compare(vb) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueFloatStringRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := Float(x)
		parsed, err := ParseValue(v.String(), TypeFloat)
		if err != nil {
			return false
		}
		got, _ := parsed.AsFloat()
		return got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCoercibleTo(t *testing.T) {
	if !coercibleTo(Int(5), TypeFloat) {
		t.Error("int should coerce to float")
	}
	if coercibleTo(Float(5.5), TypeInt) {
		t.Error("5.5 should not coerce to int")
	}
	if !coercibleTo(Null(), TypeBool) {
		t.Error("NULL should coerce to anything")
	}
	if coercibleTo(String("a"), TypeBool) {
		t.Error("string should not coerce to bool")
	}
}
