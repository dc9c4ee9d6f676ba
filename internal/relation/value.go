// Package relation implements a small in-memory relational engine: typed
// values, relation schemas with primary and foreign keys, tables, databases
// and the relational operations (selection, projection, natural and
// foreign-key joins) that the keyword-search layers are built on.
//
// The package is deliberately self-contained (standard library only) and
// deterministic: iteration orders over catalogs and tables are stable so
// that experiment output and tests are reproducible.
package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies the dynamic type of a Value.
type Type int

// The value types supported by the engine. TypeText is a string column that
// additionally participates in keyword indexing (free text), while
// TypeString is an identifier-like string (names, codes).
const (
	TypeNull Type = iota
	TypeString
	TypeText
	TypeInt
	TypeFloat
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeString:
		return "VARCHAR"
	case TypeText:
		return "TEXT"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// IsTextual reports whether values of the type hold character data.
func (t Type) IsTextual() bool { return t == TypeString || t == TypeText }

// Value is a single attribute value. The zero Value is NULL.
type Value struct {
	typ Type
	s   string
	i   int64
	f   float64
	b   bool
}

// Null returns the NULL value.
func Null() Value { return Value{typ: TypeNull} }

// String returns a VARCHAR value.
func String(s string) Value { return Value{typ: TypeString, s: s} }

// Text returns a TEXT value (free text, keyword-indexable).
func Text(s string) Value { return Value{typ: TypeText, s: s} }

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{typ: TypeInt, i: i} }

// Float returns a DOUBLE value.
func Float(f float64) Value { return Value{typ: TypeFloat, f: f} }

// Bool returns a BOOLEAN value.
func Bool(b bool) Value { return Value{typ: TypeBool, b: b} }

// Type returns the dynamic type of the value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// AsString returns the character data held by a VARCHAR or TEXT value.
// For other types it returns the textual rendering of the value.
func (v Value) AsString() string {
	switch v.typ {
	case TypeString, TypeText:
		return v.s
	default:
		return v.String()
	}
}

// AsInt returns the integer held by an INTEGER value, converting DOUBLE and
// BOOLEAN values when loss-free. It returns false when the value cannot be
// interpreted as an integer.
func (v Value) AsInt() (int64, bool) {
	switch v.typ {
	case TypeInt:
		return v.i, true
	case TypeFloat:
		if v.f == float64(int64(v.f)) {
			return int64(v.f), true
		}
		return 0, false
	case TypeBool:
		if v.b {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsFloat returns the numeric content of an INTEGER or DOUBLE value.
func (v Value) AsFloat() (float64, bool) {
	switch v.typ {
	case TypeInt:
		return float64(v.i), true
	case TypeFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsBool returns the boolean content of a BOOLEAN value.
func (v Value) AsBool() (bool, bool) {
	if v.typ == TypeBool {
		return v.b, true
	}
	return false, false
}

// String renders the value for display and for key encoding.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeString, TypeText:
		return v.s
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeBool:
		return strconv.FormatBool(v.b)
	default:
		return "?"
	}
}

// Equal reports whether two values are equal. NULL is not equal to anything,
// including NULL (SQL semantics); use IsNull to test for NULL explicitly.
// Numeric values compare across INTEGER and DOUBLE.
func (v Value) Equal(o Value) bool {
	if v.typ == TypeNull || o.typ == TypeNull {
		return false
	}
	if v.typ.IsTextual() && o.typ.IsTextual() {
		return v.s == o.s
	}
	if vf, ok := v.AsFloat(); ok {
		if of, ok2 := o.AsFloat(); ok2 {
			return vf == of
		}
		return false
	}
	if v.typ == TypeBool && o.typ == TypeBool {
		return v.b == o.b
	}
	return false
}

// Compare orders two non-NULL values of compatible types: -1, 0 or +1.
// NULL sorts before everything. Incompatible types order by type id.
func (v Value) Compare(o Value) int {
	if v.typ == TypeNull && o.typ == TypeNull {
		return 0
	}
	if v.typ == TypeNull {
		return -1
	}
	if o.typ == TypeNull {
		return 1
	}
	if v.typ.IsTextual() && o.typ.IsTextual() {
		return strings.Compare(v.s, o.s)
	}
	vf, vok := v.AsFloat()
	of, ook := o.AsFloat()
	if vok && ook {
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		default:
			return 0
		}
	}
	if v.typ == TypeBool && o.typ == TypeBool {
		switch {
		case !v.b && o.b:
			return -1
		case v.b && !o.b:
			return 1
		default:
			return 0
		}
	}
	switch {
	case v.typ < o.typ:
		return -1
	case v.typ > o.typ:
		return 1
	default:
		return 0
	}
}

// Coerce converts the value to column type t. It returns an error when the
// conversion would lose information or the types are incompatible.
func (v Value) Coerce(t Type) (Value, error) {
	if v.typ == TypeNull {
		return Null(), nil
	}
	switch t {
	case TypeString:
		if v.typ.IsTextual() {
			return String(v.s), nil
		}
	case TypeText:
		if v.typ.IsTextual() {
			return Text(v.s), nil
		}
	case TypeInt:
		if i, ok := v.AsInt(); ok && v.typ != TypeBool {
			return Int(i), nil
		}
	case TypeFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	case TypeBool:
		if v.typ == TypeBool {
			return v, nil
		}
	}
	return Null(), fmt.Errorf("relation: cannot coerce %s value %q to %s", v.typ, v.String(), t)
}

// ParseValue parses the textual form of a value into column type t. The
// empty string parses to NULL for non-textual types.
func ParseValue(s string, t Type) (Value, error) {
	switch t {
	case TypeString:
		return String(s), nil
	case TypeText:
		return Text(s), nil
	case TypeInt:
		if s == "" {
			return Null(), nil
		}
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse %q as INTEGER: %w", s, err)
		}
		return Int(i), nil
	case TypeFloat:
		if s == "" {
			return Null(), nil
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse %q as DOUBLE: %w", s, err)
		}
		return Float(f), nil
	case TypeBool:
		if s == "" {
			return Null(), nil
		}
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Null(), fmt.Errorf("relation: parse %q as BOOLEAN: %w", s, err)
		}
		return Bool(b), nil
	default:
		return Null(), fmt.Errorf("relation: cannot parse into %s", t)
	}
}
