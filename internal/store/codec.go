package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// The canonical binary encoding of mutations — the payload of a WAL record
// (framedlog.go frames it). The payload is
//
//	uvarint generation
//	uvarint op count
//	ops:    u8 kind, string table, map key, map row
//	map:    uvarint entry count, entries (string column, value) in strictly
//	        increasing column order
//	value:  u8 tag — 0 nil, 1 string, 2 int64 (zigzag uvarint),
//	        3 float64 (8-byte LE bits), 4 true, 5 false
//	string: uvarint byte length, bytes
//
// The encoding is canonical: map entries are sorted and integers are
// minimal-width, so encode(decode(payload)) == payload for every payload the
// decoder accepts. The decoder enforces this (strictly increasing map keys,
// known tags, exact consumption), which the WAL fuzz target relies on.

const (
	tagNil   = 0
	tagStr   = 1
	tagInt   = 2
	tagFloat = 3
	tagTrue  = 4
	tagFalse = 5
)

// appendMutation appends the record payload for (gen, m) to dst.
func appendMutation(dst []byte, gen uint64, m Mutation) []byte {
	dst = binary.AppendUvarint(dst, gen)
	dst = binary.AppendUvarint(dst, uint64(len(m.Ops)))
	for _, op := range m.Ops {
		dst = append(dst, byte(op.Kind))
		dst = appendString(dst, op.Table)
		dst = appendValueMap(dst, op.Key)
		dst = appendValueMap(dst, op.Row)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValueMap(dst []byte, m map[string]any) []byte {
	cols := make([]string, 0, len(m))
	for col := range m {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, col := range cols {
		dst = appendString(dst, col)
		dst = appendValue(dst, m[col])
	}
	return dst
}

// appendValue encodes one op value, canonicalizing int to int64. Unsupported
// types encode as nil — Engine.Apply would have rejected them before the
// mutation ever reached the log, so this path only defends against misuse.
func appendValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil)
	case string:
		dst = append(dst, tagStr)
		return appendString(dst, x)
	case int:
		dst = append(dst, tagInt)
		return binary.AppendUvarint(dst, zigzag(int64(x)))
	case int64:
		dst = append(dst, tagInt)
		return binary.AppendUvarint(dst, zigzag(x))
	case float64:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	case bool:
		if x {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	default:
		return append(dst, tagNil)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeMutation parses a record payload back into its generation and
// mutation. It rejects anything non-canonical: trailing bytes, unknown tags
// or kinds, and map keys out of order.
func decodeMutation(payload []byte) (uint64, Mutation, error) {
	r := reader{buf: payload}
	gen := r.uvarint()
	nops := r.uvarint()
	if r.err == nil && nops > uint64(len(payload)) {
		// Each op costs at least one byte; a larger count is garbage and
		// must not size an allocation.
		r.fail("op count %d exceeds payload", nops)
	}
	var m Mutation
	if r.err == nil && nops > 0 {
		m.Ops = make([]Op, 0, nops)
	}
	for i := uint64(0); i < nops && r.err == nil; i++ {
		kind := r.byte()
		if r.err == nil && (kind < 1 || kind > 3) {
			r.fail("op %d: unknown kind %d", i, kind)
		}
		op := Op{Kind: int(kind)}
		op.Table = r.string()
		op.Key = r.valueMap()
		op.Row = r.valueMap()
		m.Ops = append(m.Ops, op)
	}
	if r.err == nil && len(r.buf) != r.off {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	if r.err != nil {
		return 0, Mutation{}, r.err
	}
	return gen, m, nil
}

// reader is a bounds-checked cursor over one payload; the first failure
// sticks and every later read is a no-op.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: decode offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("unexpected end of payload")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	if n > 1 && v < 1<<(7*(n-1)) {
		// Padded varints decode to the same value but break the
		// encode(decode(x)) == x identity; reject them as non-canonical.
		r.fail("non-minimal uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds payload", n)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) valueMap() map[string]any {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("map entry count %d exceeds payload", n)
		return nil
	}
	m := make(map[string]any, n)
	prev := ""
	for i := uint64(0); i < n && r.err == nil; i++ {
		col := r.string()
		if r.err == nil && i > 0 && col <= prev {
			r.fail("map key %q out of order after %q", col, prev)
			return nil
		}
		prev = col
		m[col] = r.value()
	}
	return m
}

func (r *reader) value() any {
	switch tag := r.byte(); tag {
	case tagNil:
		return nil
	case tagStr:
		return r.string()
	case tagInt:
		return unzigzag(r.uvarint())
	case tagFloat:
		if len(r.buf)-r.off < 8 {
			r.fail("truncated float64")
			return nil
		}
		bits := binary.LittleEndian.Uint64(r.buf[r.off:])
		r.off += 8
		return math.Float64frombits(bits)
	case tagTrue:
		return true
	case tagFalse:
		return false
	default:
		if r.err == nil {
			r.fail("unknown value tag %d", tag)
		}
		return nil
	}
}
