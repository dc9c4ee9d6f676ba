package er

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// parseCardinality parses "1:1", "1:N", "N:1", "N:M" (also "M:N", lowercase,
// and "*" as an alias for the many side).
func parseCardinality(s string) (Cardinality, error) {
	norm := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(s), " ", ""))
	parts := strings.Split(norm, ":")
	if len(parts) != 2 {
		return Cardinality{}, fmt.Errorf("er: malformed cardinality %q", s)
	}
	side := func(p string) (Side, error) {
		switch p {
		case "1":
			return One, nil
		case "N", "M", "*":
			return Many, nil
		default:
			return One, fmt.Errorf("er: malformed cardinality side %q", p)
		}
	}
	src, err := side(parts[0])
	if err != nil {
		return Cardinality{}, err
	}
	dst, err := side(parts[1])
	if err != nil {
		return Cardinality{}, err
	}
	return Cardinality{Source: src, Target: dst}, nil
}

// reversePath returns the path read in the opposite direction: the step
// order is reversed and every cardinality is reversed.
func reversePath(steps []Cardinality) []Cardinality {
	out := make([]Cardinality, len(steps))
	for i, s := range steps {
		out[len(steps)-1-i] = s.Reverse()
	}
	return out
}

func TestCardinalityString(t *testing.T) {
	cases := map[Cardinality]string{
		OneToOne:   "1:1",
		OneToMany:  "1:N",
		ManyToOne:  "N:1",
		ManyToMany: "N:M",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", c, got, want)
		}
	}
}

func TestParseCardinality(t *testing.T) {
	cases := map[string]Cardinality{
		"1:1": OneToOne, "1:N": OneToMany, "N:1": ManyToOne, "N:M": ManyToMany,
		"M:N": ManyToMany, "n:m": ManyToMany, "1:*": OneToMany, " N : 1 ": ManyToOne,
	}
	for in, want := range cases {
		got, err := parseCardinality(in)
		if err != nil {
			t.Fatalf("parseCardinality(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("parseCardinality(%q) = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{"", "1", "1:2", "x:y", "1:N:M"} {
		if _, err := parseCardinality(bad); err == nil {
			t.Errorf("parseCardinality(%q) should fail", bad)
		}
	}
}

func TestCardinalityReverse(t *testing.T) {
	if OneToMany.Reverse() != ManyToOne {
		t.Error("reverse of 1:N should be N:1")
	}
	if ManyToMany.Reverse() != ManyToMany {
		t.Error("reverse of N:M should be N:M")
	}
	if OneToOne.Reverse() != OneToOne {
		t.Error("reverse of 1:1 should be 1:1")
	}
}

func TestCardinalityPredicates(t *testing.T) {
	if OneToMany.Source != One || OneToMany.Target != Many {
		t.Error("1:N is functional backward only")
	}
	if ManyToOne.Source != Many || ManyToOne.Target != One {
		t.Error("N:1 is functional forward only")
	}
	if ManyToMany.Source != Many || ManyToMany.Target != Many {
		t.Error("N:M is many on both sides")
	}
}

// TestClassifyPathPaperTable1 reproduces the classification of the six
// relationship paths of the paper's Table 1.
func TestClassifyPathPaperTable1(t *testing.T) {
	cases := []struct {
		name  string
		steps []Cardinality
		class PathClass
		close bool
	}{
		// 1: department 1:N employee (immediate).
		{"department-employee", []Cardinality{OneToMany}, ClassImmediate, true},
		// 2: project N:M employee (immediate).
		{"project-employee", []Cardinality{ManyToMany}, ClassImmediate, true},
		// 3: department 1:N employee 1:N dependent (functional).
		{"department-employee-dependent", []Cardinality{OneToMany, OneToMany}, ClassFunctional, true},
		// 4: department 1:N project N:M employee (mixed, allows loose).
		{"department-project-employee", []Cardinality{OneToMany, ManyToMany}, ClassMixed, false},
		// 5: project N:1 department 1:N employee (transitive N:M).
		{"project-department-employee", []Cardinality{ManyToOne, OneToMany}, ClassTransitiveNM, false},
		// 6: department 1:N project N:M employee 1:N dependent (mixed, allows loose).
		{"department-project-employee-dependent", []Cardinality{OneToMany, ManyToMany, OneToMany}, ClassMixed, false},
	}
	for _, c := range cases {
		got := ClassifyPath(c.steps)
		if got != c.class {
			t.Errorf("%s: ClassifyPath = %v, want %v", c.name, got, c.class)
		}
		if got.Close() != c.close {
			t.Errorf("%s: Close = %v, want %v", c.name, got.Close(), c.close)
		}
		if loose := got == ClassTransitiveNM || got == ClassMixed; loose == c.close {
			t.Errorf("%s: loose and close must be complementary for non-empty paths", c.name)
		}
	}
}

func TestClassifyPathFunctionalWithOneToOne(t *testing.T) {
	// 1:1 steps are neutral: paths mixing 1:1 and 1:N remain functional.
	steps := []Cardinality{OneToOne, OneToMany, OneToOne}
	if got := ClassifyPath(steps); got != ClassFunctional {
		t.Errorf("ClassifyPath = %v, want functional", got)
	}
	// All N:1 is functional as well (functional in the forward direction).
	if got := ClassifyPath([]Cardinality{ManyToOne, ManyToOne}); got != ClassFunctional {
		t.Errorf("ClassifyPath(N:1,N:1) = %v, want functional", got)
	}
}

func TestClassifyPathEmptyAndReverseInvariance(t *testing.T) {
	if got := ClassifyPath(nil); got != ClassEmpty {
		t.Errorf("ClassifyPath(nil) = %v", got)
	}
	if ClassEmpty.Close() {
		t.Error("empty class should be neither close nor loose")
	}
	// The paper reads connection 3 in both directions (department 1:N
	// employee 1:N dependent vs dependent N:1 employee N:1 department) and
	// treats both as functional: closeness must be direction-invariant.
	paths := [][]Cardinality{
		{OneToMany, OneToMany},
		{ManyToOne, OneToMany},
		{OneToMany, ManyToMany},
		{OneToMany, ManyToMany, OneToMany},
		{ManyToMany},
	}
	for _, p := range paths {
		fwd := ClassifyPath(p)
		bwd := ClassifyPath(reversePath(p))
		if fwd.Close() != bwd.Close() {
			t.Errorf("closeness not direction-invariant for %v: %v vs %v", p, fwd, bwd)
		}
	}
}

func TestClassifyPathCloseInvariantUnderReversalProperty(t *testing.T) {
	gen := func(r *rand.Rand) []Cardinality {
		n := 1 + r.Intn(6)
		out := make([]Cardinality, n)
		all := []Cardinality{OneToOne, OneToMany, ManyToOne, ManyToMany}
		for i := range out {
			out[i] = all[r.Intn(len(all))]
		}
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := gen(r)
		return ClassifyPath(p).Close() == ClassifyPath(reversePath(p)).Close()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestComposePath(t *testing.T) {
	cases := []struct {
		steps []Cardinality
		want  Cardinality
	}{
		{nil, OneToOne},
		{[]Cardinality{OneToMany}, OneToMany},
		{[]Cardinality{OneToMany, OneToMany}, OneToMany},
		{[]Cardinality{ManyToOne, OneToMany}, ManyToMany},
		{[]Cardinality{OneToMany, ManyToMany}, ManyToMany},
		{[]Cardinality{ManyToOne, ManyToOne}, ManyToOne},
		{[]Cardinality{OneToOne, OneToOne}, OneToOne},
	}
	for _, c := range cases {
		if got := Compose(c.steps); got != c.want {
			t.Errorf("Compose(%v) = %v, want %v", c.steps, got, c.want)
		}
	}
}

func TestComposeReverseDualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		all := []Cardinality{OneToOne, OneToMany, ManyToOne, ManyToMany}
		n := 1 + r.Intn(6)
		p := make([]Cardinality, n)
		for i := range p {
			p[i] = all[r.Intn(len(all))]
		}
		return Compose(reversePath(p)) == Compose(p).Reverse()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLoosenessDegree(t *testing.T) {
	cases := []struct {
		steps []Cardinality
		want  int
	}{
		{[]Cardinality{OneToMany}, 0},                        // immediate
		{[]Cardinality{OneToMany, OneToMany}, 0},             // functional (rel 3)
		{[]Cardinality{OneToMany, ManyToMany}, 1},            // rel 4
		{[]Cardinality{ManyToOne, OneToMany}, 1},             // rel 5
		{[]Cardinality{OneToMany, ManyToMany, OneToMany}, 2}, // rel 6
		{[]Cardinality{ManyToOne, ManyToOne, ManyToOne}, 0},  // functional chain
		{[]Cardinality{ManyToOne, OneToMany, ManyToOne}, 2},  // hub in the middle, both pairs loose
	}
	for _, c := range cases {
		if got := LoosenessDegree(c.steps); got != c.want {
			t.Errorf("LoosenessDegree(%v) = %d, want %d", c.steps, got, c.want)
		}
	}
}

func TestClosePathsHaveZeroLoosenessProperty(t *testing.T) {
	// Close (immediate or functional) paths must have looseness degree 0
	// and no transitive N:M sub-path. The converse does not hold in
	// general: exotic non-functional paths such as (1:N, 1:1, N:1) have
	// degree 0 yet are not guaranteed close by the paper's rule, so only
	// the forward implication is asserted.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		all := []Cardinality{OneToOne, OneToMany, ManyToOne, ManyToMany}
		n := 1 + r.Intn(6)
		p := make([]Cardinality, n)
		for i := range p {
			p[i] = all[r.Intn(len(all))]
		}
		if !ClassifyPath(p).Close() {
			return true
		}
		return LoosenessDegree(p) == 0 && TransitiveNMCount(p) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTransitiveNMCount(t *testing.T) {
	cases := []struct {
		steps []Cardinality
		want  int
	}{
		{[]Cardinality{OneToMany}, 0},                                  // immediate
		{[]Cardinality{OneToMany, OneToMany}, 0},                       // rel 3 functional
		{[]Cardinality{OneToMany, ManyToMany}, 1},                      // rel 4
		{[]Cardinality{ManyToOne, OneToMany}, 1},                       // rel 5
		{[]Cardinality{OneToMany, ManyToMany, OneToMany}, 1},           // rel 6
		{[]Cardinality{ManyToOne, OneToMany, ManyToOne, OneToMany}, 2}, // two hubs
		{[]Cardinality{OneToMany, OneToOne, ManyToOne}, 0},             // non-functional but no N:M window
		{[]Cardinality{ManyToMany, ManyToMany}, 2},                     // two N:M steps
	}
	for _, c := range cases {
		if got := TransitiveNMCount(c.steps); got != c.want {
			t.Errorf("TransitiveNMCount(%v) = %d, want %d", c.steps, got, c.want)
		}
	}
}

func TestGeneralEntityBridges(t *testing.T) {
	// Paper relationship 5: project N:1 department 1:N employee — the
	// department is the general entity in the middle.
	if got := GeneralEntityBridges([]Cardinality{ManyToOne, OneToMany}); got != 1 {
		t.Errorf("bridges(rel5) = %d, want 1", got)
	}
	// Relationship 3 has no general-entity hub.
	if got := GeneralEntityBridges([]Cardinality{OneToMany, OneToMany}); got != 0 {
		t.Errorf("bridges(rel3) = %d, want 0", got)
	}
	// Relationship 4 (department 1:N project N:M employee): the middle
	// entity (project) has a single department on its other side, so the
	// general-entity hub pattern is absent even though the path is loose.
	if got := GeneralEntityBridges([]Cardinality{OneToMany, ManyToMany}); got != 0 {
		t.Errorf("bridges(rel4) = %d, want 0", got)
	}
	// An immediate relationship has no middle entity at all.
	if got := GeneralEntityBridges([]Cardinality{ManyToMany}); got != 0 {
		t.Errorf("bridges(immediate N:M) = %d, want 0", got)
	}
}

func TestFormatPath(t *testing.T) {
	got := FormatPath([]string{"department", "employee", "dependent"}, []Cardinality{OneToMany, OneToMany})
	want := "department 1:N employee 1:N dependent"
	if got != want {
		t.Errorf("FormatPath = %q, want %q", got, want)
	}
	// Mismatched lengths degrade gracefully.
	if got := FormatPath([]string{"a", "b"}, nil); got != "a - b" {
		t.Errorf("FormatPath fallback = %q", got)
	}
}

func TestReversePath(t *testing.T) {
	p := []Cardinality{OneToMany, ManyToMany, ManyToOne}
	got := reversePath(p)
	want := []Cardinality{OneToMany, ManyToMany, ManyToOne}
	// Reversing (1:N, N:M, N:1) yields (1:N, M:N, N:1) = same rendering order reversed.
	want = []Cardinality{ManyToOne.Reverse(), ManyToMany.Reverse(), OneToMany.Reverse()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reversePath = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(reversePath(reversePath(p)), p) {
		t.Error("reversePath is not an involution")
	}
}

func TestPathClassString(t *testing.T) {
	names := map[PathClass]string{
		ClassEmpty: "empty", ClassImmediate: "immediate", ClassFunctional: "functional",
		ClassTransitiveNM: "transitive-N:M", ClassMixed: "mixed",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}
