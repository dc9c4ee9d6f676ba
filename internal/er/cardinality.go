// Package er implements the Entity–Relationship layer of the reproduction:
// entity types, relationship types with cardinality constraints, ER schemas,
// the mapping between ER schemas and relational schemas (foreign keys for
// 1:N, middle relations for N:M), and the cardinality-composition algebra
// that the paper uses to separate close from loose associations.
package er

import (
	"fmt"
	"strings"
)

// Side is one side of a cardinality constraint: One ("1") or Many ("N").
type Side int

const (
	// One means at most one participating entity on this side.
	One Side = iota
	// Many means an unbounded number of participating entities.
	Many
)

// String renders the side as "1" or "N".
func (s Side) String() string {
	if s == One {
		return "1"
	}
	return "N"
}

// Cardinality is the constraint of a binary relationship read from a source
// entity type to a target entity type. For a relationship "A X:Y B":
//
//   - each A is related to at most Y (One) or arbitrarily many (Many) B's;
//   - each B is related to at most X (One) or arbitrarily many (Many) A's.
//
// So Source is the multiplicity on the source side (how many sources per
// target) and Target the multiplicity on the target side (how many targets
// per source).
type Cardinality struct {
	Source Side
	Target Side
}

// The four binary cardinality constraints of the ER model.
var (
	OneToOne   = Cardinality{One, One}
	OneToMany  = Cardinality{One, Many}
	ManyToOne  = Cardinality{Many, One}
	ManyToMany = Cardinality{Many, Many}
)

// String renders the constraint as "1:1", "1:N", "N:1" or "N:M".
func (c Cardinality) String() string {
	if c == ManyToMany {
		return "N:M"
	}
	return c.Source.String() + ":" + c.Target.String()
}

// Reverse returns the constraint read in the opposite direction
// (A X:Y B becomes B Y:X A).
func (c Cardinality) Reverse() Cardinality {
	return Cardinality{Source: c.Target, Target: c.Source}
}

// PathClass classifies a transitive (or immediate) relationship path per the
// paper's Section 2 definitions.
type PathClass int

const (
	// ClassEmpty is the classification of a zero-step path.
	ClassEmpty PathClass = iota
	// ClassImmediate is a single relationship: the association is always
	// close, regardless of its cardinality.
	ClassImmediate
	// ClassFunctional is a transitive path in which every step has 1 on
	// the source side, or every step has 1 on the target side (1:1 steps
	// count for both). Such paths connect entities unambiguously: the
	// association is close.
	ClassFunctional
	// ClassTransitiveNM is the paper's "transitive N:M relationship":
	// X1 != 1 and Yn != 1 — several start entities relate to several end
	// entities through middle entities, so the path allows loose
	// associations.
	ClassTransitiveNM
	// ClassMixed is any other non-functional transitive path (e.g. the
	// paper's relationship 4, department 1:N project N:M employee). It is
	// not a transitive N:M relationship by the paper's definition but it
	// still allows loose associations.
	ClassMixed
)

// String names the class.
func (p PathClass) String() string {
	switch p {
	case ClassEmpty:
		return "empty"
	case ClassImmediate:
		return "immediate"
	case ClassFunctional:
		return "functional"
	case ClassTransitiveNM:
		return "transitive-N:M"
	case ClassMixed:
		return "mixed"
	default:
		return fmt.Sprintf("PathClass(%d)", int(p))
	}
}

// Close reports whether the class guarantees a close association at the
// extensional level (paper: immediate relationships and transitive
// functional relationships).
func (p PathClass) Close() bool { return p == ClassImmediate || p == ClassFunctional }

// ClassifyPath classifies a sequence of cardinality constraints, each read in
// traversal direction, following the paper's rules.
func ClassifyPath(steps []Cardinality) PathClass {
	switch len(steps) {
	case 0:
		return ClassEmpty
	case 1:
		return ClassImmediate
	}
	allSourceOne, allTargetOne := true, true
	for _, s := range steps {
		if s.Source != One {
			allSourceOne = false
		}
		if s.Target != One {
			allTargetOne = false
		}
	}
	if allSourceOne || allTargetOne {
		return ClassFunctional
	}
	if steps[0].Source != One && steps[len(steps)-1].Target != One {
		return ClassTransitiveNM
	}
	return ClassMixed
}

// Compose returns the composite cardinality of a path: the source side is
// Many iff some step has a Many source (several start entities can reach the
// same end entity), and symmetrically for the target side. The composite of
// an empty path is 1:1.
func Compose(steps []Cardinality) Cardinality {
	out := OneToOne
	for _, s := range steps {
		if s.Source == Many {
			out.Source = Many
		}
		if s.Target == Many {
			out.Target = Many
		}
	}
	return out
}

// LoosenessDegree counts, over a path of cardinalities, the adjacent step
// pairs that are themselves non-functional. It is 0 exactly for immediate
// and functional paths and grows with the number of ambiguous hand-overs,
// which is the ranking criterion the paper sketches ("the number of
// transitive N:M relationships in a connection").
func LoosenessDegree(steps []Cardinality) int {
	if len(steps) < 2 {
		return 0
	}
	degree := 0
	for i := 0; i+1 < len(steps); i++ {
		pair := steps[i : i+2]
		if ClassifyPath(pair) != ClassFunctional {
			degree++
		}
	}
	return degree
}

// TransitiveNMCount counts the minimal contiguous sub-paths that are
// transitive N:M relationships in the paper's sense: a window of steps whose
// first step has a Many source and whose last step has a Many target, with
// no smaller qualifying window nested inside it. A single N:M step inside a
// longer path counts as one. This is the ranking criterion the paper
// sketches in its conclusions: "the number of transitive N:M relationships
// in a connection".
func TransitiveNMCount(steps []Cardinality) int {
	if len(steps) < 2 {
		// An immediate relationship is never transitive, even when its
		// own cardinality is N:M (the paper treats immediate N:M as a
		// close association).
		return 0
	}
	count := 0
	i := 0
	for i < len(steps) {
		if steps[i].Source != Many {
			i++
			continue
		}
		// Find the nearest j >= i with a Many target; the window [i..j]
		// is then a minimal transitive N:M sub-path.
		j := i
		for j < len(steps) && steps[j].Target != Many {
			j++
		}
		if j == len(steps) {
			break
		}
		count++
		i = j + 1
	}
	return count
}

// GeneralEntityBridges counts the middle positions at which the path passes
// through a "more general entity": the entity between step i and step i+1
// has many path-predecessors (steps[i].Source == Many) and many
// path-successors (steps[i+1].Target == Many). This is the structural
// signature of the paper's transitive N:M relationship 5 (project N:1
// department 1:N employee), where entities become associated merely because
// they hang off the same hub.
func GeneralEntityBridges(steps []Cardinality) int {
	bridges := 0
	for i := 0; i+1 < len(steps); i++ {
		if steps[i].Source == Many && steps[i+1].Target == Many {
			bridges++
		}
	}
	return bridges
}

// FormatPath renders a path of entity names interleaved with step
// cardinalities, e.g. "department 1:N employee 1:N dependent". The names
// slice must have exactly len(steps)+1 entries.
func FormatPath(names []string, steps []Cardinality) string {
	if len(names) != len(steps)+1 {
		return strings.Join(names, " - ")
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(" ")
			b.WriteString(steps[i-1].String())
			b.WriteString(" ")
		}
		b.WriteString(n)
	}
	return b.String()
}
