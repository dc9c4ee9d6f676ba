package core

import (
	"fmt"
	"strings"

	"repro/internal/er"
	"repro/internal/relation"
)

// Step is one conceptual (ER-level) step of a connection: a relationship
// traversed between two entity tuples. A plain foreign-key join contributes
// one step; the two joins through a middle relation collapse into a single
// N:M step whose ViaJunction records the junction tuple.
type Step struct {
	// From and To are the entity tuples the step connects, in traversal order.
	From, To relation.TupleID
	// Relationship is the ER relationship name (or the foreign-key label
	// when no mapping entry exists).
	Relationship string
	// Cardinality is read in traversal direction.
	Cardinality er.Cardinality
	// ViaJunction is the middle-relation tuple the step passes through,
	// for N:M steps implemented by a junction; zero otherwise.
	ViaJunction relation.TupleID
}

// RDBStep is one relational-level step (a single join) annotated with the
// cardinality of the foreign key read in traversal direction; Table 3 of the
// paper lists connections in this form.
type RDBStep struct {
	From, To    relation.TupleID
	ForeignKey  string
	Cardinality er.Cardinality
}

// HubStat describes a "general entity" hub on a loose connection: an
// interior entity tuple whose two adjacent steps both fan out, so that
// unrelated entities become associated merely by hanging off it. LeftCount
// and RightCount are the numbers of tuples related to the hub through the
// two adjacent relationships at the instance level; AssociatedPairs is their
// product — how many (start, end) pairs the hub alone associates. The paper
// suggests exactly these counts as a refined looseness measure.
type HubStat struct {
	Hub               relation.TupleID
	LeftRelationship  string
	RightRelationship string
	LeftCount         int
	RightCount        int
	AssociatedPairs   int
}

// Analysis is the full association analysis of one connection.
type Analysis struct {
	// Connection is the analysed connection.
	Connection Connection
	// RDBLength is the number of joins in the relational database.
	RDBLength int
	// ERLength is the conceptual length: middle relations do not count.
	ERLength int
	// RDBSteps are the per-join steps with foreign-key cardinalities.
	RDBSteps []RDBStep
	// Steps are the conceptual steps after collapsing middle relations.
	Steps []Step
	// Class is the paper's classification of the conceptual path.
	Class er.PathClass
	// Close reports whether the association is guaranteed close at the
	// schema level (immediate or transitive functional path).
	Close bool
	// LoosenessDegree counts non-functional adjacent step pairs.
	LoosenessDegree int
	// TransitiveNM counts minimal transitive N:M sub-paths (the ranking
	// criterion sketched in the paper's conclusions).
	TransitiveNM int
	// Bridges counts general-entity hubs along the path.
	Bridges int
	// Composite is the composed cardinality of the conceptual path.
	Composite er.Cardinality
	// Hubs are the instance-level statistics of each general-entity hub.
	Hubs []HubStat
	// CorroboratedAtInstance reports, for connections that allow loose
	// associations, whether a guaranteed-close connection between the same
	// two end tuples exists in the database with at most the same number
	// of joins — the paper's observation that connections 3, 4 and 7 are
	// close at the instance level. Close connections are trivially
	// corroborated.
	CorroboratedAtInstance bool
}

// FormatWithCardinalities renders the connection in the paper's Table 3
// notation: tuple labels interleaved with the per-join cardinalities, e.g.
// "d1(XML) 1:N p1(XML) 1:N w_f1 N:1 e1(Smith)".
func (a Analysis) FormatWithCardinalities(label func(relation.TupleID) string, matched map[relation.TupleID][]string) string {
	if label == nil {
		label = func(id relation.TupleID) string { return id.String() }
	}
	render := func(id relation.TupleID) string {
		s := label(id)
		if kws := matched[id]; len(kws) > 0 {
			s += "(" + strings.Join(kws, ",") + ")"
		}
		return s
	}
	out := render(a.Connection.Tuples[0])
	for i, st := range a.RDBSteps {
		out += " " + st.Cardinality.String() + " " + render(a.Connection.Tuples[i+1])
	}
	return out
}

// Analyzer lifts connections to the ER level using the conceptual schema
// derived from (or supplied for) the database.
//
// An Analyzer is immutable after construction and only reads the database,
// schema and mapping, so all of its methods — including Analyze and
// AnalyzeWithInstanceContext — are safe for concurrent use from any number of
// goroutines; the paths annotation pipeline relies on this to analyse many
// answers at once.
type Analyzer struct {
	db      *relation.Database
	schema  *er.Schema
	mapping *er.Mapping
	// countObserver, when non-nil, observes every relatedCount call; tests
	// use it to pin the number of instance-count computations per hub.
	countObserver func(hub relation.TupleID, relationship string)
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// withCountObserver installs a hook observing every relatedCount call. It is
// construction-time test instrumentation, so the analyzer stays immutable —
// and therefore concurrency-safe — once built.
func withCountObserver(fn func(hub relation.TupleID, relationship string)) Option {
	return func(a *Analyzer) { a.countObserver = fn }
}

// NewAnalyzer creates an analyzer for the database using the given
// conceptual schema and mapping (typically from er.FromRelational or the
// mapping returned by er.ToRelational).
func NewAnalyzer(db *relation.Database, schema *er.Schema, mapping *er.Mapping, opts ...Option) (*Analyzer, error) {
	if db == nil || schema == nil || mapping == nil {
		return nil, fmt.Errorf("core: analyzer requires a database, schema and mapping")
	}
	a := &Analyzer{db: db, schema: schema, mapping: mapping}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// Derive creates an analyzer by deriving the conceptual schema from the
// database's relational catalog.
func Derive(db *relation.Database, opts ...Option) (*Analyzer, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	schema, mapping, err := er.FromRelational(db.Name, db.Schemas(), nil)
	if err != nil {
		return nil, err
	}
	return NewAnalyzer(db, schema, mapping, opts...)
}

// Schema returns the conceptual schema the analyzer uses.
func (a *Analyzer) Schema() *er.Schema { return a.schema }

// Mapping returns the ER/relational mapping the analyzer uses.
func (a *Analyzer) Mapping() *er.Mapping { return a.mapping }

// Analyze lifts a connection to the conceptual level and classifies it.
// The connection must be non-empty (at least one tuple).
func (a *Analyzer) Analyze(c Connection) (Analysis, error) {
	if len(c.Tuples) == 0 {
		return Analysis{}, fmt.Errorf("core: empty connection")
	}
	if len(c.Edges) != len(c.Tuples)-1 {
		return Analysis{}, fmt.Errorf("core: malformed connection: %d tuples, %d edges", len(c.Tuples), len(c.Edges))
	}
	rdbSteps, err := a.rdbSteps(c)
	if err != nil {
		return Analysis{}, err
	}
	steps := a.collapse(c, rdbSteps)
	cards := make([]er.Cardinality, len(steps))
	for i, s := range steps {
		cards[i] = s.Cardinality
	}
	class := er.ClassifyPath(cards)
	// A single-tuple connection (both keywords inside one tuple) traverses
	// no relationship at all: the association is trivially close.
	close := class.Close() || len(c.Edges) == 0
	an := Analysis{
		Connection:      c,
		RDBLength:       len(c.Edges),
		ERLength:        len(steps),
		RDBSteps:        rdbSteps,
		Steps:           steps,
		Class:           class,
		Close:           close,
		LoosenessDegree: er.LoosenessDegree(cards),
		TransitiveNM:    er.TransitiveNMCount(cards),
		Bridges:         er.GeneralEntityBridges(cards),
		Composite:       er.Compose(cards),
	}
	an.Hubs = a.hubStats(steps)
	an.CorroboratedAtInstance = an.Close
	return an, nil
}

// rdbSteps annotates each join of the connection with the cardinality of its
// foreign key read in traversal direction: traversing from the foreign-key
// owner to the referenced tuple is N:1, the opposite direction 1:N.
func (a *Analyzer) rdbSteps(c Connection) ([]RDBStep, error) {
	out := make([]RDBStep, len(c.Edges))
	for i, e := range c.Edges {
		fromSchema, ok := a.db.Table(e.From.Relation)
		if !ok {
			return nil, fmt.Errorf("core: unknown relation %s", e.From.Relation)
		}
		card := er.OneToMany
		if ownsForeignKey(fromSchema.Schema(), e.ForeignKey) {
			card = er.ManyToOne
		}
		out[i] = RDBStep{From: e.From, To: e.To, ForeignKey: e.ForeignKey, Cardinality: card}
	}
	return out, nil
}

func ownsForeignKey(s *relation.Schema, label string) bool {
	for _, fk := range s.ForeignKeys {
		if fk.Label() == label {
			return true
		}
	}
	return false
}

// collapse merges the two joins around every interior middle-relation tuple
// into a single conceptual N:M step and maps the remaining joins to their ER
// relationships.
func (a *Analyzer) collapse(c Connection, rdb []RDBStep) []Step {
	var steps []Step
	i := 0
	for i < len(rdb) {
		cur := rdb[i]
		// Does this join lead into an interior junction tuple that the
		// next join leaves again?
		if i+1 < len(rdb) && a.mapping.IsMiddleRelation(cur.To.Relation) {
			next := rdb[i+1]
			relName := a.mapping.MiddleRelationship[cur.To.Relation]
			steps = append(steps, Step{
				From:         cur.From,
				To:           next.To,
				Relationship: relName,
				Cardinality:  er.ManyToMany,
				ViaJunction:  cur.To,
			})
			i += 2
			continue
		}
		steps = append(steps, Step{
			From:         cur.From,
			To:           cur.To,
			Relationship: a.relationshipForJoin(cur),
			Cardinality:  cur.Cardinality,
		})
		i++
	}
	return steps
}

// relationshipForJoin resolves the ER relationship implemented by a join, or
// falls back to the foreign-key label when the mapping has no entry (e.g.
// joins touching a reified n-ary junction).
func (a *Analyzer) relationshipForJoin(st RDBStep) string {
	owner := st.From.Relation
	if st.Cardinality == er.OneToMany {
		owner = st.To.Relation
	}
	if name, ok := a.mapping.RelationshipForFK(owner, st.ForeignKey); ok {
		return name
	}
	return st.ForeignKey
}

// hubStats computes the instance-level statistics of every general-entity
// hub along the conceptual path: for adjacent steps (i, i+1) whose middle
// tuple fans out on both sides, it counts how many tuples relate to the hub
// through each of the two relationships.
func (a *Analyzer) hubStats(steps []Step) []HubStat {
	var out []HubStat
	for i := 0; i+1 < len(steps); i++ {
		left, right := steps[i], steps[i+1]
		if left.Cardinality.Source != er.Many || right.Cardinality.Target != er.Many {
			continue
		}
		hub := left.To
		// Each instance-level count is computed once and reused for the
		// pair product: relatedCount walks referencing tuples and sits on
		// the annotation hot path.
		leftCount := a.relatedCount(hub, left.Relationship)
		rightCount := a.relatedCount(hub, right.Relationship)
		out = append(out, HubStat{
			Hub:               hub,
			LeftRelationship:  left.Relationship,
			RightRelationship: right.Relationship,
			LeftCount:         leftCount,
			RightCount:        rightCount,
			AssociatedPairs:   leftCount * rightCount,
		})
	}
	return out
}

// relatedCount counts the tuples related to the hub tuple through the named
// relationship at the instance level.
func (a *Analyzer) relatedCount(hub relation.TupleID, relationship string) int {
	if a.countObserver != nil {
		a.countObserver(hub, relationship)
	}
	hubTuple, ok := a.db.Tuple(hub)
	if !ok {
		return 0
	}
	// 1:N / N:1 relationships: the hub is the referenced ("one") side, so
	// count the referencing tuples; or the hub owns the FK, in which case
	// the count is 1 when the reference resolves.
	if impl, ok := a.mapping.RelationshipFK[relationship]; ok {
		ownerTable, ok := a.db.Table(impl.Owner)
		if !ok {
			return 0
		}
		var fk relation.ForeignKey
		for _, f := range ownerTable.Schema().ForeignKeys {
			if f.Label() == impl.Label {
				fk = f
			}
		}
		if impl.Owner == hub.Relation {
			if _, resolved := a.db.ReferencedTuple(hubTuple, fk); resolved {
				return 1
			}
			return 0
		}
		return len(ownerTable.ReferencingTuples(fk, hub.Key))
	}
	// N:M relationships: count junction tuples referencing the hub.
	if middle, ok := a.mapping.RelationshipMiddle[relationship]; ok {
		middleTable, ok := a.db.Table(middle)
		if !ok {
			return 0
		}
		count := 0
		for _, fk := range middleTable.Schema().ForeignKeys {
			if fk.RefRelation != hub.Relation {
				continue
			}
			count += len(middleTable.ReferencingTuples(fk, hub.Key))
		}
		return count
	}
	return 0
}
