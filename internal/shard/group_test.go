package shard

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
)

// makeTuple builds a free-standing tuple for a delta by inserting the row
// into a throwaway clone of the database — the same tuple value the staging
// layer would hand the group.
func makeTuple(t *testing.T, db *relation.Database, table string, values map[string]relation.Value) *relation.Tuple {
	t.Helper()
	scratch := db.Clone()
	tab, ok := scratch.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	tab = tab.Clone()
	tup, err := tab.Insert(values)
	if err != nil {
		t.Fatalf("insert into %s: %v", table, err)
	}
	return tup
}

// firstTuple returns some existing tuple of the table, to use as a removal.
func firstTuple(t *testing.T, db *relation.Database, table string) *relation.Tuple {
	t.Helper()
	tab, ok := db.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	tuples := tab.Tuples()
	if len(tuples) == 0 {
		t.Fatalf("table %s is empty", table)
	}
	return tuples[0]
}

func TestStatesNext(t *testing.T) {
	g, err := NewGroup(NewPartitioner(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	states, err := g.Fresh(paperdb.MustLoad(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if states.Gen != 0 {
		t.Fatalf("fresh global generation = %d", states.Gen)
	}
	for s, part := range states.Parts {
		if part.Gen != 0 {
			t.Fatalf("fresh shard %d generation = %d", s, part.Gen)
		}
	}
	replacement := &Part{Gen: 1}
	next := states.Next(1, map[int]*Part{1: replacement})
	if next.Gen != 1 || next.Parts[1] != replacement {
		t.Fatal("Next did not install the prepared part")
	}
	if next.Parts[0] != states.Parts[0] || next.Parts[2] != states.Parts[2] {
		t.Fatal("Next did not share the untouched parts")
	}
	if states.Parts[1] == replacement {
		t.Fatal("Next mutated the predecessor cut")
	}
}

func TestGroupSplitRoutesByOwner(t *testing.T) {
	db := paperdb.MustLoad()
	p := NewPartitioner(4)
	g, err := NewGroup(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var removed, added []*relation.Tuple
	for _, table := range db.Tables() {
		removed = append(removed, table.Tuples()...)
	}
	added = append(added, makeTuple(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": relation.String("e9"), "L_NAME": relation.String("Knuth"), "S_NAME": relation.String("Don"), "D_ID": relation.String("d1"),
	}))
	deltas := g.Split(removed, added)
	seen := 0
	for s, d := range deltas {
		for _, tup := range d.Removed {
			seen++
			if owner := p.Owner(tup.ID()); owner != s {
				t.Fatalf("%s routed to shard %d, owner %d", tup.ID(), s, owner)
			}
		}
		for _, tup := range d.Added {
			seen++
			if owner := p.Owner(tup.ID()); owner != s {
				t.Fatalf("added %s routed to shard %d, owner %d", tup.ID(), s, owner)
			}
		}
	}
	if want := len(removed) + len(added); seen != want {
		t.Fatalf("split covers %d tuples, want %d", seen, want)
	}
}

// mutatePrepareCommit runs one batch — delete one DEPENDENT, insert one
// EMPLOYEE — through Split, Prepare and Next and returns the successor cut
// plus the equivalently mutated flat database.
func mutatePrepareCommit(t *testing.T, g *Group, states *States, db *relation.Database) (*States, *relation.Database) {
	t.Helper()
	removal := firstTuple(t, db, "DEPENDENT")
	addition := makeTuple(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": relation.String("e9"), "L_NAME": relation.String("Hopper"), "S_NAME": relation.String("Grace"), "D_ID": relation.String("d1"),
	})
	deltas := g.Split([]*relation.Tuple{removal}, []*relation.Tuple{addition})
	prepared, err := g.Prepare(states, deltas)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for s, part := range prepared {
		if part.Gen != states.Parts[s].Gen+1 {
			t.Fatalf("shard %d prepared generation %d from %d", s, part.Gen, states.Parts[s].Gen)
		}
	}
	next := states.Next(states.Gen+1, prepared)

	want := db.Clone()
	tab, _ := want.Table("DEPENDENT")
	tab = tab.Clone()
	if _, ok := tab.Delete(removal.ID().Key); !ok {
		t.Fatal("mirror delete failed")
	}
	if err := want.SetTable(tab); err != nil {
		t.Fatal(err)
	}
	tab, _ = want.Table("EMPLOYEE")
	tab = tab.Clone()
	if _, err := tab.InsertRow(addition.Values()...); err != nil {
		t.Fatal(err)
	}
	if err := want.SetTable(tab); err != nil {
		t.Fatal(err)
	}
	return next, want
}

func TestGroupPrepareCommitMemory(t *testing.T) {
	db := paperdb.MustLoad()
	g, err := NewGroup(NewPartitioner(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	states, err := g.Fresh(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	next, want := mutatePrepareCommit(t, g, states, db)
	parts := make([]*relation.Database, len(next.Parts))
	for s, p := range next.Parts {
		parts[s] = p.DB
	}
	composed, err := ComposeDatabase(db.Name, parts)
	if err != nil {
		t.Fatal(err)
	}
	if dump(composed) != dump(want) {
		t.Fatal("composed post-commit state differs from the flat mutation")
	}
	// The predecessor cut is untouched: its parts still compose to the seed.
	for s, p := range states.Parts {
		parts[s] = p.DB
	}
	composed, err = ComposeDatabase(db.Name, parts)
	if err != nil {
		t.Fatal(err)
	}
	if dump(composed) != dump(db) {
		t.Fatal("commit mutated the predecessor cut")
	}
}

func TestGroupPrepareRejectsBadDeltas(t *testing.T) {
	db := paperdb.MustLoad()
	g, err := NewGroup(NewPartitioner(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	states, err := g.Fresh(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	ghost := makeTuple(t, db, "EMPLOYEE", map[string]relation.Value{
		"SSN": relation.String("nosuch"), "L_NAME": relation.String("Ghost"), "S_NAME": relation.String("No"),
	})
	if _, err := g.Prepare(states, g.Split([]*relation.Tuple{ghost}, nil)); err == nil || !strings.Contains(err.Error(), "not in its partition") {
		t.Fatalf("removing an absent tuple: err = %v", err)
	}
	dup := firstTuple(t, db, "EMPLOYEE")
	if _, err := g.Prepare(states, g.Split(nil, []*relation.Tuple{dup})); err == nil {
		t.Fatal("re-inserting an existing primary key prepared cleanly")
	}
}

// TestGroupConcurrentDisjointPrepare drives two batches on disjoint shard
// sets through Prepare concurrently, both from the same States.
func TestGroupConcurrentDisjointPrepare(t *testing.T) {
	db := paperdb.MustLoad()
	p := NewPartitioner(2)
	g, err := NewGroup(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	states, err := g.Fresh(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Find one existing tuple per shard so the two batches are disjoint.
	perShard := make([]*relation.Tuple, 2)
	for _, table := range db.Tables() {
		for _, tup := range table.Tuples() {
			s := p.Owner(tup.ID())
			if perShard[s] == nil {
				perShard[s] = tup
			}
		}
	}
	if perShard[0] == nil || perShard[1] == nil {
		t.Skip("paper database does not populate both shards at n=2")
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			prepared, err := g.Prepare(states, g.Split([]*relation.Tuple{perShard[s]}, nil))
			if err != nil {
				errs[s] = err
				return
			}
			if len(prepared) != 1 || prepared[s] == nil {
				errs[s] = errors.New("prepare touched the wrong shards")
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}
