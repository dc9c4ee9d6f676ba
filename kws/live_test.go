package kws

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func paperEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(PaperExample(), WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func renders(results []Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.ConnectionWithCardinalities
	}
	return out
}

func searchRenders(t *testing.T, e *Engine, keywords ...string) []string {
	t.Helper()
	res, err := e.Search(context.Background(), Query{Keywords: keywords})
	if err != nil {
		t.Fatal(err)
	}
	return renders(res)
}

func TestApplyInsertIsSearchable(t *testing.T) {
	e := paperEngine(t)
	if got := e.Generation(); got != 0 {
		t.Fatalf("fresh engine generation = %d, want 0", got)
	}
	before := searchRenders(t, e, "Smith", "XML")

	gen, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Insert("EMPLOYEE", map[string]any{"SSN": "e5", "L_NAME": "Turing", "S_NAME": "Alan", "D_ID": "d1"}),
		Insert("WORKS_ON", map[string]any{"ESSN": "e5", "P_ID": "p1", "HOURS": 12}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || e.Generation() != 1 {
		t.Fatalf("generation after Apply = %d (engine %d), want 1", gen, e.Generation())
	}
	// The new employee is reachable through the index and the graph.
	if got := e.Match("Turing"); len(got) != 1 || got[0] != "e5" {
		t.Fatalf("Match(Turing) = %v", got)
	}
	after := searchRenders(t, e, "Turing", "XML")
	if len(after) == 0 {
		t.Fatal("inserted employee unreachable: no Turing-XML connections")
	}
	for _, r := range after {
		if !strings.Contains(r, "Turing") {
			t.Fatalf("connection misses the inserted tuple: %q", r)
		}
	}
	// Old answers are unaffected by an insert elsewhere in the graph except
	// for content-score shifts; the connection set stays a superset.
	if got := searchRenders(t, e, "Smith", "XML"); len(got) < len(before) {
		t.Fatalf("Smith-XML answers shrank after insert: %d -> %d", len(before), len(got))
	}
}

func TestApplyDeleteRemovesAnswers(t *testing.T) {
	e := paperEngine(t)
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Delete("WORKS_ON", map[string]any{"ESSN": "e1", "P_ID": "p1"}),
	}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range searchRenders(t, e, "Smith", "XML") {
		if strings.Contains(r, "w_f1") {
			t.Fatalf("answer still crosses the deleted junction tuple: %q", r)
		}
	}
	// Deleting a referenced tuple is allowed; the references dangle.
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Delete("EMPLOYEE", map[string]any{"SSN": "e1"}),
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Match("John"); len(got) != 1 || got[0] != "e4" {
		t.Fatalf("Match(John) after delete = %v, want [e4]", got)
	}
}

func TestApplyUpdateRewritesPostingsAndEdges(t *testing.T) {
	e := paperEngine(t)
	// Move e2 (Smith) from d2 to d3 and rename her.
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Update("EMPLOYEE", map[string]any{"SSN": "e2"}, map[string]any{"L_NAME": "Lovelace", "D_ID": "d3"}),
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Match("Lovelace"); len(got) != 1 || got[0] != "e2" {
		t.Fatalf("Match(Lovelace) = %v", got)
	}
	for _, id := range e.Match("Smith") {
		if id == "e2" {
			t.Fatal("stale Smith posting for the updated tuple")
		}
	}
	// The old schema-level connection d2 - e2 is gone; e2 now hangs off d3.
	for _, r := range searchRenders(t, e, "Lovelace", "retrieval") {
		if strings.Contains(r, "d2") && strings.Contains(r, "e2") &&
			!strings.Contains(r, "w_f2") {
			t.Fatalf("update left a direct edge to the old department: %q", r)
		}
	}
}

func TestApplyUpdateOfPrimaryKeyMovesIdentity(t *testing.T) {
	e := paperEngine(t)
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Update("DEPENDENT", map[string]any{"ID": "t1"}, map[string]any{"ID": "t9"}),
	}}); err != nil {
		t.Fatal(err)
	}
	got := e.Match("Alice")
	if len(got) != 1 || got[0] != "t9" {
		t.Fatalf("Match(Alice) after key update = %v, want [t9]", got)
	}
}

func TestApplyBatchIsAtomic(t *testing.T) {
	e := paperEngine(t)
	before := searchRenders(t, e, "Smith", "XML")
	gen := e.Generation()
	// Op 2 fails (duplicate primary key): nothing of the batch may land.
	_, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Insert("EMPLOYEE", map[string]any{"SSN": "e6", "L_NAME": "Hopper", "S_NAME": "Grace", "D_ID": "d1"}),
		Insert("EMPLOYEE", map[string]any{"SSN": "e1", "L_NAME": "Dup", "S_NAME": "Dup", "D_ID": "d1"}),
	}})
	if err == nil {
		t.Fatal("duplicate insert did not fail the batch")
	}
	if e.Generation() != gen {
		t.Fatalf("failed Apply advanced the generation to %d", e.Generation())
	}
	if got := e.Match("Hopper"); len(got) != 0 {
		t.Fatalf("half-applied batch leaked tuple: %v", got)
	}
	if got := searchRenders(t, e, "Smith", "XML"); !reflect.DeepEqual(got, before) {
		t.Fatal("failed Apply changed search output")
	}
}

func TestApplyInsertThenDeleteCancelsOut(t *testing.T) {
	e := paperEngine(t)
	before := searchRenders(t, e, "Smith", "XML")
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Insert("EMPLOYEE", map[string]any{"SSN": "e7", "L_NAME": "Ephemeral", "S_NAME": "Eve", "D_ID": "d1"}),
		Delete("EMPLOYEE", map[string]any{"SSN": "e7"}),
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Match("Ephemeral"); len(got) != 0 {
		t.Fatalf("cancelled-out tuple is searchable: %v", got)
	}
	if got := searchRenders(t, e, "Smith", "XML"); !reflect.DeepEqual(got, before) {
		t.Fatal("insert+delete batch changed search output")
	}
	if e.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", e.Generation())
	}
}

func TestApplyDeleteThenReinsertSameKey(t *testing.T) {
	e := paperEngine(t)
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Delete("EMPLOYEE", map[string]any{"SSN": "e1"}),
		Insert("EMPLOYEE", map[string]any{"SSN": "e1", "L_NAME": "Reborn", "S_NAME": "Ree", "D_ID": "d1"}),
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Match("Reborn"); len(got) != 1 || got[0] != "e1" {
		t.Fatalf("Match(Reborn) = %v", got)
	}
	// The junction tuple w_f1 referencing e1 re-resolved to the new tuple.
	found := false
	for _, r := range searchRenders(t, e, "Reborn", "XML") {
		if strings.Contains(r, "w_f1") {
			found = true
		}
	}
	if !found {
		t.Fatal("re-inserted key did not re-resolve the junction reference")
	}
}

func TestApplyErrors(t *testing.T) {
	e := paperEngine(t)
	ctx := context.Background()
	cases := []struct {
		name string
		op   Op
	}{
		{"unknown table", Insert("NOPE", map[string]any{"X": 1})},
		{"unknown column", Insert("EMPLOYEE", map[string]any{"NOPE": 1})},
		{"missing tuple", Delete("EMPLOYEE", map[string]any{"SSN": "e99"})},
		{"missing key column", Delete("WORKS_ON", map[string]any{"ESSN": "e1"})},
		{"extra key column", Delete("EMPLOYEE", map[string]any{"SSN": "e1", "L_NAME": "Smith"})},
		{"update missing tuple", Update("EMPLOYEE", map[string]any{"SSN": "e99"}, map[string]any{"L_NAME": "X"})},
		{"null into primary key", Update("EMPLOYEE", map[string]any{"SSN": "e1"}, map[string]any{"SSN": nil})},
		{"unknown kind", Op{Kind: OpKind(9), Table: "EMPLOYEE"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen := e.Generation()
			if _, err := e.Apply(ctx, Mutation{Ops: []Op{tc.op}}); err == nil {
				t.Fatalf("%s: Apply succeeded", tc.name)
			}
			if e.Generation() != gen {
				t.Fatalf("%s: failed Apply advanced the generation", tc.name)
			}
		})
	}
}

func TestApplyEmptyMutationIsNoOp(t *testing.T) {
	e := paperEngine(t)
	gen, err := e.Apply(context.Background(), Mutation{})
	if err != nil || gen != 0 {
		t.Fatalf("empty Apply = (%d, %v), want (0, nil)", gen, err)
	}
	if e.Generation() != 0 {
		t.Fatal("empty Apply published a generation")
	}
}

func TestApplyCancelledContextLeavesSnapshotUntouched(t *testing.T) {
	e := paperEngine(t)
	before := searchRenders(t, e, "Smith", "XML")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Apply(ctx, Mutation{Ops: []Op{
		Insert("EMPLOYEE", map[string]any{"SSN": "e8", "L_NAME": "Ghost", "S_NAME": "Gil", "D_ID": "d1"}),
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply with cancelled ctx = %v, want context.Canceled", err)
	}
	if e.Generation() != 0 {
		t.Fatalf("cancelled Apply advanced the generation to %d", e.Generation())
	}
	if got := searchRenders(t, e, "Smith", "XML"); !reflect.DeepEqual(got, before) {
		t.Fatal("cancelled Apply changed search output")
	}
	if got := e.Match("Ghost"); len(got) != 0 {
		t.Fatalf("cancelled Apply leaked tuple: %v", got)
	}
}

func TestStreamKeepsItsGenerationAcrossApply(t *testing.T) {
	e := paperEngine(t)
	want := searchRendersStream(t, e, "Smith", "XML")

	// Re-run the stream, mutating the engine after the first result: the
	// in-flight stream must keep reading generation 0.
	var got []string
	mutated := false
	err := e.Stream(context.Background(), Query{Keywords: []string{"Smith", "XML"}}, func(r Result) bool {
		got = append(got, r.ConnectionWithCardinalities)
		if !mutated {
			mutated = true
			if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
				Delete("WORKS_ON", map[string]any{"ESSN": "e1", "P_ID": "p1"}),
				Delete("EMPLOYEE", map[string]any{"SSN": "e1"}),
			}}); err != nil {
				t.Errorf("Apply mid-stream: %v", err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-stream Apply tore the snapshot:\ngot:  %v\nwant: %v", got, want)
	}
	// A stream started after the Apply sees the new generation.
	after := searchRendersStream(t, e, "Smith", "XML")
	if reflect.DeepEqual(after, want) {
		t.Fatal("post-Apply stream still shows generation 0 output")
	}
}

func searchRendersStream(t *testing.T, e *Engine, keywords ...string) []string {
	t.Helper()
	var out []string
	if err := e.Stream(context.Background(), Query{Keywords: keywords}, func(r Result) bool {
		out = append(out, r.ConnectionWithCardinalities)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFrozenDatabaseRejectsDirectWrites(t *testing.T) {
	db := PaperExample()
	if db.Frozen() {
		t.Fatal("database frozen before any engine was built")
	}
	// Regression: Insert after New used to mutate the relational data behind
	// the frozen engine's back — the analyzer saw the new tuple while the
	// index and graph did not (a stale read). It must now fail loudly.
	e, err := New(db, WithLabeler(PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Frozen() {
		t.Fatal("New did not freeze the database")
	}
	before := searchRenders(t, e, "Smith", "XML")
	err = db.Insert("EMPLOYEE", map[string]any{"SSN": "e9", "L_NAME": "Sneaky", "S_NAME": "Sam", "D_ID": "d1"})
	if !errors.Is(err, ErrFrozenDatabase) {
		t.Fatalf("Insert after New = %v, want ErrFrozenDatabase", err)
	}
	if err := db.AddTable(TableSpec{Name: "X", Columns: []ColumnSpec{{Name: "ID"}}, PrimaryKey: []string{"ID"}}); !errors.Is(err, ErrFrozenDatabase) {
		t.Fatalf("AddTable after New = %v, want ErrFrozenDatabase", err)
	}
	if _, err := db.LoadCSV("EMPLOYEE", strings.NewReader("SSN\nx1\n")); !errors.Is(err, ErrFrozenDatabase) {
		t.Fatalf("LoadCSV after New = %v, want ErrFrozenDatabase", err)
	}
	// Nothing reached the engine or the data.
	if got := e.Match("Sneaky"); len(got) != 0 {
		t.Fatalf("rejected insert is searchable: %v", got)
	}
	if got := searchRenders(t, e, "Smith", "XML"); !reflect.DeepEqual(got, before) {
		t.Fatal("rejected writes changed search output")
	}
	if db.TupleCount() != 16 {
		t.Fatalf("TupleCount = %d, want the paper's 16", db.TupleCount())
	}
	// A failed New must not freeze: validation errors come first.
	db2 := PaperExample()
	if _, err := New(db2, WithDefaults(Config{Engine: "nope"})); err == nil {
		t.Fatal("New with unknown engine succeeded")
	}
	if db2.Frozen() {
		t.Fatal("failed New froze the database")
	}
	if err := db2.Insert("EMPLOYEE", map[string]any{"SSN": "e9", "L_NAME": "Ok", "S_NAME": "Ola", "D_ID": "d1"}); err != nil {
		t.Fatalf("insert into never-engined database failed: %v", err)
	}
}

func TestApplyRefreshesAnalyzerBinding(t *testing.T) {
	e := paperEngine(t)
	// Hub statistics count referencing tuples at the instance level; after
	// adding a second dependent relationship the analyzer of the new
	// generation must see the new database, not the old one.
	if _, err := e.Apply(context.Background(), Mutation{Ops: []Op{
		Insert("DEPENDENT", map[string]any{"ID": "t3", "ESSN": "e3", "DEPENDENT_NAME": "Ada"}),
	}}); err != nil {
		t.Fatal(err)
	}
	// t1 - e3 - t3 hangs two dependents off the hub e3, which now has three:
	// a graph of the old generation has no t3 to walk to, and an analyzer
	// bound to the old database would count two.
	snap := e.current()
	dep := func(key string) relation.TupleID { return relation.TupleID{Relation: "DEPENDENT", Key: key} }
	conns, err := core.EnumerateConnectionsContext(context.Background(), snap.comp.Graph, dep("t1"), dep("t3"), 2)
	if err != nil || len(conns) != 1 {
		t.Fatalf("connections t1..t3 in the new generation's graph = %v, %v; want one", conns, err)
	}
	an, err := snap.comp.Analyzer.Analyze(conns[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Hubs) != 1 || an.Hubs[0].LeftCount != 3 || an.Hubs[0].RightCount != 3 {
		t.Fatalf("hub statistics of e3 = %+v, want 3 dependents on either side: analyzer bound to a stale database", an.Hubs)
	}
	if got := e.Match("Ada"); len(got) != 1 {
		t.Fatalf("Match(Ada) = %v", got)
	}
}

// TestLegacyEngineServesLiveGenerations: an engine configured once at
// construction — what the removed LegacyEngine was — serves the generations
// Apply publishes like any other.
func TestLegacyEngineServesLiveGenerations(t *testing.T) {
	le, err := New(PaperExample(), WithDefaults(Config{Labeler: PaperLabeler()}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := le.Apply(context.Background(), Mutation{Ops: []Op{
		Insert("EMPLOYEE", map[string]any{"SSN": "e5", "L_NAME": "Turing", "S_NAME": "Alan", "D_ID": "d1"}),
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := le.Search(context.Background(), Query{Keywords: []string{"Turing"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("Search does not see the applied mutation")
	}
}

// BenchmarkApply compares incremental maintenance of one single-tuple
// mutation against the full rebuild it replaces, on the scale-4 workload.
// The acceptance bar of the live-engine change is incremental >= 5x faster.
func BenchmarkApply(b *testing.B) {
	names := [2]string{"Flipper", "Flopper"}
	b.Run("incremental", func(b *testing.B) {
		db := SyntheticCompany(4, 42)
		e, err := New(db)
		if err != nil {
			b.Fatal(err)
		}
		emp := firstEmployeeKey(b, e.current().comp.DB)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := e.Apply(ctx, Mutation{Ops: []Op{
				Update("EMPLOYEE", map[string]any{"SSN": emp}, map[string]any{"L_NAME": names[i%2]}),
			}})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		inner := SyntheticCompany(4, 42).internalDB()
		emp := firstEmployeeKey(b, inner)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-live workflow: mutate the relational data, then build
			// a whole new engine from scratch.
			tab, _ := inner.Table("EMPLOYEE")
			old, ok := tab.Delete(emp)
			if !ok {
				b.Fatal("employee vanished")
			}
			values := make(map[string]relation.Value)
			for _, col := range tab.Schema().Columns {
				values[col.Name] = old.Value(col.Name)
			}
			values["L_NAME"] = relation.String(names[i%2])
			if _, err := tab.Insert(values); err != nil {
				b.Fatal(err)
			}
			if _, err := New(&Database{db: inner}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func firstEmployeeKey(tb testing.TB, db *relation.Database) string {
	tb.Helper()
	tab, ok := db.Table("EMPLOYEE")
	if !ok || tab.Len() == 0 {
		tb.Fatal("no employees in workload")
	}
	return tab.Tuples()[0].ID().Key
}
