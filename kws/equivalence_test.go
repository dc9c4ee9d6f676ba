package kws

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The rebuild-equivalence property: after ANY sequence of mutations, the
// incrementally maintained engine must be indistinguishable from an engine
// built from scratch over the same data — graph adjacency, index postings,
// document frequencies and full search output all byte-identical. These
// tests drive seeded random mutation batches and check the property after
// every batch.

func TestRebuildEquivalencePaperDB(t *testing.T) {
	batches := 12
	if testing.Short() {
		batches = 4
	}
	runRebuildEquivalence(t, paperdb.MustLoad, 1, batches)
}

func TestRebuildEquivalenceWorkload(t *testing.T) {
	batches := 8
	if testing.Short() {
		batches = 3
	}
	gen := func() *relation.Database {
		db, err := workload.Generate(workload.ScaledConfig(2, 99))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	runRebuildEquivalence(t, gen, 2, batches)
}

// equivalenceQueries cover single- and multi-keyword, single- and
// multi-token, matching and non-matching cases.
var equivalenceQueries = [][]string{
	{"Smith", "XML"},
	{"Alice", "XML"},
	{"databases"},
	{"information retrieval"},
	{"history", "programming"},
	{"nosuchkeyword"},
}

func runRebuildEquivalence(t *testing.T, freshDB func() *relation.Database, seed int64, batches int) {
	live, err := New(&Database{db: freshDB()})
	if err != nil {
		t.Fatal(err)
	}
	mirror := freshDB()
	rng := rand.New(rand.NewSource(seed))
	counter := 0
	ctx := context.Background()
	for b := 0; b < batches; b++ {
		n := 1 + rng.Intn(4)
		ops := make([]Op, 0, n)
		for i := 0; i < n; i++ {
			op, ok := randomOp(t, rng, mirror, &counter)
			if !ok {
				continue
			}
			replayOp(t, mirror, op)
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			continue
		}
		gen := live.Generation()
		if _, err := live.Apply(ctx, Mutation{Ops: ops}); err != nil {
			t.Fatalf("batch %d: Apply(%v): %v", b, ops, err)
		}
		if live.Generation() != gen+1 {
			t.Fatalf("batch %d: generation %d -> %d", b, gen, live.Generation())
		}
		requireEngineEquivalent(t, b, live, mirror)
	}
}

// requireEngineEquivalent checks the incremental engine against a fresh
// kws.New over the mirror database at every level: relational state, graph
// adjacency, index postings and frequencies, and full search renders.
func requireEngineEquivalent(t *testing.T, batch int, live *Engine, mirror *relation.Database) {
	t.Helper()
	fresh, err := New(&Database{db: mirror})
	if err != nil {
		t.Fatalf("batch %d: fresh build: %v", batch, err)
	}
	lc := live.current().comp
	fc := fresh.current().comp

	// Relational state: same tuples, same order, same values per table.
	for _, name := range mirror.TableNames() {
		lt, _ := lc.DB.Table(name)
		ft, _ := fc.DB.Table(name)
		if lt.Len() != ft.Len() {
			t.Fatalf("batch %d: table %s has %d tuples, mirror has %d", batch, name, lt.Len(), ft.Len())
		}
		for i, tup := range lt.Tuples() {
			want := ft.Tuples()[i]
			if tup.ID() != want.ID() || tup.String() != want.String() {
				t.Fatalf("batch %d: table %s tuple %d: %v != %v", batch, name, i, tup, want)
			}
		}
	}

	// Graph adjacency, both node sets and sorted edge lists.
	if lc.Graph.EdgeCount() != fc.Graph.EdgeCount() || lc.Graph.NodeCount() != fc.Graph.NodeCount() {
		t.Fatalf("batch %d: graph size %d nodes / %d edges, fresh %d / %d", batch,
			lc.Graph.NodeCount(), lc.Graph.EdgeCount(), fc.Graph.NodeCount(), fc.Graph.EdgeCount())
	}
	if got, want := graphDump(t, lc.Graph, lc.DB), graphDump(t, fc.Graph, fc.DB); !reflect.DeepEqual(got, want) {
		t.Fatalf("batch %d: graph adjacency diverged from fresh build", batch)
	}

	// Index: postings, doc counts, per-term frequencies, doc lengths.
	if lc.Index.DocCount() != fc.Index.DocCount() || lc.Index.TermCount() != fc.Index.TermCount() {
		t.Fatalf("batch %d: index size %d docs / %d terms, fresh %d / %d", batch,
			lc.Index.DocCount(), lc.Index.TermCount(), fc.Index.DocCount(), fc.Index.TermCount())
	}
	if got, want := lc.Index.Dump(), fc.Index.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batch %d: index postings diverged from fresh build", batch)
	}
	for _, term := range fc.Index.Vocabulary() {
		if lc.Index.DocFrequency(term) != fc.Index.DocFrequency(term) {
			t.Fatalf("batch %d: DocFrequency(%q) = %d, fresh %d", batch, term,
				lc.Index.DocFrequency(term), fc.Index.DocFrequency(term))
		}
	}

	// Full search output, every query, every engine default: results must be
	// DeepEqual including ranks, scores, matches and rendered connections.
	ctx := context.Background()
	for _, kws := range equivalenceQueries {
		q := Query{Keywords: kws, MaxJoins: 4}
		got, gotErr := live.Search(ctx, q)
		want, wantErr := fresh.Search(ctx, q)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("batch %d: query %v: err %v vs fresh %v", batch, kws, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: query %v diverged:\nincremental: %v\nfresh:       %v",
				batch, kws, renders(got), renders(want))
		}
	}
}

// graphDump projects a graph into the string space through its read view:
// the nodes must be exactly db's tuples, each mapped to its sorted adjacency.
func graphDump(t testing.TB, g *datagraph.Graph, db *relation.Database) map[relation.TupleID][]datagraph.Edge {
	t.Helper()
	if g.NodeCount() != db.TupleCount() {
		t.Fatalf("graph has %d nodes, its database %d tuples", g.NodeCount(), db.TupleCount())
	}
	out := make(map[relation.TupleID][]datagraph.Edge, g.NodeCount())
	for _, tab := range db.Tables() {
		for _, tup := range tab.Tuples() {
			if !g.Has(tup.ID()) {
				t.Fatalf("tuple %v is not a node", tup.ID())
			}
			out[tup.ID()] = g.Neighbors(tup.ID())
		}
	}
	return out
}

// --- random op generation ------------------------------------------------

var equivWords = []string{
	"XML", "databases", "Smith", "retrieval", "information", "history",
	"programming", "graph", "keyword", "search", "semantics", "optimization",
}

func pickWord(rng *rand.Rand) string { return equivWords[rng.Intn(len(equivWords))] }

func sentence(rng *rand.Rand) string {
	n := 3 + rng.Intn(4)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += pickWord(rng)
	}
	return out
}

// pickTupleKey returns the encoded key of a random tuple of the table, or
// false when the table is empty.
func pickTupleKey(rng *rand.Rand, db *relation.Database, table string) (string, bool) {
	t, ok := db.Table(table)
	if !ok || t.Len() == 0 {
		return "", false
	}
	return t.Tuples()[rng.Intn(t.Len())].ID().Key, true
}

// fkValue picks an existing key of the referenced table most of the time and
// a dangling key otherwise — dangling references are legal and must behave
// identically in both engines.
func fkValue(rng *rand.Rand, db *relation.Database, table string, counter *int) string {
	if key, ok := pickTupleKey(rng, db, table); ok && rng.Intn(10) < 7 {
		return key
	}
	*counter++
	return fmt.Sprintf("dangling-%d", *counter)
}

// randomOp produces one random insert, delete or update that is valid
// against the current mirror state; ok is false when no op could be built
// (e.g. deleting from an empty database).
func randomOp(t *testing.T, rng *rand.Rand, mirror *relation.Database, counter *int) (Op, bool) {
	t.Helper()
	tables := mirror.TableNames()
	switch k := rng.Intn(10); {
	case k < 4: // insert
		*counter++
		switch table := tables[rng.Intn(len(tables))]; table {
		case "DEPARTMENT":
			return Insert(table, map[string]any{
				"ID": fmt.Sprintf("zd%d", *counter), "D_NAME": pickWord(rng),
				"D_DESCRIPTION": sentence(rng)}), true
		case "PROJECT":
			return Insert(table, map[string]any{
				"ID": fmt.Sprintf("zp%d", *counter), "D_ID": fkValue(rng, mirror, "DEPARTMENT", counter),
				"P_NAME": pickWord(rng), "P_DESCRIPTION": sentence(rng)}), true
		case "EMPLOYEE":
			return Insert(table, map[string]any{
				"SSN": fmt.Sprintf("ze%d", *counter), "L_NAME": pickWord(rng),
				"S_NAME": pickWord(rng), "D_ID": fkValue(rng, mirror, "DEPARTMENT", counter)}), true
		case "WORKS_ON":
			// A fresh ESSN guarantees a unique composite key.
			return Insert(table, map[string]any{
				"ESSN": fmt.Sprintf("zw%d", *counter), "P_ID": fkValue(rng, mirror, "PROJECT", counter),
				"HOURS": rng.Intn(80)}), true
		default: // DEPENDENT
			return Insert(table, map[string]any{
				"ID": fmt.Sprintf("zt%d", *counter), "ESSN": fkValue(rng, mirror, "EMPLOYEE", counter),
				"DEPENDENT_NAME": pickWord(rng)}), true
		}
	case k < 7: // delete a random existing tuple
		table := tables[rng.Intn(len(tables))]
		key, ok := keySelector(rng, mirror, table)
		if !ok {
			return Op{}, false
		}
		return Delete(table, key), true
	default: // update a random existing tuple
		table := tables[rng.Intn(len(tables))]
		key, ok := keySelector(rng, mirror, table)
		if !ok {
			return Op{}, false
		}
		var set map[string]any
		switch table {
		case "DEPARTMENT":
			set = map[string]any{"D_DESCRIPTION": sentence(rng)}
		case "PROJECT":
			set = map[string]any{"P_DESCRIPTION": sentence(rng), "D_ID": fkValue(rng, mirror, "DEPARTMENT", counter)}
		case "EMPLOYEE":
			set = map[string]any{"L_NAME": pickWord(rng)}
			if rng.Intn(2) == 0 {
				set["D_ID"] = fkValue(rng, mirror, "DEPARTMENT", counter)
			}
		case "WORKS_ON":
			set = map[string]any{"HOURS": rng.Intn(80)}
		default:
			set = map[string]any{"DEPENDENT_NAME": pickWord(rng), "ESSN": fkValue(rng, mirror, "EMPLOYEE", counter)}
		}
		return Update(table, key, set), true
	}
}

// keySelector builds the public primary-key selector map of a random tuple.
func keySelector(rng *rand.Rand, db *relation.Database, table string) (map[string]any, bool) {
	t, ok := db.Table(table)
	if !ok || t.Len() == 0 {
		return nil, false
	}
	tup := t.Tuples()[rng.Intn(t.Len())]
	key := make(map[string]any, len(t.Schema().PrimaryKey))
	for _, col := range t.Schema().PrimaryKey {
		key[col] = tup.Value(col).AsString()
	}
	return key, true
}

// replayOp applies an op to the mirror database through the plain relation
// API — an implementation independent of the engine's stager, so a staging
// bug cannot cancel itself out in the comparison.
func replayOp(t *testing.T, db *relation.Database, op Op) {
	t.Helper()
	tab, ok := db.Table(op.Table)
	if !ok {
		t.Fatalf("replay: unknown table %s", op.Table)
	}
	switch op.Kind {
	case OpInsert:
		if _, err := tab.Insert(replayRow(tab, op.Row)); err != nil {
			t.Fatalf("replay insert %v: %v", op, err)
		}
	case OpDelete:
		if _, ok := tab.Delete(replayKey(tab, op.Key)); !ok {
			t.Fatalf("replay delete %v: tuple missing", op)
		}
	case OpUpdate:
		key := replayKey(tab, op.Key)
		old, ok := tab.ByPrimaryKey(key)
		if !ok {
			t.Fatalf("replay update %v: tuple missing", op)
		}
		merged := make(map[string]relation.Value)
		for _, col := range tab.Schema().Columns {
			merged[col.Name] = old.Value(col.Name)
		}
		for col, v := range replayRow(tab, op.Row) {
			merged[col] = v
		}
		tab.Delete(key)
		if _, err := tab.Insert(merged); err != nil {
			t.Fatalf("replay update %v: %v", op, err)
		}
	default:
		t.Fatalf("replay: unknown kind %v", op.Kind)
	}
}

func replayRow(tab *relation.Table, row map[string]any) map[string]relation.Value {
	out := make(map[string]relation.Value, len(row))
	for col, v := range row {
		def, _ := tab.Schema().Column(col)
		switch x := v.(type) {
		case nil:
			out[col] = relation.Null()
		case string:
			if def.Type == relation.TypeText {
				out[col] = relation.Text(x)
			} else {
				out[col] = relation.String(x)
			}
		case int:
			out[col] = relation.Int(int64(x))
		default:
			panic(fmt.Sprintf("replayRow: unsupported %T", v))
		}
	}
	return out
}

func replayKey(tab *relation.Table, key map[string]any) string {
	vals := make([]relation.Value, len(tab.Schema().PrimaryKey))
	for i, col := range tab.Schema().PrimaryKey {
		vals[i] = relation.String(key[col].(string))
	}
	return relation.EncodeKey(vals)
}
