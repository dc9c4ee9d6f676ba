package kws

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/relation"
)

// OpKind names the kind of one mutation operation.
type OpKind int

const (
	// OpInsert adds a new tuple.
	OpInsert OpKind = iota + 1
	// OpDelete removes an existing tuple by primary key.
	OpDelete
	// OpUpdate rewrites columns of an existing tuple, selected by primary
	// key. Updating a primary-key column moves the tuple to a new identity.
	OpUpdate
)

// String renders the kind for error messages.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one operation of a Mutation. Construct them with Insert, Delete and
// Update.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Table is the target table.
	Table string
	// Key selects the target tuple of a delete or update: one entry per
	// primary-key column. Ignored by inserts.
	Key map[string]any
	// Row carries column values: the full row of an insert, or the columns
	// to overwrite for an update (a nil value sets the column to NULL).
	// Ignored by deletes.
	Row map[string]any
}

// Insert returns an op adding a row to a table; values follow the same
// conventions as Database.Insert (string, int, int64, float64, bool or nil).
func Insert(table string, row map[string]any) Op {
	return Op{Kind: OpInsert, Table: table, Row: row}
}

// Delete returns an op removing the tuple whose primary-key columns equal
// key. Deleting a referenced tuple is allowed: the references dangle, drop
// out of the graph, and re-resolve if a tuple with the same key is inserted
// again — mirroring how New treats dangling references.
func Delete(table string, key map[string]any) Op {
	return Op{Kind: OpDelete, Table: table, Key: key}
}

// Update returns an op overwriting the given columns of the tuple whose
// primary-key columns equal key; columns absent from set keep their value,
// and a nil value sets the column to NULL.
func Update(table string, key, set map[string]any) Op {
	return Op{Kind: OpUpdate, Table: table, Key: key, Row: set}
}

// Mutation is an ordered batch of operations applied atomically by
// Engine.Apply: later ops observe earlier ones (a batch may delete a key and
// re-insert it), and either the whole batch becomes one new generation or,
// on any error, no change is published at all.
type Mutation struct {
	Ops []Op
}

// Apply executes the mutation against the engine's current generation and
// atomically publishes the result as the next generation, incrementally
// maintaining the tuple graph and the keyword index instead of rebuilding
// them. It returns the new generation number.
//
// Readers never block: Search, Stream and SearchBatch calls in flight keep
// the snapshot they started on, and calls starting after Apply returns see
// the new generation. Writers are serialized; concurrent Apply calls queue.
//
// On any failure — unknown table or column, type mismatch, duplicate or
// missing primary key, or context cancellation between operations — Apply
// returns the error and publishes nothing: the engine keeps answering from
// the generation it was on. An empty mutation is a no-op returning the
// current generation.
//
// On an engine built WithStore the batch is appended to the write-ahead log
// and fsynced before the new generation is published or returned, so every
// acknowledged generation survives a crash; a failed append (ErrPersistence)
// publishes nothing. Automatic snapshot failures after publication never
// fail Apply — see PersistStats.SnapshotErrors.
func (e *Engine) Apply(ctx context.Context, m Mutation) (uint64, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	snap := e.current()
	if len(m.Ops) == 0 {
		return snap.gen, nil
	}
	next, err := e.stage(ctx, snap, m)
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		// Cancelled after staging but before the log append: nothing is
		// durable and the published snapshot stays untouched. No further
		// cancellation checks happen below — once the append lands, the
		// generation must be published, or the next Apply would try to
		// append a duplicate generation.
		return 0, err
	}
	if e.store != nil {
		if err := e.store.Append(next.gen, toStoreMutation(m)); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	e.snap.Store(next)
	e.maybeSnapshot(next)
	return next.gen, nil
}

// stage runs the mutation batch against snap's data and builds — but does
// not publish — the next generation. Apply publishes the result after the
// durability append; WAL replay publishes it directly. Callers hold applyMu.
func (e *Engine) stage(ctx context.Context, snap *snapshot, m Mutation) (*snapshot, error) {
	st := newStager(snap.comp.DB)
	for i, op := range m.Ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := st.apply(op); err != nil {
			return nil, fmt.Errorf("kws: apply: op %d (%s %s): %w", i, op.Kind, op.Table, err)
		}
	}
	removed, added := st.net()
	graph := snap.comp.Graph.ApplyDelta(st.db, removed, added)
	idx := snap.comp.Index.Apply(st.db, removed, added)
	// Tuple mutations never change the catalog, so the conceptual schema and
	// mapping carry over; only the analyzer's database binding is refreshed.
	analyzer, err := core.NewAnalyzer(st.db, snap.comp.Analyzer.Schema(), snap.comp.Analyzer.Mapping())
	if err != nil {
		return nil, err
	}
	return &snapshot{
		gen: snap.gen + 1,
		comp: Components{
			DB:       st.db,
			Graph:    graph,
			Index:    idx,
			Analyzer: analyzer,
		},
		searchers: make(map[EngineKind]Searcher),
	}, nil
}

// stager accumulates a mutation batch over a copy-on-write clone of the
// database: the catalog is cloned up front (cheap — it shares every table),
// and each table is cloned at most once, on its first write. Alongside the
// data it tracks the net tuple changes of the batch, which drive the
// incremental graph and index maintenance.
type stager struct {
	db     *relation.Database
	cloned map[string]bool
	// removed and added hold the net effect per tuple identity: a tuple
	// inserted and deleted within the batch cancels out, an update appears
	// as its old version in removed and its new one in added.
	removed map[relation.TupleID]*relation.Tuple
	added   map[relation.TupleID]*relation.Tuple
}

func newStager(base *relation.Database) *stager {
	return &stager{
		db:      base.Clone(),
		cloned:  make(map[string]bool),
		removed: make(map[relation.TupleID]*relation.Tuple),
		added:   make(map[relation.TupleID]*relation.Tuple),
	}
}

// table returns the named table, cloned for writing (once per batch).
func (st *stager) table(name string) (*relation.Table, error) {
	t, ok := st.db.Table(name)
	if !ok {
		return nil, fmt.Errorf("unknown table %s", name)
	}
	if !st.cloned[name] {
		t = t.Clone()
		if err := st.db.SetTable(t); err != nil {
			return nil, err
		}
		st.cloned[name] = true
	}
	return t, nil
}

func (st *stager) apply(op Op) error {
	t, err := st.table(op.Table)
	if err != nil {
		return err
	}
	switch op.Kind {
	case OpInsert:
		values, err := coerceRow(t, op.Row)
		if err != nil {
			return err
		}
		tup, err := t.Insert(values)
		if err != nil {
			return err
		}
		st.recordAdd(tup)
		return nil
	case OpDelete:
		key, err := encodePK(t, op.Key)
		if err != nil {
			return err
		}
		tup, ok := t.Delete(key)
		if !ok {
			return fmt.Errorf("no tuple with key %q", key)
		}
		st.recordRemove(tup)
		return nil
	case OpUpdate:
		key, err := encodePK(t, op.Key)
		if err != nil {
			return err
		}
		old, ok := t.ByPrimaryKey(key)
		if !ok {
			return fmt.Errorf("no tuple with key %q", key)
		}
		merged := make(map[string]relation.Value, len(t.Schema().Columns))
		for _, col := range t.Schema().Columns {
			if v := old.Value(col.Name); !v.IsNull() {
				merged[col.Name] = v
			}
		}
		set, err := coerceRow(t, op.Row)
		if err != nil {
			return err
		}
		for col, v := range set {
			merged[col] = v // explicit NULLs flow through; Insert validates
		}
		t.Delete(key)
		tup, err := t.Insert(merged)
		if err != nil {
			return err // batch is abandoned wholesale, no rollback needed
		}
		st.recordRemove(old)
		st.recordAdd(tup)
		return nil
	default:
		return fmt.Errorf("unknown op kind %d", int(op.Kind))
	}
}

func (st *stager) recordAdd(tup *relation.Tuple) {
	// A previous removal of the same identity stays recorded: the old
	// version leaves the substrates, the new one enters them.
	st.added[tup.ID()] = tup
}

func (st *stager) recordRemove(tup *relation.Tuple) {
	id := tup.ID()
	if st.added[id] == tup {
		// The tuple was created earlier in this same batch: it never reached
		// the published substrates, so its removal cancels the addition.
		delete(st.added, id)
		return
	}
	st.removed[id] = tup
}

// net returns the batch's net tuple changes in deterministic (sorted) order.
func (st *stager) net() (removed, added []*relation.Tuple) {
	removed = make([]*relation.Tuple, 0, len(st.removed))
	for _, tup := range st.removed {
		removed = append(removed, tup)
	}
	added = make([]*relation.Tuple, 0, len(st.added))
	for _, tup := range st.added {
		added = append(added, tup)
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].ID().Less(removed[j].ID()) })
	sort.Slice(added, func(i, j int) bool { return added[i].ID().Less(added[j].ID()) })
	return removed, added
}

// coerceRow converts a public column->value map into relation values using
// the schema's column types, exactly as Database.Insert does.
func coerceRow(t *relation.Table, row map[string]any) (map[string]relation.Value, error) {
	values := make(map[string]relation.Value, len(row))
	for col, v := range row {
		def, ok := t.Schema().Column(col)
		if !ok {
			return nil, fmt.Errorf("table %s has no column %s", t.Name(), col)
		}
		rv, err := toValue(v, def.Type)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", t.Name(), col, err)
		}
		values[col] = rv
	}
	return values, nil
}

// encodePK resolves a primary-key selector map into the encoded key used by
// the table indexes. Every primary-key column must be present; extra columns
// are rejected to keep typos loud.
func encodePK(t *relation.Table, key map[string]any) (string, error) {
	s := t.Schema()
	if len(key) != len(s.PrimaryKey) {
		return "", fmt.Errorf("key must name exactly the primary-key columns %v", s.PrimaryKey)
	}
	vals := make([]relation.Value, len(s.PrimaryKey))
	for i, col := range s.PrimaryKey {
		v, ok := key[col]
		if !ok {
			return "", fmt.Errorf("key is missing primary-key column %s", col)
		}
		def, _ := s.Column(col)
		rv, err := toValue(v, def.Type)
		if err != nil {
			return "", fmt.Errorf("%s.%s: %w", t.Name(), col, err)
		}
		if rv.IsNull() {
			return "", fmt.Errorf("key column %s is NULL", col)
		}
		vals[i] = rv
	}
	return relation.EncodeKey(vals), nil
}
