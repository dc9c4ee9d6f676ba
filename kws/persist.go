package kws

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
)

// Durability. An engine constructed with WithStore writes every applied
// mutation to the store's write-ahead log before publishing the generation:
// Apply returns a generation number only after the batch is durable, so a
// crash at any later point replays it on the next New. Periodic snapshots
// (WithSnapshotEvery) bound replay time by serializing the full relational
// state and truncating the log behind it; graph, index and searchers are
// never persisted — recovery rebuilds them through the same code paths as a
// cold start, which keeps the on-disk format small and its fidelity pinned
// by the rebuild-equivalence tests.
//
// Recovery runs inside New: the store's snapshot (when present) replaces the
// caller's database as the base generation, then the logged mutations after
// it replay through the normal staging path. Engines without a store behave
// exactly as before — no extra branches on the read path, no persistence
// errors surfacing from Search.

// ErrPersistence wraps store failures surfaced through Apply, Checkpoint or
// New: the mutation (or recovery) did NOT take effect, and the engine keeps
// serving the generation it was on. Callers can errors.Is against it to map
// durability failures to a distinct status (httpapi returns 500, not 400).
var ErrPersistence = errors.New("kws: persistence failure")

// ErrCorruptStore reports unrecoverable on-disk corruption found during
// recovery: a WAL record that fails its checksum with more data behind it,
// a generation gap, or an unreadable snapshot. (A torn final record —
// a crash mid-append — is not corruption; recovery truncates it silently,
// since it was never acknowledged.) New wraps it in ErrPersistence;
// errors.Is sees through the wrapping.
var ErrCorruptStore = store.ErrCorrupt

// Store is the durability interface WithStore plumbs the engine's
// write-ahead log and snapshots through (alias of the internal store
// package's interface, so external modules can hold and implement one).
// OpenStore returns the file-backed implementation.
type Store = store.Store

// OpenStore opens — creating it if needed — the file-backed durability
// store rooted at dir: a CRC-framed write-ahead log plus the newest
// snapshot, recovering from torn writes left by a crash. Pass the result
// to WithStore; close it after the engine is discarded.
func OpenStore(dir string) (Store, error) {
	return store.Open(dir)
}

// WithStore attaches a durability store to the engine. New recovers the
// newest durable state from it (snapshot plus logged mutations), and every
// later Apply appends its batch to the store's write-ahead log — fsynced
// before the new generation number is returned. The engine owns the store
// until the engine is discarded; callers must not touch it concurrently.
func WithStore(s store.Store) Option {
	return func(c *Config) { c.store = s }
}

// WithSnapshotEvery sets how many generations elapse between automatic
// snapshots: every n-th generation is serialized and the log truncated
// behind it. n <= 0 disables periodic snapshots (the log then grows until
// Checkpoint is called). Without this option an engine with a store
// snapshots every 64 generations. No effect without WithStore.
func WithSnapshotEvery(n int) Option {
	return func(c *Config) {
		c.snapshotEvery = n
		c.snapshotEverySet = true
	}
}

// defaultSnapshotEvery is the snapshot cadence when WithStore is configured
// but WithSnapshotEvery is not.
const defaultSnapshotEvery = 64

// PersistStats reports the durability state of an engine built WithStore.
type PersistStats struct {
	// WALBytes and WALRecords describe the current write-ahead log.
	WALBytes   int64
	WALRecords int64
	// SnapshotGeneration is the generation of the latest durable snapshot
	// (0 when none has been written).
	SnapshotGeneration uint64
	// SnapshotBytes is the size of the latest durable snapshot.
	SnapshotBytes int64
	// ReplayedRecords counts the WAL records replayed by New to recover
	// this engine, and ReplayDuration is how long that replay took.
	ReplayedRecords int64
	ReplayDuration  time.Duration
	// SnapshotErrors counts failed automatic snapshots since New. Snapshot
	// failures never fail Apply — the WAL still holds every generation —
	// but a growing count means the log is not being truncated.
	SnapshotErrors int64
}

// PersistStats returns the engine's durability state; ok is false when the
// engine was built without WithStore.
func (e *Engine) PersistStats() (stats PersistStats, ok bool) {
	if e.store == nil {
		return PersistStats{}, false
	}
	st := e.store.Stats()
	return PersistStats{
		WALBytes:           st.WALBytes,
		WALRecords:         st.WALRecords,
		SnapshotGeneration: st.SnapshotGen,
		SnapshotBytes:      st.SnapshotBytes,
		ReplayedRecords:    e.replayed,
		ReplayDuration:     e.replayDur,
		SnapshotErrors:     e.snapErrs.Load(),
	}, true
}

// Checkpoint forces a snapshot of the current generation, truncating the
// write-ahead log behind it. It serializes against concurrent Apply calls
// and is a no-op on an engine without a store. kwsd calls it on graceful
// shutdown so the next boot loads one snapshot instead of replaying the log.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	snap := e.current()
	if err := e.store.Snapshot(snap.gen, snap.comp.DB); err != nil {
		e.snapErrs.Add(1)
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	return nil
}

// maybeSnapshot writes an automatic snapshot when the published generation
// hits the configured cadence. Failures are counted, not surfaced: the WAL
// already holds the generation, so durability is intact and only replay
// time suffers.
func (e *Engine) maybeSnapshot(next *snapshot) {
	if e.store == nil || e.snapshotEvery <= 0 || next.gen%uint64(e.snapshotEvery) != 0 {
		return
	}
	if err := e.store.Snapshot(next.gen, next.comp.DB); err != nil {
		e.snapErrs.Add(1)
	}
}

// replayWAL applies the store's logged mutations after the base generation
// through the normal staging path, publishing one generation per record.
// New calls it as the last construction step; any failure fails New.
func (e *Engine) replayWAL(after uint64) error {
	start := time.Now()
	err := e.store.Replay(after, func(gen uint64, sm store.Mutation) error {
		snap := e.current()
		if gen != snap.gen+1 {
			return fmt.Errorf("%w: replay generation %d onto %d", ErrPersistence, gen, snap.gen)
		}
		//kwslint:ignore ctxflow New has no ctx parameter; boot-time replay is not cancellable
		next, err := e.stage(context.Background(), snap, fromStoreMutation(sm))
		if err != nil {
			return fmt.Errorf("%w: replay generation %d: %v", ErrPersistence, gen, err)
		}
		e.snap.Store(next)
		e.replayed++
		return nil
	})
	e.replayDur = time.Since(start)
	if err != nil && !errors.Is(err, ErrPersistence) {
		err = fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	return err
}

// toStoreMutation converts a mutation to the store's neutral form. Op kinds
// share numeric values by construction; the maps are passed by reference —
// the store encodes them before Append returns, so later caller mutation of
// the maps cannot corrupt the log.
func toStoreMutation(m Mutation) store.Mutation {
	ops := make([]store.Op, len(m.Ops))
	for i, op := range m.Ops {
		ops[i] = store.Op{Kind: int(op.Kind), Table: op.Table, Key: op.Key, Row: op.Row}
	}
	return store.Mutation{Ops: ops}
}

func fromStoreMutation(sm store.Mutation) Mutation {
	ops := make([]Op, len(sm.Ops))
	for i, op := range sm.Ops {
		ops[i] = Op{Kind: OpKind(op.Kind), Table: op.Table, Key: op.Key, Row: op.Row}
	}
	return Mutation{Ops: ops}
}
