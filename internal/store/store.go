// Package store persists engine generations so a process restart recovers
// warm instead of cold-rebuilding from source data. It provides two durable
// artifacts under one directory:
//
//   - a write-ahead log (wal.log) appending one length-prefixed, CRC-checked
//     record per applied mutation batch, fsynced before the append returns,
//     so every acknowledged generation survives a crash;
//   - periodic snapshots (snapshot.db) serializing the full relational state
//     of one generation in a compact binary encoding, written atomically
//     (temp file, fsync, rename, directory fsync) and followed by WAL
//     truncation, so replay stays bounded by the snapshot cadence.
//
// Recovery composes the two: load the latest durable snapshot, then replay
// the WAL records after its generation. A torn tail — a record cut short by
// a crash mid-append — is truncated away on open; a corrupt record in the
// middle of the log (valid data follows it) is a hard error, because data
// after it would be silently lost.
//
// The package is deliberately below the engine: it knows mutations only as
// neutral Op values (mirroring kws.Op field for field) and relational state
// as *relation.Database, so the kws package can depend on it without a
// cycle. FileStore is the file-backed implementation; the Store interface
// leaves room for an LSM-backed one for datasets larger than memory.
package store

import (
	"errors"

	"repro/internal/relation"
)

// Op is one mutation operation in storage-neutral form; it mirrors kws.Op
// field for field (Kind uses the same numeric values as kws.OpKind). Key and
// Row values are restricted to the types the engine accepts: nil, string,
// int64, float64 and bool — the codec canonicalizes int to int64.
type Op struct {
	// Kind is the operation kind: 1 insert, 2 delete, 3 update.
	Kind int
	// Table is the target table.
	Table string
	// Key selects the target tuple of a delete or update.
	Key map[string]any
	// Row carries the inserted row or the updated columns.
	Row map[string]any
}

// Mutation is one atomically applied batch of operations — the unit of WAL
// append and replay. Each appended mutation produced exactly one engine
// generation.
type Mutation struct {
	Ops []Op
}

// Stats reports the durable state of a store for observability.
type Stats struct {
	// WALBytes is the current size of the write-ahead log in bytes.
	WALBytes int64
	// WALRecords is the number of records in the current log.
	WALRecords int64
	// SnapshotGen is the generation of the latest durable snapshot
	// (0 when no snapshot has been written).
	SnapshotGen uint64
	// SnapshotBytes is the size of the latest durable snapshot.
	SnapshotBytes int64
}

// Store persists mutation batches and generation snapshots. Implementations
// must make Append durable before returning — the engine acknowledges a
// generation to its caller only after Append succeeds — and must make
// Snapshot atomic: a crash mid-snapshot leaves the previous snapshot (and
// the full WAL) intact. All methods are safe for concurrent use.
type Store interface {
	// Append durably logs the mutation that produced generation gen.
	// Generations must be appended contiguously: gen is one greater than
	// the last appended (or snapshotted) generation.
	Append(gen uint64, m Mutation) error
	// Replay calls fn for every logged mutation with generation > after,
	// in generation order, stopping at fn's first error.
	Replay(after uint64, fn func(gen uint64, m Mutation) error) error
	// Snapshot durably serializes the relational state of generation gen
	// and truncates the WAL records it makes redundant (gen and below).
	Snapshot(gen uint64, db *relation.Database) error
	// Load returns the latest durable snapshot and its generation, or
	// (nil, 0, nil) when no snapshot exists.
	Load() (*relation.Database, uint64, error)
	// Stats reports the store's durable state.
	Stats() Stats
	// Close releases the store's resources. A closed store rejects all
	// further operations.
	Close() error
}

// ErrCorrupt marks unrecoverable on-disk corruption: a WAL record whose CRC
// or structure is invalid while later data exists (so it cannot be a torn
// tail), or a snapshot that fails its checksum. Recovery refuses to guess
// past it — truncating would silently drop acknowledged generations.
var ErrCorrupt = errors.New("store: corrupt data")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")
