package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/relation"
)

// File names inside a store directory. The temp name is transient: a crash
// can leave it behind and Open removes it (the WAL's own rewrite temp file
// is the framed log's to clean up).
const (
	walName     = "wal.log"
	snapName    = "snapshot.db"
	snapTmpName = "snapshot.db.tmp"
)

// FileStore is the file-backed Store: one append-only WAL plus one snapshot
// file under a single directory, with fsync discipline making Append and
// Snapshot durable before they return. It is safe for concurrent use; the
// engine serializes writers anyway, but Stats is read concurrently by the
// stats endpoint.
type FileStore struct {
	mu  sync.Mutex
	dir string
	log *framedLog

	// lastGen is the newest durable generation: the last WAL record's, or
	// the snapshot's when the log is empty. Append enforces contiguity
	// against it.
	lastGen   uint64
	snapGen   uint64
	snapBytes int64
	closed    bool
}

// Open opens (or initializes) a store directory: creates it if missing,
// removes leftover temp files from interrupted snapshots, verifies the
// snapshot checksum, and scans the WAL — truncating a torn tail, failing
// with ErrCorrupt on mid-log corruption. After Open the store is ready for
// Load + Replay (recovery) and Append (serving).
func Open(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, snapTmpName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: remove stale %s: %w", snapTmpName, err)
	}
	s := &FileStore{dir: dir}
	if data, err := os.ReadFile(s.path(snapName)); err == nil {
		gen, err := peekSnapshotGen(data)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", snapName, err)
		}
		s.snapGen, s.snapBytes = gen, int64(len(data))
		s.lastGen = gen
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	walLast := uint64(0)
	log, err := openFramedLog(s.path(walName), walVisitor(func(_ int64, gen uint64, _ Mutation) error {
		walLast = gen
		return nil
	}))
	if err != nil {
		return nil, err
	}
	s.log = log
	if walLast > s.lastGen {
		s.lastGen = walLast
	}
	return s, nil
}

func (s *FileStore) path(name string) string { return filepath.Join(s.dir, name) }

// walVisitor adapts fn to scanFrames for a log of mutation records: each
// payload is decoded and generations must increase by exactly one from
// record to record, anything else being ErrCorrupt. Records at or below the
// snapshot generation are legal (a crash between snapshot rename and WAL
// truncation leaves them) and are skipped by Replay, not here.
func walVisitor(fn func(off int64, gen uint64, m Mutation) error) func(int64, []byte) error {
	first, prevGen := true, uint64(0)
	return func(off int64, payload []byte) error {
		gen, m, err := decodeMutation(payload)
		if err != nil {
			return fmt.Errorf("%w: record at offset %d: %v", ErrCorrupt, off, err)
		}
		if !first && gen != prevGen+1 {
			return fmt.Errorf("%w: generation %d follows %d at offset %d", ErrCorrupt, gen, prevGen, off)
		}
		first, prevGen = false, gen
		return fn(off, gen, m)
	}
}

// scan runs fn over the acknowledged WAL records in order and returns the
// bytes it scanned.
func (s *FileStore) scan(fn func(off int64, gen uint64, m Mutation) error) ([]byte, error) {
	data, err := s.log.read()
	if err != nil {
		return nil, err
	}
	_, _, err = scanFrames(data, walVisitor(fn))
	return data, err
}

// Append durably logs the mutation producing generation gen: the framed
// record is written and fsynced before Append returns, so a crash at any
// later point replays it. Generations must be contiguous.
func (s *FileStore) Append(gen uint64, m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if gen != s.lastGen+1 {
		return fmt.Errorf("store: append generation %d, want %d", gen, s.lastGen+1)
	}
	if err := s.log.append(appendMutation(nil, gen, m)); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.lastGen = gen
	return nil
}

// Replay streams the logged mutations with generation > after, in order.
func (s *FileStore) Replay(after uint64, fn func(gen uint64, m Mutation) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	_, err := s.scan(func(_ int64, gen uint64, m Mutation) error {
		if gen <= after {
			return nil
		}
		return fn(gen, m)
	})
	return err
}

// Snapshot durably writes the state of generation gen and truncates the WAL
// records it supersedes. The write is atomic — temp file, fsync, rename,
// directory fsync — so a crash at any point leaves either the old snapshot
// or the new one, never a partial file, and the WAL is only truncated after
// the rename is durable.
func (s *FileStore) Snapshot(gen uint64, db *relation.Database) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	data := encodeSnapshot(gen, db)
	if err := writeFileSync(s.path(snapTmpName), data); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := os.Rename(s.path(snapTmpName), s.path(snapName)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	s.snapGen, s.snapBytes = gen, int64(len(data))
	if gen > s.lastGen {
		s.lastGen = gen
	}
	if err := s.truncateWAL(gen); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	return nil
}

// truncateWAL drops records with generation <= upTo. The common case — the
// snapshot covers the whole log — truncates in place; snapshotting behind
// the log tail rewrites the retained suffix through a temp file.
func (s *FileStore) truncateWAL(upTo uint64) error {
	if upTo >= s.lastGen || s.log.records == 0 {
		return s.log.truncateTo(0, 0)
	}
	// Generations only increase, so the retained records are a byte suffix.
	from, kept := s.log.size, int64(0)
	data, err := s.scan(func(off int64, gen uint64, _ Mutation) error {
		if gen > upTo {
			if kept == 0 {
				from = off
			}
			kept++
		}
		return nil
	})
	if err != nil {
		return err
	}
	return s.log.rewrite(data[from:], kept)
}

// Load decodes the latest durable snapshot, or returns (nil, 0, nil) when
// none has been written yet.
func (s *FileStore) Load() (*relation.Database, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	data, err := os.ReadFile(s.path(snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	db, gen, err := decodeSnapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %s: %w", snapName, err)
	}
	return db, gen, nil
}

// Stats reports the store's durable state.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		WALBytes:      s.log.size,
		WALRecords:    s.log.records,
		SnapshotGen:   s.snapGen,
		SnapshotBytes: s.snapBytes,
	}
}

// Close releases the WAL handle. Appended records are already durable, so
// Close has nothing to flush.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.close()
}

// writeFileSync writes data to path and fsyncs the file before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems reject directory fsync outright; that degrades durability of
// the rename, not correctness, so those rejections are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
