package store

import (
	"errors"

	"repro/internal/relation"
)

// Fault injection for crash testing. A FaultStore wraps a FileStore and
// aborts an operation at a chosen step boundary, leaving the directory in
// exactly the state a process crash at that point would: nothing written,
// a torn record, a durable-but-unacknowledged record, or an orphaned
// snapshot temp file. Tests then re-Open the directory — the moral
// equivalent of a restart — and assert recovery lands on a prefix of the
// acknowledged generations.

// ErrInjected is returned by a FaultStore when its crash point fires; the
// caller observes a failed operation exactly as it would observe a crash.
var ErrInjected = errors.New("store: injected fault")

// CrashPoint selects where a FaultStore aborts.
type CrashPoint int

const (
	// CrashNone disables injection; the FaultStore is a plain passthrough.
	CrashNone CrashPoint = iota
	// CrashPreAppend fails Append before any byte reaches the log.
	CrashPreAppend
	// CrashTornAppend writes only the first TornBytes bytes of the framed
	// record — no fsync, no accounting — modeling a crash mid-write.
	CrashTornAppend
	// CrashPostAppend completes a durable append, then fails — modeling a
	// crash after fsync but before the engine publishes the generation.
	CrashPostAppend
	// CrashMidSnapshot writes the snapshot temp file but crashes before the
	// rename, leaving the previous snapshot and the full WAL intact.
	CrashMidSnapshot
)

// FaultStore injects one crash point into a FileStore. Configure Point (and
// TornBytes for CrashTornAppend) before the operation that should fail;
// reset Point to CrashNone to resume normal operation. Not safe for
// configuration concurrent with use — it is a test harness.
//
// With Sticky set, the first fired crash point kills the store: every later
// write operation fails with ErrInjected, so no cleanup the caller attempts
// can change the directory. The disk is then frozen in exactly the state a
// process crash at the injection point would leave, which is what the
// crash-recovery tests re-Open.
type FaultStore struct {
	*FileStore
	Point CrashPoint
	// TornBytes is how much of the frame CrashTornAppend writes. Values
	// beyond the frame length write the whole frame (the crash then tore
	// nothing, only the acknowledgment).
	TornBytes int
	// Sticky makes the first fired crash point fatal: all later Append,
	// Snapshot and TruncateAfter calls fail with ErrInjected.
	Sticky bool

	dead bool
}

// NewFaultStore wraps an open FileStore with injection disabled.
func NewFaultStore(fs *FileStore) *FaultStore {
	return &FaultStore{FileStore: fs}
}

// Dead reports whether a sticky crash point has fired.
func (f *FaultStore) Dead() bool { return f.dead }

// kill records a fired sticky crash point.
func (f *FaultStore) kill() error {
	if f.Sticky {
		f.dead = true
	}
	return ErrInjected
}

func (f *FaultStore) Append(gen uint64, m Mutation) error {
	if f.dead {
		return ErrInjected
	}
	switch f.Point {
	case CrashPreAppend:
		return f.kill()
	case CrashTornAppend:
		frame := appendFrame(nil, appendMutation(nil, gen, m))
		n := f.TornBytes
		if n > len(frame) {
			n = len(frame)
		}
		s := f.FileStore
		s.mu.Lock()
		defer s.mu.Unlock()
		// Deliberately skip fsync and all accounting: the process "died"
		// here, so the in-memory view must not learn about these bytes.
		if _, err := s.log.f.Write(frame[:n]); err != nil {
			return err
		}
		return f.kill()
	case CrashPostAppend:
		if err := f.FileStore.Append(gen, m); err != nil {
			return err
		}
		return f.kill()
	default:
		return f.FileStore.Append(gen, m)
	}
}

func (f *FaultStore) Snapshot(gen uint64, db *relation.Database) error {
	if f.dead {
		return ErrInjected
	}
	if f.Point == CrashMidSnapshot {
		s := f.FileStore
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := writeFileSync(s.path(snapTmpName), encodeSnapshot(gen, db)); err != nil {
			return err
		}
		return f.kill()
	}
	return f.FileStore.Snapshot(gen, db)
}

// TruncateAfter fails on a dead store — the crash already happened, so the
// rollback a live process would perform must not reach the directory.
func (f *FaultStore) TruncateAfter(gen uint64) error {
	if f.dead {
		return ErrInjected
	}
	return f.FileStore.TruncateAfter(gen)
}
