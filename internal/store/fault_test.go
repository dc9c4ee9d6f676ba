package store

import (
	"errors"
	"reflect"
	"testing"
)

// reopen simulates a process restart: abandon the faulted handles and Open
// the directory fresh.
func reopen(t *testing.T, dir string) *FileStore {
	t.Helper()
	return mustOpen(t, dir)
}

// TestFaultMatrix drives a store through every crash point at every torn
// offset and asserts the invariant the issue demands: recovery always lands
// on a prefix of the acknowledged generations — never a partial record,
// never a lost acknowledged one.
func TestFaultMatrix(t *testing.T) {
	frameLen := len(appendFrame(nil, appendMutation(nil, 3, testMutation(3))))
	type step struct {
		point CrashPoint
		torn  int
	}
	steps := []step{{point: CrashPreAppend}, {point: CrashPostAppend}}
	for torn := 0; torn <= frameLen; torn++ {
		steps = append(steps, step{point: CrashTornAppend, torn: torn})
	}
	for _, st := range steps {
		dir := t.TempDir()
		fs := mustOpen(t, dir)
		f := NewFaultStore(fs)
		// Two acknowledged generations, then a faulted third append.
		appendN(t, fs, 1, 2)
		f.Point, f.TornBytes = st.point, st.torn
		err := f.Append(3, testMutation(3))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("point=%d torn=%d: Append = %v, want ErrInjected", st.point, st.torn, err)
		}
		fs.Close()

		r := reopen(t, dir)
		gens, _ := collectReplay(t, r, 0)
		// Acknowledged = gens 1 and 2. CrashPostAppend makes gen 3 durable
		// before failing, so recovery may land ahead of the last ack — but
		// always on a contiguous prefix of submitted generations.
		wantMax := 2
		if st.point == CrashPostAppend || (st.point == CrashTornAppend && st.torn == frameLen) {
			wantMax = 3
		}
		if len(gens) < 2 || len(gens) > wantMax {
			t.Fatalf("point=%d torn=%d: recovered %v, want prefix of 1..%d covering acks",
				st.point, st.torn, gens, wantMax)
		}
		for i, g := range gens {
			if g != uint64(i+1) {
				t.Fatalf("point=%d torn=%d: non-contiguous recovery %v", st.point, st.torn, gens)
			}
		}
		// The store must accept the next generation after recovery.
		next := uint64(len(gens) + 1)
		if err := r.Append(next, testMutation(int(next))); err != nil {
			t.Fatalf("point=%d torn=%d: append after recovery: %v", st.point, st.torn, err)
		}
		r.Close()
	}
}

// TestFaultMidSnapshot crashes between the temp write and the rename: the
// previous snapshot and the whole WAL survive, and the orphan temp file is
// swept on reopen.
func TestFaultMidSnapshot(t *testing.T) {
	dir := t.TempDir()
	fs := mustOpen(t, dir)
	f := NewFaultStore(fs)
	db := testDatabase(t)
	appendN(t, fs, 1, 3)
	if err := fs.Snapshot(2, db); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	appendN(t, fs, 4, 5)
	f.Point = CrashMidSnapshot
	if err := f.Snapshot(5, db); !errors.Is(err, ErrInjected) {
		t.Fatalf("Snapshot = %v, want ErrInjected", err)
	}
	fs.Close()

	r := reopen(t, dir)
	_, gen, err := r.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gen != 2 {
		t.Fatalf("loaded gen = %d, want the pre-crash snapshot 2", gen)
	}
	if gens, _ := collectReplay(t, r, gen); len(gens) != 3 || gens[0] != 3 || gens[2] != 5 {
		t.Fatalf("replay = %v, want [3 4 5]", gens)
	}
}

// TestFaultStorePassthrough checks CrashNone delegates cleanly.
func TestFaultStorePassthrough(t *testing.T) {
	fs := mustOpen(t, t.TempDir())
	f := NewFaultStore(fs)
	if err := f.Append(1, testMutation(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := f.Snapshot(1, testDatabase(t)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := f.Stats(); st.SnapshotGen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultStoreSticky(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	f := NewFaultStore(s)
	f.Sticky = true
	if err := f.Append(1, Mutation{Ops: []Op{{Kind: 1, Table: "T"}}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	f.Point = CrashPostAppend
	if err := f.Append(2, Mutation{Ops: []Op{{Kind: 1, Table: "T"}}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append at crash point = %v, want ErrInjected", err)
	}
	if !f.Dead() {
		t.Fatal("sticky store not dead after injection")
	}
	// Every later write — including the rollback a live process would run —
	// must bounce off the dead store, freezing the directory.
	f.Point = CrashNone
	if err := f.Append(3, Mutation{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append on dead store = %v, want ErrInjected", err)
	}
	if err := f.TruncateAfter(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("TruncateAfter on dead store = %v, want ErrInjected", err)
	}
	if err := f.Snapshot(2, testDatabase(t)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Snapshot on dead store = %v, want ErrInjected", err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var gens []uint64
	if err := s2.Replay(0, func(g uint64, m Mutation) error { gens = append(gens, g); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(gens, []uint64{1, 2}) {
		t.Fatalf("replayed gens = %v, want [1 2] (post-append crash kept the record)", gens)
	}
}
