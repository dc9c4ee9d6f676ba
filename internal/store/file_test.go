package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func appendN(t *testing.T, s *FileStore, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := s.Append(uint64(i), testMutation(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

// collectReplay drains Replay(after) into ordered slices.
func collectReplay(t *testing.T, s Store, after uint64) ([]uint64, []Mutation) {
	t.Helper()
	var gens []uint64
	var muts []Mutation
	if err := s.Replay(after, func(gen uint64, m Mutation) error {
		gens = append(gens, gen)
		muts = append(muts, m)
		return nil
	}); err != nil {
		t.Fatalf("Replay(%d): %v", after, err)
	}
	return gens, muts
}

func TestFileStoreAppendReplay(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	appendN(t, s, 1, 5)
	gens, muts := collectReplay(t, s, 0)
	if len(gens) != 5 {
		t.Fatalf("replayed %d records, want 5", len(gens))
	}
	for i, gen := range gens {
		if gen != uint64(i+1) {
			t.Fatalf("gens[%d] = %d, want %d", i, gen, i+1)
		}
		want := appendMutation(nil, gen, testMutation(i+1))
		got := appendMutation(nil, gen, muts[i])
		if string(got) != string(want) {
			t.Fatalf("gen %d mutation differs after replay", gen)
		}
	}
	if gens, _ := collectReplay(t, s, 3); len(gens) != 2 || gens[0] != 4 {
		t.Fatalf("Replay(3) = %v, want [4 5]", gens)
	}
	st := s.Stats()
	if st.WALRecords != 5 || st.WALBytes <= 0 || st.SnapshotGen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFileStoreRejectsGenerationGap(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	appendN(t, s, 1, 2)
	if err := s.Append(4, testMutation(4)); err == nil {
		t.Fatal("Append(4) after gen 2 succeeded")
	}
	if err := s.Append(2, testMutation(2)); err == nil {
		t.Fatal("Append(2) after gen 2 succeeded")
	}
	// The rejected appends must not have dirtied the log.
	appendN(t, s, 3, 3)
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	appendN(t, s, 1, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Append(4, testMutation(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed store: %v, want ErrClosed", err)
	}

	r := mustOpen(t, dir)
	if gens, _ := collectReplay(t, r, 0); len(gens) != 3 {
		t.Fatalf("reopened replay has %d records, want 3", len(gens))
	}
	// Appends continue from the recovered generation.
	appendN(t, r, 4, 4)
}

// TestFileStoreTornTailCorpus truncates a valid WAL at every byte offset of
// its final record and asserts recovery always lands on the preceding
// records — the exhaustive torn-tail matrix from the issue.
func TestFileStoreTornTailCorpus(t *testing.T) {
	seed := t.TempDir()
	s := mustOpen(t, seed)
	appendN(t, s, 1, 2)
	twoRecords := s.Stats().WALBytes
	appendN(t, s, 3, 3)
	s.Close()
	data, err := os.ReadFile(filepath.Join(seed, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= twoRecords {
		t.Fatalf("wal has %d bytes, expected more than %d", len(data), twoRecords)
	}

	for cut := twoRecords; cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		wantRecords := 2
		if cut == int64(len(data)) {
			wantRecords = 3 // nothing torn
		}
		gens, _ := collectReplay(t, r, 0)
		if len(gens) != wantRecords {
			r.Close()
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(gens), wantRecords)
		}
		// The torn tail is gone from disk: the next append must succeed
		// and survive another reopen.
		next := uint64(wantRecords + 1)
		if err := r.Append(next, testMutation(int(next))); err != nil {
			r.Close()
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		r.Close()
		rr := mustOpen(t, dir)
		if gens, _ := collectReplay(t, rr, 0); len(gens) != wantRecords+1 {
			t.Fatalf("cut=%d: second recovery has %d records, want %d", cut, len(gens), wantRecords+1)
		}
		rr.Close()
	}
}

func TestFileStoreCorruptFinalRecordIsTorn(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	appendN(t, s, 1, 2)
	boundary := s.Stats().WALBytes
	appendN(t, s, 3, 3)
	s.Close()
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the final record: its CRC now fails at EOF,
	// which recovery treats as a torn tail.
	data[boundary+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	if gens, _ := collectReplay(t, r, 0); len(gens) != 2 {
		t.Fatalf("recovered %d records, want 2", len(gens))
	}
}

func TestFileStoreCorruptMidLogIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	appendN(t, s, 1, 3)
	s.Close()
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST record's payload: valid records follow, so this
	// cannot be a torn tail and recovery must refuse to proceed.
	data[frameHeaderSize] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestFileStoreGarbageLengthTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	appendN(t, s, 1, 2)
	s.Close()
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A garbage header claiming an absurd payload length with nothing
	// after it is a torn/garbage tail, not corruption.
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r := mustOpen(t, dir)
	if gens, _ := collectReplay(t, r, 0); len(gens) != 2 {
		t.Fatalf("recovered %d records, want 2", len(gens))
	}
}

func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapTmpName), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName+logTmpSuffix), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir)
	for _, tmp := range []string{snapTmpName, walName + logTmpSuffix} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Fatalf("%s still present after Open", tmp)
		}
	}
}
