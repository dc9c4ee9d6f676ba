package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// parentFrame frames payload exactly as the pre-framedLog appendFrame did,
// spelled out so the layout is pinned independently of the code under test.
func parentFrame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// TestParentLayoutOpensAndReplays writes a store directory byte for byte as
// the commit before the framedLog fold would have, and checks this code
// opens, loads and replays it — and writes the same bytes back.
func TestParentLayoutOpensAndReplays(t *testing.T) {
	dir := t.TempDir()
	db := relation.NewDatabase("compat")
	db.MustCreateTable(relation.MustSchema("A", []relation.Column{{Name: "ID", Type: relation.TypeString}}, []string{"ID"}))
	if err := os.WriteFile(filepath.Join(dir, snapName), encodeSnapshot(2, db), 0o644); err != nil {
		t.Fatal(err)
	}
	// Generation 2 is the leftover a crash between snapshot rename and WAL
	// truncation leaves; 3 and 4 are the records recovery must replay.
	var wal []byte
	for gen := 2; gen <= 4; gen++ {
		wal = append(wal, parentFrame(appendMutation(nil, uint64(gen), testMutation(gen)))...)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if _, gen, err := s.Load(); err != nil || gen != 2 {
		t.Fatalf("Load = gen %d, %v; want 2", gen, err)
	}
	gens, muts := collectReplay(t, s, 2)
	if !reflect.DeepEqual(gens, []uint64{3, 4}) || !reflect.DeepEqual(muts[1], testMutation(4)) {
		t.Fatalf("Replay(2) = %v", gens)
	}
	appendN(t, s, 5, 5)
	s.Close()
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	want := append(wal, parentFrame(appendMutation(nil, 5, testMutation(5)))...)
	if !bytes.Equal(got, want) {
		t.Fatal("a WAL append no longer produces the parent's bytes")
	}
}

var errDisk = errors.New("injected EIO")

// failNextFsync makes the log's next fsync — and only that one — fail.
func failNextFsync(l *framedLog) {
	l.fsync = func(f *os.File) error {
		l.fsync = (*os.File).Sync
		return errDisk
	}
}

// TestFsyncFailurePoisonsWAL is the regression test for the orphaned-frame
// bug: a failed fsync used to leave the frame in the file with the counters
// un-advanced, so the client's retry appended the same generation behind it
// and the next boot refused the log as corrupt. Now the retry must fail fast
// and the directory must recover cleanly at or past the last acknowledged
// generation (the orphan may replay, as at the post-append crash point).
func TestFsyncFailurePoisonsWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	appendN(t, s, 1, 2)
	failNextFsync(s.log)
	if err := s.Append(3, testMutation(3)); !errors.Is(err, errDisk) {
		t.Fatalf("Append with failing fsync = %v, want the injected error", err)
	}
	if err := s.Append(3, testMutation(3)); !errors.Is(err, errDisk) {
		t.Fatalf("retry = %v, want the sticky first error", err)
	}
	if err := s.TruncateAfter(1); !errors.Is(err, errDisk) {
		t.Fatalf("TruncateAfter on a poisoned log = %v, want the sticky first error", err)
	}
	// Reads keep serving what was acknowledged.
	if gens, _ := collectReplay(t, s, 0); !reflect.DeepEqual(gens, []uint64{1, 2}) {
		t.Fatalf("Replay on a poisoned log = %v, want [1 2]", gens)
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after a failed fsync: %v", err)
	}
	defer r.Close()
	gens, _ := collectReplay(t, r, 2)
	if len(gens) > 1 || (len(gens) == 1 && gens[0] != 3) {
		t.Fatalf("recovered %v past generation 2, want nothing or the orphan 3", gens)
	}
}
