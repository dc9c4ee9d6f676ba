package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// VectorLog is the sharded engine's commit log: an append-only file of
// (global generation, per-shard generation vector) records, one per committed
// cross-shard batch. The vector append is THE commit point of the sharded
// protocol — per-shard WAL appends land first, and a batch whose vector never
// reaches this log was never acknowledged, so recovery truncates the shard
// logs back to the newest vector found here.
//
// It is a framedLog like the WAL, so recovery truncates a torn tail and
// treats mid-log corruption as ErrCorrupt by the very same scan; the payload
// is uvarint global generation, uvarint shard count, then one uvarint per
// shard. Compact rewrites the file down to its newest record (atomic
// temp-file rename), bounding growth at snapshot time.
type VectorLog struct {
	mu  sync.Mutex
	log *framedLog

	lastGen uint64
	lastVec []uint64
	closed  bool
}

// OpenVectorLog opens (or creates) the vector log at path, truncating a torn
// final record and failing with ErrCorrupt on mid-log corruption.
func OpenVectorLog(path string) (*VectorLog, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	v := &VectorLog{}
	first := true
	log, err := openFramedLog(path, func(off int64, payload []byte) error {
		gen, vec, err := decodeVector(payload)
		if err != nil {
			return fmt.Errorf("%w: vector record at offset %d: %v", ErrCorrupt, off, err)
		}
		if !first && gen != v.lastGen+1 {
			return fmt.Errorf("%w: vector generation %d follows %d at offset %d", ErrCorrupt, gen, v.lastGen, off)
		}
		first, v.lastGen, v.lastVec = false, gen, vec
		return nil
	})
	if err != nil {
		return nil, err
	}
	v.log = log
	return v, nil
}

// appendVector appends the record payload for (gen, vec) to dst.
func appendVector(dst []byte, gen uint64, vec []uint64) []byte {
	dst = binary.AppendUvarint(dst, gen)
	dst = binary.AppendUvarint(dst, uint64(len(vec)))
	for _, g := range vec {
		dst = binary.AppendUvarint(dst, g)
	}
	return dst
}

// decodeVector parses a vector record payload.
func decodeVector(payload []byte) (uint64, []uint64, error) {
	r := reader{buf: payload}
	gen := r.uvarint()
	n := r.uvarint()
	if r.err == nil && n > uint64(len(payload)) {
		r.fail("shard count %d exceeds payload", n)
	}
	var vec []uint64
	if r.err == nil {
		vec = make([]uint64, n)
		for i := range vec {
			vec[i] = r.uvarint()
		}
	}
	if r.err == nil && r.off != len(r.buf) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	return gen, vec, nil
}

// Append durably logs the committed vector of global generation gen; the
// record is fsynced before Append returns. Generations must be contiguous.
func (v *VectorLog) Append(gen uint64, vec []uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if v.log.records > 0 && gen != v.lastGen+1 {
		return fmt.Errorf("store: vector generation %d, want %d", gen, v.lastGen+1)
	}
	if err := v.log.append(appendVector(nil, gen, vec)); err != nil {
		return fmt.Errorf("store: vector append: %w", err)
	}
	v.lastGen = gen
	v.lastVec = append([]uint64(nil), vec...)
	return nil
}

// Last returns the newest committed vector and its global generation; ok is
// false when the log holds no record.
func (v *VectorLog) Last() (gen uint64, vec []uint64, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.log.records == 0 {
		return 0, nil, false
	}
	return v.lastGen, append([]uint64(nil), v.lastVec...), true
}

// Compact atomically rewrites the log down to its newest record (a no-op on
// an empty or single-record log), so checkpoints bound its growth the way
// snapshots bound the WAL's.
func (v *VectorLog) Compact() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if v.log.records <= 1 {
		return nil
	}
	frame := appendFrame(nil, appendVector(nil, v.lastGen, v.lastVec))
	if err := v.log.rewrite(frame, 1); err != nil {
		return fmt.Errorf("store: vector compact: %w", err)
	}
	return nil
}

// Stats reports the log's size for observability.
func (v *VectorLog) Stats() (bytes, records int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.log.size, v.log.records
}

// Close releases the file handle. Appended records are already durable.
func (v *VectorLog) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	return v.log.close()
}
