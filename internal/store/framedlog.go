package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Record framing of the write-ahead log. A record is [u32 payload length]
// [u32 CRC32-IEEE of payload][payload], both integers little-endian; what the
// payload means is the owning log's business.
const (
	frameHeaderSize = 8
	// maxRecordBytes caps a single record's payload. A length field beyond
	// it is treated as corruption (or a torn tail when it runs past EOF),
	// never as an instruction to allocate gigabytes.
	maxRecordBytes = 64 << 20
	// logTmpSuffix names the transient rewrite file next to a log. A crash
	// can leave it behind; openFramedLog removes it.
	logTmpSuffix = ".tmp"
	// logOpenFlags open a log for appending: every write lands at the end of
	// the file, wherever a truncation or rewrite last left it, so the handle
	// carries no position to keep in step.
	logOpenFlags = os.O_RDWR | os.O_APPEND
)

// appendFrame appends the framed record carrying payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// scanFrames walks the framed records in data, calling fn with each record's
// byte offset and payload (a sub-slice of data, valid only during the call).
// It returns the offset after the last valid record and the record count. A
// failure that plausibly ends the file — short header, payload running past
// EOF, or a checksum mismatch on the final record — is a torn tail, the
// signature of a crash mid-append: scanning stops at the last good offset
// with no error. A bad record with valid-looking data behind it is
// ErrCorrupt: guessing a resync point would silently drop acknowledged
// records. fn's errors (an undecodable payload, a generation gap, a replay
// callback's own failure) abort the scan and are returned as they are.
func scanFrames(data []byte, fn func(off int64, payload []byte) error) (validEnd, records int64, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeaderSize {
			break // torn header
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHeaderSize + payloadLen
		if payloadLen > maxRecordBytes {
			if end >= len(data) {
				break // torn or garbage tail
			}
			return 0, 0, fmt.Errorf("%w: record at offset %d claims %d bytes", ErrCorrupt, off, payloadLen)
		}
		if end > len(data) {
			break // torn payload
		}
		payload := data[off+frameHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			if end == len(data) {
				// The final record: a crash can tear the payload bytes
				// themselves, so a bad checksum at EOF is a torn tail.
				break
			}
			return 0, 0, fmt.Errorf("%w: record at offset %d fails checksum with %d bytes following",
				ErrCorrupt, off, len(data)-end)
		}
		if err := fn(int64(off), payload); err != nil {
			return 0, 0, err
		}
		records++
		off = end
	}
	return int64(off), records, nil
}

// framedLog is one append-only file of framed records with the fsync
// discipline a durable log needs: an append is on disk before it returns,
// a torn tail is cut away on open, and shrinking the log — in place or
// through an atomic temp-file rewrite — is durable before it is reported.
//
// A failed fsync poisons the log. The frame may or may not have reached the
// disk and the page cache no longer says which, so it can be neither counted
// nor rolled back; the one safe move is to stop writing. Every later append,
// truncateTo and rewrite fails fast with that first error, while reads keep
// serving the records acknowledged before it. Not safe for concurrent use:
// the owning store's mutex guards it.
type framedLog struct {
	path string
	f    *os.File
	// size is the byte length of the acknowledged frames — the append
	// offset — and records is their count.
	size, records int64
	// failed is the sticky failure that poisoned the log, nil while healthy.
	failed error
	// fsync flushes the log file and write appends to it; tests swap them
	// to inject a failing disk.
	fsync func(*os.File) error
	write func(*os.File, []byte) (int, error)
}

// openFramedLog opens (or creates) the log at path: it removes a stale
// rewrite temp file, scans the records through visit (see scanFrames) and
// truncates a torn tail so the next append starts on a clean boundary.
func openFramedLog(path string, visit func(off int64, payload []byte) error) (*framedLog, error) {
	if err := os.Remove(path + logTmpSuffix); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: remove stale %s: %w", filepath.Base(path)+logTmpSuffix, err)
	}
	f, err := os.OpenFile(path, logOpenFlags|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &framedLog{path: path, f: f, fsync: (*os.File).Sync, write: (*os.File).Write}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	validEnd, records, err := scanFrames(data, visit)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	l.size, l.records = validEnd, records
	if validEnd < int64(len(data)) {
		if err := l.truncateTo(validEnd, records); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	return l, nil
}

// read returns the acknowledged frames: the file's bytes up to size, leaving
// out anything an unacknowledged write may have put behind them.
func (l *framedLog) read() ([]byte, error) {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > l.size {
		data = data[:l.size]
	}
	return data, nil
}

// append writes one framed record and fsyncs it before returning.
func (l *framedLog) append(payload []byte) error {
	if l.failed != nil {
		return l.failed
	}
	frame := appendFrame(nil, payload)
	if _, err := l.write(l.f, frame); err != nil {
		// A short write leaves a torn tail; roll it back eagerly so the
		// running process stays usable (recovery would also truncate it).
		// A rollback that fails has poisoned the log, which is all there is
		// to do about it, so its error is dropped for the write's.
		_ = l.truncateTo(l.size, l.records)
		return err
	}
	if err := l.fsync(l.f); err != nil {
		return l.poison(fmt.Errorf("fsync: %w", err))
	}
	l.size += int64(len(frame))
	l.records++
	return nil
}

// truncateTo durably cuts the log back to offset, which must be a record
// boundary with `records` records before it. Any failure leaves the file's
// length unknown and poisons the log.
func (l *framedLog) truncateTo(offset, records int64) error {
	if l.failed != nil {
		return l.failed
	}
	if err := l.f.Truncate(offset); err != nil {
		return l.poison(err)
	}
	if err := l.fsync(l.f); err != nil {
		return l.poison(fmt.Errorf("fsync: %w", err))
	}
	l.size, l.records = offset, records
	return nil
}

// rewrite atomically replaces the log's contents with frames (whole framed
// records, `records` of them): temp file, fsync, rename, directory fsync,
// reopen. A crash at any point leaves either the old log or the new one.
func (l *framedLog) rewrite(frames []byte, records int64) error {
	if l.failed != nil {
		return l.failed
	}
	tmp := l.path + logTmpSuffix
	if err := writeFileSync(tmp, frames); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return err
	}
	// From here the open handle names the unlinked old file, so a failure
	// before the swap must not let a later append land there.
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return l.poison(err)
	}
	f, err := os.OpenFile(l.path, logOpenFlags, 0o644)
	if err != nil {
		return l.poison(err)
	}
	l.f.Close()
	l.f = f
	l.size, l.records = int64(len(frames)), records
	return nil
}

// poison records err as the log's sticky failure and returns it.
func (l *framedLog) poison(err error) error {
	l.failed = err
	return err
}

func (l *framedLog) close() error { return l.f.Close() }
