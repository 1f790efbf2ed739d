// Package jobstore provides the durable substrate of the CDAS job
// manager (Section 2.1, Figure 2): an append-only write-ahead log with
// periodic snapshots, so a killed server can replay its job lifecycle
// and resume unfinished work.
//
// The store is deliberately payload-agnostic — it persists opaque byte
// records and leaves their meaning to the caller (package jobs encodes
// lifecycle events as JSON). Durability contract:
//
//   - Append frames the payload with a length, a monotone sequence
//     number and a CRC-32 checksum, writes it to the WAL and fsyncs
//     before returning. A returned Append is committed: it survives
//     kill -9. AppendNoSync followed by Sync is the same commit in two
//     steps, so concurrent committers share fsyncs.
//   - WriteSnapshot atomically replaces the snapshot file
//     (write-temp, fsync, rename, fsync-dir) and then truncates the
//     WAL. The snapshot frame carries the sequence number of the last
//     record it covers.
//   - Open loads the snapshot (if any) and replays WAL frames. A
//     torn or corrupted tail — a crash mid-Append — is detected by the
//     framing and cut off at the last intact record; every committed
//     record before it is preserved. Records whose sequence number is
//     at or below the snapshot watermark are skipped, which makes the
//     crash window between snapshot rename and WAL truncation safe:
//     replay is idempotent, nothing is applied twice.
package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

const (
	walName      = "wal.dat"
	snapshotName = "snapshot.dat"
	snapshotTmp  = "snapshot.tmp"

	// headerSize is the per-frame header: 4-byte payload length,
	// 8-byte sequence number, 4-byte CRC-32 (IEEE) over seq+payload.
	headerSize = 4 + 8 + 4

	// maxRecordSize bounds a single record. A length field above it is
	// treated as corruption rather than an attempt to allocate gigabytes.
	maxRecordSize = 64 << 20
)

// ErrCorruptSnapshot reports a snapshot file that exists but fails its
// checksum. Unlike a torn WAL tail this is never produced by a crash —
// snapshots are installed atomically — so it is surfaced loudly instead
// of being silently dropped.
var ErrCorruptSnapshot = errors.New("jobstore: snapshot file is corrupt")

// ErrLocked reports a store already opened by another live process.
// Two writers interleaving frames would corrupt each other's committed
// records, so the second Open fails fast instead. The lock is a flock
// on the WAL file: the kernel releases it when the holder dies, so a
// kill -9 never wedges the store.
var ErrLocked = errors.New("jobstore: store is locked by another process")

var errLogClosed = errors.New("jobstore: log is closed")

// Log is a durable append-only record log with snapshot compaction.
// It is safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	dir string
	wal *os.File

	seq     uint64 // last sequence number assigned
	snapSeq uint64 // watermark: records <= snapSeq live in the snapshot

	// synced is the durable watermark: records <= synced are fsynced or
	// covered by a snapshot. syncing is set while one Sync caller fsyncs
	// with mu released; cond (on mu) signals its return. failed makes the
	// log fail-stop after a write or fsync error: the file may end in a
	// partial or unacknowledged record that replay would cut, or keep,
	// regardless of what is appended behind it.
	synced  uint64
	syncing bool
	cond    *sync.Cond
	failed  error
	syncs   atomic.Uint64

	// State recovered at Open; immutable afterwards.
	snapshot  []byte
	entries   [][]byte
	truncated bool

	// appends counts WAL records since the last snapshot, for
	// compaction policies.
	appends int

	closed bool
}

// Open opens (creating if needed) the log rooted at dir and recovers
// its state: the latest snapshot plus every committed WAL record after
// it. A torn or corrupted WAL tail is truncated in place.
func Open(dir string) (*Log, error) {
	if dir == "" {
		return nil, errors.New("jobstore: dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	l := &Log{dir: dir}
	l.cond = sync.NewCond(&l.mu)
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := l.replayWAL(); err != nil {
		return nil, err
	}
	l.synced = l.seq
	return l, nil
}

// Snapshot returns the snapshot payload recovered at Open (nil when the
// log had none) and the sequence watermark it covers.
func (l *Log) Snapshot() ([]byte, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshot, l.snapSeq
}

// Entries returns the WAL records recovered at Open, in append order,
// excluding any already covered by the snapshot watermark.
func (l *Log) Entries() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.entries))
	copy(out, l.entries)
	return out
}

// TailTruncated reports whether Open found (and cut off) a torn or
// corrupted WAL tail — the signature of a crash mid-Append.
func (l *Log) TailTruncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Seq returns the last sequence number assigned.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// AppendsSinceSnapshot counts WAL records committed since the last
// snapshot (including recovered ones) — the input to compaction policy.
func (l *Log) AppendsSinceSnapshot() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Append commits one record: it is framed, written to the WAL and
// fsynced before Append returns. The assigned sequence number is
// returned.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, err := l.AppendNoSync(payload)
	if err != nil {
		return 0, err
	}
	return seq, l.Sync(seq)
}

// AppendNoSync writes a record without forcing it to disk: the first
// half of a commit that Sync completes, or all of an advisory record
// (e.g. progress) where losing the tail on a crash is acceptable.
// Ordering is preserved: any later Sync flushes earlier unsynced records
// first, and a torn tail is still detected and truncated on recovery.
func (l *Log) AppendNoSync(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLogClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if len(payload) > maxRecordSize {
		return 0, fmt.Errorf("jobstore: record of %d bytes exceeds the %d byte cap", len(payload), maxRecordSize)
	}
	seq := l.seq + 1
	if _, err := l.wal.Write(frame(seq, payload)); err != nil {
		l.failed = fmt.Errorf("jobstore: append: %w", err)
		return 0, l.failed
	}
	l.seq = seq
	l.appends++
	return seq, nil
}

// Sync blocks until record seq is durable. One caller at a time fsyncs,
// with the lock released, covering every record written before it
// started; the rest wait for a sync that covers theirs. An fsync error
// fails every record not yet durable and the log stays failed.
func (l *Log) Sync(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < seq {
		switch {
		case l.failed != nil:
			return l.failed
		case l.closed:
			return errLogClosed
		case l.syncing:
			l.cond.Wait()
		default:
			l.syncLocked()
		}
	}
	return nil
}

// syncLocked fsyncs the WAL with mu released and advances the durable
// watermark over every record written before it started. Caller holds
// l.mu and has seen no sync in flight; l.mu is held again on return.
func (l *Log) syncLocked() {
	l.syncing = true
	target := l.seq
	l.mu.Unlock()
	l.syncs.Add(1)
	err := l.wal.Sync()
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		l.failed = fmt.Errorf("jobstore: fsync: %w", err)
	} else if target > l.synced {
		l.synced = target
	}
	l.cond.Broadcast()
}

// Synced returns the durable watermark: every record at or below it has
// been fsynced or is covered by a snapshot.
func (l *Log) Synced() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Syncs counts the WAL fsyncs issued for commits since Open.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// WriteSnapshot installs payload as the new snapshot covering every
// record committed so far, then truncates the WAL. The install is
// atomic (temp file + rename); a crash at any point leaves either the
// old snapshot with a full WAL or the new snapshot with a WAL whose
// records are skipped by the sequence watermark on replay.
func (l *Log) WriteSnapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return errLogClosed
	}
	if l.failed != nil {
		return l.failed
	}
	tmp := filepath.Join(l.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: snapshot: %w", err)
	}
	if _, err := f.Write(frame(l.seq, payload)); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobstore: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return fmt.Errorf("jobstore: snapshot install: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.snapSeq = l.seq
	l.synced = l.seq
	l.cond.Broadcast()
	// The WAL's records are now covered by the snapshot; drop them.
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("jobstore: wal truncate: %w", err)
	}
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("jobstore: wal seek: %w", err)
	}
	if err := l.wal.Sync(); err != nil {
		return fmt.Errorf("jobstore: wal fsync: %w", err)
	}
	l.appends = 0
	return nil
}

// Close fsyncs whatever AppendNoSync left unsynced, then releases the
// WAL file handle. Append and WriteSnapshot fail after Close; the
// recovered state remains readable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	if l.synced < l.seq && l.failed == nil {
		l.syncLocked()
	}
	l.closed = true
	l.cond.Broadcast()
	if err := l.wal.Close(); err != nil {
		return err
	}
	return l.failed
}

// frame encodes one record: [len u32][seq u64][crc u32][payload].
func frame(seq uint64, payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(payload)), seq, payload)
}

// appendFrame appends one record's frame to dst.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[4:12]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	return append(append(dst, hdr[:]...), payload...)
}

// parseFrame decodes the frame at the start of data. ok is false when
// data does not begin with an intact frame (short header, oversized
// length, short payload or checksum mismatch) — the caller treats that
// as the committed prefix's end.
func parseFrame(data []byte) (seq uint64, payload []byte, size int, ok bool) {
	if len(data) < headerSize {
		return 0, nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxRecordSize || int(n) > len(data)-headerSize {
		return 0, nil, 0, false
	}
	seq = binary.LittleEndian.Uint64(data[4:12])
	want := binary.LittleEndian.Uint32(data[12:16])
	payload = data[headerSize : headerSize+int(n)]
	crc := crc32.NewIEEE()
	crc.Write(data[4:12])
	crc.Write(payload)
	if crc.Sum32() != want {
		return 0, nil, 0, false
	}
	return seq, payload, headerSize + int(n), true
}

// loadSnapshot reads the snapshot file, if present.
func (l *Log) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(l.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	seq, payload, size, ok := parseFrame(data)
	if !ok || size != len(data) {
		return fmt.Errorf("%w (%s)", ErrCorruptSnapshot, filepath.Join(l.dir, snapshotName))
	}
	l.snapshot = append([]byte(nil), payload...)
	l.snapSeq = seq
	l.seq = seq
	return nil
}

// replayWAL scans the WAL, collecting committed records past the
// snapshot watermark and truncating any torn tail.
func (l *Log) replayWAL() error {
	path := filepath.Join(l.dir, walName)
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := syscall.Flock(int(wal.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		wal.Close()
		return fmt.Errorf("%w (%s): %v", ErrLocked, path, err)
	}
	data, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	offset := 0
	for offset < len(data) {
		seq, payload, size, ok := parseFrame(data[offset:])
		if !ok {
			break
		}
		if seq > l.snapSeq {
			l.entries = append(l.entries, append([]byte(nil), payload...))
			l.appends++
			if seq > l.seq {
				l.seq = seq
			}
		}
		offset += size
	}
	if offset < len(data) {
		// Torn or corrupted tail: keep the committed prefix only.
		l.truncated = true
		if err := wal.Truncate(int64(offset)); err != nil {
			wal.Close()
			return fmt.Errorf("jobstore: tail truncate: %w", err)
		}
	}
	if _, err := wal.Seek(int64(offset), io.SeekStart); err != nil {
		wal.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	l.wal = wal
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("jobstore: dir fsync: %w", err)
	}
	return nil
}
