// Package jobstore provides the durable substrate of the CDAS job
// manager (Section 2.1, Figure 2): an LSM store (lsm.go) whose WAL
// commits every lifecycle change before it is acknowledged, so a killed
// server can replay its job lifecycle and resume unfinished work.
//
// The store is deliberately payload-agnostic — it persists opaque byte
// records and leaves their meaning to the caller (package jobs encodes
// lifecycle records as JSON).
//
// This file holds the record framing the LSM's WAL and checkpoint
// manifest share, and ReadLog: a read-only reader for the append-only
// log (wal.dat plus snapshot.dat) that stores were written in before the
// LSM engine, kept so that cdas-storectl migrate can convert them.
package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

const (
	walName      = "wal.dat"
	snapshotName = "snapshot.dat"

	// headerSize is the per-frame header: 4-byte payload length,
	// 8-byte sequence number, 4-byte CRC-32 (IEEE) over seq+payload.
	headerSize = 4 + 8 + 4

	// maxRecordSize bounds a single record. A length field above it is
	// treated as corruption rather than an attempt to allocate gigabytes.
	maxRecordSize = 64 << 20
)

// ErrCorruptSnapshot reports a snapshot file that exists but fails its
// checksum. Unlike a torn WAL tail this is never produced by a crash —
// snapshots were installed atomically — so it is surfaced loudly instead
// of being silently dropped.
var ErrCorruptSnapshot = errors.New("jobstore: snapshot file is corrupt")

// ErrLocked reports a store already opened by another live process. The
// lock is a flock: the kernel releases it when the holder dies, so a
// kill -9 never wedges the store.
var ErrLocked = errors.New("jobstore: store is locked by another process")

// LogImage is an append-only log store as ReadLog found it: the latest
// snapshot plus every committed WAL record after it. It holds the WAL's
// flock until Close, so a second reader — or a process still writing the
// log — cannot run beside it.
type LogImage struct {
	// Snapshot is the snapshot payload, nil when the store has none.
	Snapshot []byte
	// Entries are the committed WAL records past the snapshot's
	// watermark, in append order.
	Entries [][]byte
	// TailTruncated reports a torn or corrupted WAL tail — the
	// signature of a crash mid-append — that the read left out.
	TailTruncated bool

	lock *os.File
}

// ReadLog reads the append-only log store rooted at dir without writing
// to it. Frames at or below the snapshot's sequence watermark are
// skipped (the crash window between a snapshot install and the WAL
// truncation that followed it), so a record is never applied twice; a
// torn or corrupted tail ends the committed prefix and is left on disk
// as it is. The returned image holds the store's lock — a flock on
// wal.dat, which is created empty when a store has only a snapshot —
// until Close.
func ReadLog(dir string) (*LogImage, error) {
	path := filepath.Join(dir, walName)
	wal, err := os.OpenFile(path, os.O_RDONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	if err := syscall.Flock(int(wal.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		wal.Close()
		return nil, fmt.Errorf("%w (%s): %v", ErrLocked, path, err)
	}
	img := &LogImage{lock: wal}
	if err := img.read(dir); err != nil {
		wal.Close()
		return nil, err
	}
	return img, nil
}

// read loads the snapshot, then scans the WAL for committed records
// past its watermark.
func (img *LogImage) read(dir string) error {
	var snapSeq uint64
	snapPath := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(snapPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("jobstore: %w", err)
	}
	if len(data) > 0 {
		seq, payload, size, ok := parseFrame(data)
		if !ok || size != len(data) {
			return fmt.Errorf("%w (%s)", ErrCorruptSnapshot, snapPath)
		}
		img.Snapshot, snapSeq = payload, seq
	}
	if data, err = io.ReadAll(img.lock); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	offset := 0
	for offset < len(data) {
		seq, payload, size, ok := parseFrame(data[offset:])
		if !ok {
			img.TailTruncated = true
			break
		}
		if seq > snapSeq {
			img.Entries = append(img.Entries, payload)
		}
		offset += size
	}
	return nil
}

// Close releases the store's lock. The image stays readable.
func (img *LogImage) Close() error { return img.lock.Close() }

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
