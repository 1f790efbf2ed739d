// Package jobstore provides the durable substrate of the CDAS job
// manager (Section 2.1, Figure 2): an LSM store (lsm.go) whose WAL
// commits every lifecycle change before it is acknowledged, so a killed
// server can replay its job lifecycle and resume unfinished work.
//
// The store is deliberately payload-agnostic — it persists opaque byte
// records and leaves their meaning to the caller (package jobs encodes
// lifecycle records in its own versioned binary format, record.go).
//
// This file holds the record framing the LSM's WAL and checkpoint
// manifest share, and the refusal of layouts this package no longer
// reads.
package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	// headerSize is the per-frame header: 4-byte payload length,
	// 8-byte sequence number, 4-byte CRC-32 (IEEE) over seq+payload.
	headerSize = 4 + 8 + 4

	// maxRecordSize bounds a single record. A length field above it is
	// treated as corruption rather than an attempt to allocate gigabytes.
	maxRecordSize = 64 << 20
)

// ErrLocked reports a store already opened by another live process. The
// lock is a flock: the kernel releases it when the holder dies, so a
// kill -9 never wedges the store.
var ErrLocked = errors.New("jobstore: store is locked by another process")

// ErrRetiredFormat reports a store, or a record in one, written in a
// layout this code no longer reads. Nothing is converted: the files and
// records are left exactly as they were found.
var ErrRetiredFormat = errors.New("retired store format")

// lastRetiredReader is the last commit whose code reads every retired
// layout; a store refused here can be carried forward by a build of it.
const lastRetiredReader = "fef6937"

// RetiredFormat returns ErrRetiredFormat for the retired layout format,
// naming the last commit that reads it. The caller names the file or
// key that holds it.
func RetiredFormat(format string) error {
	return fmt.Errorf("%w: %s, last read by commit %s; nothing was converted",
		ErrRetiredFormat, format, lastRetiredReader)
}

// retiredFiles are the files of retired store layouts. None of them is
// in the LSM's file set, so an open that ignored them would come up
// empty beside the data they hold.
var retiredFiles = []struct{ name, format string }{
	{"wal.dat", "the append-only log written before the LSM engine"},
	{"snapshot.dat", "the append-only log's snapshot, written before the LSM engine"},
	{"lsm.wal", "the single LSM WAL file written before WAL segments"},
}

// refuseRetired fails when dir holds a file of a retired layout. It
// only reads, so a refused open creates and changes nothing.
func refuseRetired(dir string) error {
	for _, f := range retiredFiles {
		path := filepath.Join(dir, f.name)
		_, err := os.Lstat(path)
		if err == nil {
			return fmt.Errorf("jobstore: %s: %w", path, RetiredFormat(f.format))
		}
		if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("jobstore: %w", err)
		}
	}
	return nil
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
