// Immutable sorted runs: the on-disk level of the LSM engine. A run
// holds a memtable flush (or a compaction merge) as CRC-framed blocks
// of sorted key/value entries, followed by a block index, a Bloom
// filter over its keys and a fixed-size footer. Runs are written to a
// temp file and installed by rename, so a crash never leaves a partial
// run visible to recovery — and OpenRun still validates every frame,
// so arbitrary corruption is reported loudly instead of resurrecting
// or dropping records silently (FuzzRunDecode pins that).
//
// Layout:
//
//	"CDASRUN1"                                  8-byte magic
//	data blocks:   [u32 len][u32 crc][entries]  sorted, ~blockSize each
//	index block:   [u32 len][u32 crc][descs]    first key + offset per block
//	bloom block:   [u32 len][u32 crc][bits]
//	footer:        u64 indexOff, u64 bloomOff, u64 count,
//	               u32 crc(previous 24 bytes), "CRF1"
//
// An entry is: u8 flags (1 = tombstone), uvarint klen, key, and for
// non-tombstones uvarint vlen, value. Tombstones are kept so a newer
// run shadows deleted keys in older runs; the bottom-most compaction
// output drops them.
package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// ErrCorruptRun reports a sorted-run file that fails structural or
// checksum validation. Runs are installed atomically, so unlike a torn
// WAL tail this is never the signature of a clean crash — recovery
// surfaces it instead of guessing.
var ErrCorruptRun = errors.New("jobstore: sorted run is corrupt")

var (
	runMagic    = []byte("CDASRUN1")
	footerMagic = []byte("CRF1")
)

// runFooterSize is the fixed footer: indexOff, bloomOff, count, crc,
// magic.
const runFooterSize = 8 + 8 + 8 + 4 + 4

// defaultBlockSize is the target payload size of one data block.
const defaultBlockSize = 4096

// kvEntry is one key/value record inside the engine; del marks a
// tombstone.
type kvEntry struct {
	key string
	val []byte
	del bool
}

// appendEntry encodes one entry onto buf.
func appendEntry(buf []byte, e kvEntry) []byte {
	var flags byte
	if e.del {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(e.key)))
	buf = append(buf, e.key...)
	if !e.del {
		buf = binary.AppendUvarint(buf, uint64(len(e.val)))
		buf = append(buf, e.val...)
	}
	return buf
}

// decodeEntries parses a data block's payload into entries, validating
// every length against the payload bounds.
func decodeEntries(payload []byte) ([]kvEntry, error) {
	var out []kvEntry
	for len(payload) > 0 {
		flags := payload[0]
		if flags > 1 {
			return nil, fmt.Errorf("%w: entry flags %#x", ErrCorruptRun, flags)
		}
		payload = payload[1:]
		klen, n := binary.Uvarint(payload)
		if n <= 0 || klen > uint64(len(payload)-n) {
			return nil, fmt.Errorf("%w: bad key length", ErrCorruptRun)
		}
		payload = payload[n:]
		key := string(payload[:klen])
		payload = payload[klen:]
		e := kvEntry{key: key, del: flags == 1}
		if !e.del {
			vlen, n := binary.Uvarint(payload)
			if n <= 0 || vlen > uint64(len(payload)-n) {
				return nil, fmt.Errorf("%w: bad value length", ErrCorruptRun)
			}
			payload = payload[n:]
			e.val = append([]byte(nil), payload[:vlen]...)
			payload = payload[vlen:]
		}
		out = append(out, e)
	}
	return out, nil
}

// blockFrame frames a block payload: [u32 len][u32 crc][payload].
func blockFrame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf
}

// readBlockAt reads and verifies the framed block at off.
func readBlockAt(r io.ReaderAt, off int64, fileSize int64) ([]byte, error) {
	var hdr [8]byte
	if off < 0 || off+8 > fileSize {
		return nil, fmt.Errorf("%w: block offset out of range", ErrCorruptRun)
	}
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("%w: block header: %v", ErrCorruptRun, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordSize || off+8+int64(n) > fileSize {
		return nil, fmt.Errorf("%w: block length %d out of range", ErrCorruptRun, n)
	}
	payload := make([]byte, n)
	if _, err := r.ReadAt(payload, off+8); err != nil {
		return nil, fmt.Errorf("%w: block body: %v", ErrCorruptRun, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorruptRun)
	}
	return payload, nil
}

// blockDesc locates one data block: its first key, file offset and
// framed size.
type blockDesc struct {
	firstKey string
	off      int64
	size     int64
}

// writeRun streams sorted entries into w (entries must be strictly
// ascending by key; writeRun validates). fail guards every write with
// the torn-capable FailRunWrite point. Returns the entry count.
func writeRun(w *os.File, entries []kvEntry, blockSize int, fail FailFunc) (int, error) {
	if blockSize <= 0 {
		blockSize = defaultBlockSize
	}
	write := func(b []byte) error { return tornWrite(w, b, FailRunWrite, fail) }
	if err := write(runMagic); err != nil {
		return 0, err
	}
	off := int64(len(runMagic))
	var descs []blockDesc
	var cur []byte
	var curFirst string
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		framed := blockFrame(cur)
		if err := write(framed); err != nil {
			return err
		}
		descs = append(descs, blockDesc{firstKey: curFirst, off: off, size: int64(len(framed))})
		off += int64(len(framed))
		cur = nil
		return nil
	}
	filter := newBloom(len(entries))
	for i, e := range entries {
		if i > 0 && entries[i-1].key >= e.key {
			return 0, fmt.Errorf("jobstore: run entries out of order: %q then %q", entries[i-1].key, e.key)
		}
		if len(cur) == 0 {
			curFirst = e.key
		}
		cur = appendEntry(cur, e)
		filter.add(e.key)
		if len(cur) >= blockSize {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	// Index block.
	var ib []byte
	ib = binary.AppendUvarint(ib, uint64(len(descs)))
	for _, d := range descs {
		ib = binary.AppendUvarint(ib, uint64(len(d.firstKey)))
		ib = append(ib, d.firstKey...)
		ib = binary.AppendUvarint(ib, uint64(d.off))
		ib = binary.AppendUvarint(ib, uint64(d.size))
	}
	indexOff := off
	framed := blockFrame(ib)
	if err := write(framed); err != nil {
		return 0, err
	}
	off += int64(len(framed))
	// Bloom block.
	bloomOff := off
	if err := write(blockFrame(filter.bits)); err != nil {
		return 0, err
	}
	// Footer.
	footer := make([]byte, runFooterSize)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(len(entries)))
	binary.LittleEndian.PutUint32(footer[24:28], crc32.ChecksumIEEE(footer[:24]))
	copy(footer[28:], footerMagic)
	if err := write(footer); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// tornWrite writes b through a torn-capable failpoint: ErrTornWrite
// persists roughly half the bytes then reports the crash; any other
// hook error crashes before a single byte lands.
func tornWrite(w io.Writer, b []byte, point string, fail FailFunc) error {
	switch err := fail.fail(point); {
	case err == nil:
	case errors.Is(err, ErrTornWrite):
		w.Write(b[:len(b)/2])
		return ErrInjectedCrash
	default:
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("jobstore: %s: %w", point, err)
	}
	return nil
}

// runReader serves point and range reads from one installed run. The
// footer, block index and Bloom filter are loaded at open — O(index),
// not O(entries) — and data blocks are read (and CRC-verified) on
// demand.
type runReader struct {
	f      *os.File
	size   int64
	count  int
	descs  []blockDesc
	filter *bloom
}

// openRun opens and validates a run file's skeleton.
func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	r, err := loadRun(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func loadRun(f *os.File) (*runReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(runMagic))+runFooterSize {
		return nil, fmt.Errorf("%w: file too short", ErrCorruptRun)
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, err
	}
	if string(magic[:]) != string(runMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptRun)
	}
	footer := make([]byte, runFooterSize)
	if _, err := f.ReadAt(footer, size-runFooterSize); err != nil {
		return nil, err
	}
	if string(footer[28:]) != string(footerMagic) {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorruptRun)
	}
	if crc32.ChecksumIEEE(footer[:24]) != binary.LittleEndian.Uint32(footer[24:28]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorruptRun)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[8:16]))
	count := binary.LittleEndian.Uint64(footer[16:24])
	ib, err := readBlockAt(f, indexOff, size)
	if err != nil {
		return nil, err
	}
	descs, err := decodeIndex(ib)
	if err != nil {
		return nil, err
	}
	bb, err := readBlockAt(f, bloomOff, size)
	if err != nil {
		return nil, err
	}
	return &runReader{
		f:      f,
		size:   size,
		count:  int(count),
		descs:  descs,
		filter: &bloom{bits: bb},
	}, nil
}

func decodeIndex(payload []byte) ([]blockDesc, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: bad index count", ErrCorruptRun)
	}
	payload = payload[w:]
	descs := make([]blockDesc, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, w := binary.Uvarint(payload)
		if w <= 0 || klen > uint64(len(payload)-w) {
			return nil, fmt.Errorf("%w: bad index key", ErrCorruptRun)
		}
		payload = payload[w:]
		key := string(payload[:klen])
		payload = payload[klen:]
		off, w := binary.Uvarint(payload)
		if w <= 0 {
			return nil, fmt.Errorf("%w: bad index offset", ErrCorruptRun)
		}
		payload = payload[w:]
		size, w := binary.Uvarint(payload)
		if w <= 0 {
			return nil, fmt.Errorf("%w: bad index size", ErrCorruptRun)
		}
		payload = payload[w:]
		if i > 0 && descs[i-1].firstKey >= key {
			return nil, fmt.Errorf("%w: index keys out of order", ErrCorruptRun)
		}
		descs = append(descs, blockDesc{firstKey: key, off: int64(off), size: int64(size)})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: trailing index bytes", ErrCorruptRun)
	}
	return descs, nil
}

// get returns the entry for key, with ok reporting presence (a
// tombstone is present: it shadows older runs).
func (r *runReader) get(key string) (kvEntry, bool, error) {
	if !r.filter.mayContain(key) {
		return kvEntry{}, false, nil
	}
	// Last block whose first key <= key.
	i := sort.Search(len(r.descs), func(i int) bool { return r.descs[i].firstKey > key })
	if i == 0 {
		return kvEntry{}, false, nil
	}
	entries, err := r.block(i - 1)
	if err != nil {
		return kvEntry{}, false, err
	}
	j := sort.Search(len(entries), func(j int) bool { return entries[j].key >= key })
	if j < len(entries) && entries[j].key == key {
		return entries[j], true, nil
	}
	return kvEntry{}, false, nil
}

// block reads and decodes data block i.
func (r *runReader) block(i int) ([]kvEntry, error) {
	payload, err := readBlockAt(r.f, r.descs[i].off, r.size)
	if err != nil {
		return nil, err
	}
	entries, err := decodeEntries(payload)
	if err != nil {
		return nil, err
	}
	for j := 1; j < len(entries); j++ {
		if entries[j-1].key >= entries[j].key {
			return nil, fmt.Errorf("%w: block entries out of order", ErrCorruptRun)
		}
	}
	return entries, nil
}

func (r *runReader) close() error { return r.f.Close() }

// runIterator walks a run's entries in key order, starting at the
// first key >= lo.
type runIterator struct {
	r       *runReader
	blockIx int
	entries []kvEntry
	pos     int
	err     error
}

func (r *runReader) iterator(lo string) *runIterator {
	it := &runIterator{r: r}
	// First block that could contain lo: the last one starting <= lo.
	i := sort.Search(len(r.descs), func(i int) bool { return r.descs[i].firstKey > lo })
	if i > 0 {
		i--
	}
	it.blockIx = i
	if len(r.descs) > 0 {
		it.entries, it.err = r.block(i)
		it.pos = sort.Search(len(it.entries), func(j int) bool { return it.entries[j].key >= lo })
	} else {
		it.blockIx = len(r.descs)
	}
	return it
}

// next returns the current entry and advances; ok is false at the end
// or on error (check it.err).
func (it *runIterator) next() (kvEntry, bool) {
	for it.err == nil {
		if it.pos < len(it.entries) {
			e := it.entries[it.pos]
			it.pos++
			return e, true
		}
		it.blockIx++
		if it.blockIx >= len(it.r.descs) {
			return kvEntry{}, false
		}
		it.entries, it.err = it.r.block(it.blockIx)
		it.pos = 0
	}
	return kvEntry{}, false
}
