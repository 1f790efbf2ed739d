// The LSM engine: a durable key/value store with bounded-time recovery,
// built for the job service's "millions of jobs" regime where
// replaying a whole history at boot would be a boot-time and memory
// cliff.
//
// Shape (classic log-structured merge tree, one level):
//
//   - Writes are group-committed. Stage frames a batch — one CRC-framed
//     WAL record, so its ops commit together or not at all — assigns it
//     the next sequence and appends it to an in-memory buffer; Wait makes
//     the first waiter leader, which writes every frame staged so far
//     with one write and one fsync outside the lock, applies the group to
//     the memtable in sequence order and wakes the rest. Apply is Stage
//     followed by Wait.
//   - A checkpoint freezes the memtable behind an immutable view, opens
//     a fresh WAL segment for subsequent commits, and flushes the frozen
//     entries into an immutable sorted run — CRC-framed blocks, a block
//     index and a Bloom filter (run.go) — installed by atomic rename.
//     A new MANIFEST then records the live run set and the WAL sequence
//     watermark the runs cover, and the covered WAL segments are
//     deleted. With OnlineCheckpoint set the flush runs in a background
//     goroutine (single-flight), so a checkpoint never blocks Apply;
//     otherwise it runs inline, on the triggering caller.
//   - Compaction merges the run stack into one run (dropping tombstones)
//     once it grows past MaxRuns, synchronously by default or in the
//     background when BackgroundCompaction is set.
//   - Open reads the MANIFEST, opens each run's footer/index/bloom
//     (O(runs), not O(records)), deletes orphan files from interrupted
//     installs, drops WAL segments fully covered by the watermark and
//     replays only the frames past it — checkpoint + tail, never
//     seq-zero replay.
//
// Every fsync, rename and segment transition on this path is guarded by
// a named failpoint (failpoint.go); the crash-equivalence tests drive op
// sequences with a crash injected at each one — including mid-flight
// online checkpoints — and assert recovery always matches a reference
// model.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// LSM file names. A directory that also holds a retired layout's files
// (retiredFiles) is refused at open.
const (
	lsmLockName     = "lsm.lock"
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	runTmpName      = "run.tmp"
)

func runFileName(id uint64) string { return fmt.Sprintf("run-%08d.run", id) }

// segmentFileName names WAL segment id. Fixed-width decimal keeps
// lexical order equal to numeric order for directory listings.
func segmentFileName(id uint64) string { return fmt.Sprintf("wal-%08d.wal", id) }

// parseSegmentName extracts the id from a WAL segment file name.
func parseSegmentName(name string) (uint64, bool) {
	mid, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	mid, ok = strings.CutSuffix(mid, ".wal")
	if !ok || len(mid) == 0 {
		return 0, false
	}
	id, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// Op is one mutation in an atomic batch: a put, or a delete when
// Delete is set.
type Op struct {
	Key    string
	Value  []byte
	Delete bool
}

// LSMConfig tunes OpenLSM. Only Dir is required.
type LSMConfig struct {
	// Dir roots the store's files.
	Dir string
	// MemtableBytes is the flush threshold (default 4 MiB).
	MemtableBytes int
	// MaxRuns triggers compaction when the run stack grows past it
	// (default 4; minimum 1).
	MaxRuns int
	// BlockSize is the sorted-run block payload target (default 4 KiB).
	BlockSize int
	// NoSync skips fsyncs — bulk loading and benchmarks only; a crash
	// can lose acknowledged writes.
	NoSync bool
	// OnlineCheckpoint flushes checkpoints in a background goroutine:
	// the commit path only freezes the memtable and rotates the WAL
	// segment (two O(1) pointer swaps plus one file creation), so Apply
	// never waits for a run flush or manifest install.
	OnlineCheckpoint bool
	// OnCheckpoint, when set, is called once per checkpoint flush with
	// its outcome, after the flush completes and with no store locks
	// held. This is how online checkpoint errors surface to the owner.
	OnCheckpoint func(err error)
	// BackgroundCompaction runs compaction in a goroutine instead of
	// synchronously inside the triggering checkpoint.
	BackgroundCompaction bool
	// Fail is the failpoint hook (tests only; see failpoint.go).
	Fail FailFunc
}

// BootStats describes what recovery did — the observable difference
// between checkpoint+tail boot and replay-the-world.
type BootStats struct {
	// Runs is the number of sorted runs opened from the manifest.
	Runs int
	// RunRecords is the total record count the runs hold (from their
	// footers; the records themselves are not read at boot).
	RunRecords int
	// TailRecords is the number of WAL frames replayed past the
	// manifest watermark — the only part of boot proportional to
	// un-checkpointed writes.
	TailRecords int
	// TailTruncated reports a torn WAL tail was cut off.
	TailTruncated bool
}

// lsmManifest is the durable run-set record.
type lsmManifest struct {
	// Runs lists live run IDs, oldest first.
	Runs []uint64 `json:"runs"`
	// WalSeq is the watermark: WAL frames at or below it are covered by
	// the runs and skipped on replay.
	WalSeq uint64 `json:"wal_seq"`
	// NextRun is the next run ID to allocate.
	NextRun uint64 `json:"next_run"`
}

// walSegment is a rotated-out WAL segment awaiting coverage: once the
// manifest watermark reaches maxSeq the file is deleted.
type walSegment struct {
	id     uint64
	maxSeq uint64
}

// ckptJob tracks one checkpoint flush from freeze to install. done is
// closed when the flush finished (either way); err is valid after.
type ckptJob struct {
	done chan struct{}
	err  error
}

// LSM is the engine handle. It is safe for concurrent use.
type LSM struct {
	mu  sync.Mutex
	cfg LSMConfig
	dir string

	lockf    *os.File // flock handle held for the store's lifetime
	wal      *os.File // current WAL segment
	walID    uint64   // current segment id
	walSeq   uint64
	oldSegs  []walSegment // rotated-out segments, ascending id
	manifest lsmManifest
	runs     []*runReader // parallel to manifest.Runs (oldest first)
	mem      *memtable

	// frozen is the immutable memtable view an in-flight checkpoint is
	// flushing; reads overlay mem (newer) over frozen over the runs.
	frozen    *memtable
	frozenSeq uint64
	inflight  *ckptJob

	// maintMu serialises the file-level maintenance work — checkpoint
	// flushes and compactions — without blocking the commit path, which
	// only ever takes mu. Lock order: maintMu before mu.
	maintMu sync.Mutex
	wg      sync.WaitGroup // background flushes and compactions

	// Group commit state. walSeq (above) is the durable watermark: frames
	// at or below it are fsynced and applied to the memtable. Frames
	// staged but not yet written sit in stagedBuf (stagedOps holds their
	// ops, flattened in sequence order).
	// The baton is held by whoever is doing WAL I/O outside mu — a group
	// leader writing and fsyncing, or a checkpoint rotating the segment —
	// so the write head never changes under a write. cond (on mu) signals
	// baton release, walSeq advance and failure.
	cond      *sync.Cond
	baton     bool
	stagedBuf []byte
	stagedOps []kvEntry
	stagedSeq uint64 // last sequence Stage assigned; walSeq when nothing is staged
	walSyncs  atomic.Uint64

	boot       BootStats
	compacting bool
	closed     bool
	// poisoned makes the store fail-stop until it is reopened. It is set
	// by any WAL write or fsync error — the segment may now end in a
	// partial or unacknowledged frame, and a frame appended behind it
	// would be cut off, or acknowledged ahead of it, by the next replay —
	// and by an injected crash anywhere (possibly on a background flush):
	// the simulated process is dead.
	poisoned error
}

var errLSMClosed = errors.New("jobstore: store is closed")

// OpenLSM opens (creating if needed) the store at cfg.Dir and recovers
// it: manifest, run skeletons, orphan cleanup, WAL tail replay. A
// directory holding a retired layout's files fails with ErrRetiredFormat
// before anything in it is created or changed.
func OpenLSM(cfg LSMConfig) (*LSM, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobstore: dir is required")
	}
	if cfg.MemtableBytes <= 0 {
		cfg.MemtableBytes = 4 << 20
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 4
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = defaultBlockSize
	}
	if err := refuseRetired(cfg.Dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	l := &LSM{cfg: cfg, dir: cfg.Dir, mem: newMemtable()}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		if l.wal != nil {
			l.wal.Close()
		}
		for _, r := range l.runs {
			r.close()
		}
		if l.lockf != nil {
			l.lockf.Close()
		}
		return nil, err
	}
	l.stagedSeq = l.walSeq
	return l, nil
}

// recover loads the manifest and runs, removes orphans and replays the
// WAL segments past the watermark.
func (l *LSM) recover() error {
	// Lock first: a dedicated flock file is the single-writer guard
	// (the WAL itself rotates, so it can no longer double as the lock).
	lockf, err := os.OpenFile(filepath.Join(l.dir, lsmLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := syscall.Flock(int(lockf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lockf.Close()
		return fmt.Errorf("%w (%s): %v", ErrLocked, filepath.Join(l.dir, lsmLockName), err)
	}
	l.lockf = lockf

	if err := l.loadManifest(); err != nil {
		return err
	}
	if l.manifest.NextRun == 0 {
		// Run IDs start at 1: installManifest uses 0 as "no new run".
		l.manifest.NextRun = 1
	}
	live := make(map[string]bool, len(l.manifest.Runs)+2)
	for _, id := range l.manifest.Runs {
		live[runFileName(id)] = true
	}
	for _, id := range l.manifest.Runs {
		r, err := openRun(filepath.Join(l.dir, runFileName(id)))
		if err != nil {
			return err
		}
		l.runs = append(l.runs, r)
		l.boot.RunRecords += r.count
	}
	l.boot.Runs = len(l.runs)
	// Orphans: run files an interrupted install left behind (present on
	// disk, absent from the manifest) and temp files. Removing them is
	// safe — the manifest is the commit point.
	names, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		orphanRun := strings.HasPrefix(name, "run-") && strings.HasSuffix(name, ".run") && !live[name]
		if orphanRun || name == runTmpName || name == manifestTmpName {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
	return l.recoverWAL()
}

// loadManifest reads the MANIFEST, tolerating absence (empty store).
func (l *LSM) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(l.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	_, payload, size, ok := parseFrame(data)
	if !ok || size != len(data) {
		return fmt.Errorf("%w: manifest failed validation (%s)", ErrCorruptRun, filepath.Join(l.dir, manifestName))
	}
	if err := json.Unmarshal(payload, &l.manifest); err != nil {
		return fmt.Errorf("jobstore: decoding manifest: %w", err)
	}
	l.walSeq = l.manifest.WalSeq
	return nil
}

// recoverWAL discovers the WAL segments, replays every frame past the
// manifest watermark in segment order, deletes segments the watermark
// fully covers, and leaves the newest segment open as the write head.
func (l *LSM) recoverWAL() error {
	ids, err := l.listSegments()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return l.createSegment(1)
	}
	for i, id := range ids {
		last := i == len(ids)-1
		if err := l.replaySegment(id, last); err != nil {
			return err
		}
	}
	return nil
}

// listSegments returns the on-disk WAL segment ids, ascending.
func (l *LSM) listSegments() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var ids []uint64
	for _, de := range entries {
		if id, ok := parseSegmentName(de.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// createSegment makes an empty segment the write head.
func (l *LSM) createSegment(id uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentFileName(id)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	l.wal = f
	l.walID = id
	return nil
}

// replaySegment applies one segment's frames past the watermark to the
// memtable. The last segment stays open as the write head (with any
// torn tail truncated); older segments are deleted when covered, kept
// in oldSegs otherwise.
func (l *LSM) replaySegment(id uint64, last bool) error {
	path := filepath.Join(l.dir, segmentFileName(id))
	var f *os.File
	var data []byte
	var err error
	if last {
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("jobstore: %w", err)
		}
		data, err = io.ReadAll(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("jobstore: %w", err)
		}
	} else {
		data, err = os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("jobstore: %w", err)
		}
	}
	offset := 0
	maxSeq := uint64(0)
	for offset < len(data) {
		seq, payload, size, ok := parseFrame(data[offset:])
		if !ok {
			break
		}
		if seq > l.manifest.WalSeq {
			ops, err := decodeEntries(payload)
			if err != nil {
				// A CRC-valid frame with undecodable ops is corruption,
				// not a torn tail.
				if f != nil {
					f.Close()
				}
				return fmt.Errorf("jobstore: WAL record %d: %w", seq, err)
			}
			for _, e := range ops {
				l.mem.apply(e)
			}
			l.boot.TailRecords++
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq > l.walSeq {
			l.walSeq = seq
		}
		offset += size
	}
	if offset < len(data) {
		// A torn frame is the signature of a crash mid-write; it can
		// only carry unacknowledged bytes, so cutting it is safe in any
		// segment (older segments see one only under NoSync).
		l.boot.TailTruncated = true
	}
	if last {
		if offset < len(data) {
			if err := f.Truncate(int64(offset)); err != nil {
				f.Close()
				return fmt.Errorf("jobstore: tail truncate: %w", err)
			}
		}
		if _, err := f.Seek(int64(offset), io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("jobstore: %w", err)
		}
		l.wal = f
		l.walID = id
		return nil
	}
	if maxSeq <= l.manifest.WalSeq {
		// Fully covered by the checkpoint (including empty segments from
		// an aborted rotation): an interrupted post-checkpoint deletion,
		// finished here.
		os.Remove(path)
		return nil
	}
	l.oldSegs = append(l.oldSegs, walSegment{id: id, maxSeq: maxSeq})
	return nil
}

// BootStats reports what recovery did at Open.
func (l *LSM) BootStats() BootStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.boot
}

// Runs reports the current run count (tests and compaction policy
// introspection).
func (l *LSM) Runs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.runs)
}

// Put commits a single-key write.
func (l *LSM) Put(key string, value []byte) error {
	return l.Apply([]Op{{Key: key, Value: value}})
}

// Delete commits a single-key delete (a tombstone shadowing any older
// run's value).
func (l *LSM) Delete(key string) error {
	return l.Apply([]Op{{Key: key, Delete: true}})
}

// Apply commits a batch atomically: Stage followed by Wait. When Apply
// returns nil the batch is durable (unless NoSync). Concurrent callers
// share fsyncs: whatever was staged while the previous group was being
// written goes out as the next group. An error after the WAL fsync (from
// checkpoint housekeeping) still means the batch itself committed;
// callers that need to distinguish should reopen and read.
func (l *LSM) Apply(batch []Op) error {
	seq, err := l.Stage(batch)
	if err != nil {
		return err
	}
	return l.Wait(seq)
}

// Stage frames a batch — one CRC-framed WAL record holds every op, so
// recovery sees all of them or none — assigns it the next WAL sequence
// and appends the frame to the pending buffer. It does no I/O. The batch
// is neither durable nor visible to reads until Wait(seq) returns nil.
// Frames reach the WAL in Stage order. An empty batch stages nothing and
// returns sequence 0, which Wait treats as already durable.
func (l *LSM) Stage(batch []Op) (uint64, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	entries := make([]kvEntry, len(batch))
	var payload []byte
	for i, op := range batch {
		if op.Key == "" {
			return 0, errors.New("jobstore: empty key")
		}
		entries[i] = kvEntry{key: op.Key, val: op.Value, del: op.Delete}
		payload = appendEntry(payload, entries[i])
	}
	if len(payload) > maxRecordSize {
		return 0, fmt.Errorf("jobstore: batch of %d bytes exceeds the %d byte cap", len(payload), maxRecordSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLSMClosed
	}
	if l.poisoned != nil {
		return 0, l.poisoned
	}
	l.stagedSeq++
	l.stagedBuf = appendFrame(l.stagedBuf, l.stagedSeq, payload)
	l.stagedOps = append(l.stagedOps, entries...)
	return l.stagedSeq, nil
}

// Wait blocks until the frame Stage numbered seq is durable: fsynced
// (unless NoSync) and applied to the memtable. The first waiter to find
// the baton free becomes leader and flushes every frame staged so far —
// its own included — as one group; the others sleep until a group covers
// their sequence. There is no timer and no size limit: a lone frame goes
// out at once, in one fsync. If a group's write or fsync fails, every
// member of the group and every frame staged behind it gets the error,
// and the store stays failed until it is reopened. With OnlineCheckpoint
// set, a full memtable only starts a background flush — Wait never waits
// for one.
func (l *LSM) Wait(seq uint64) error {
	l.mu.Lock()
	for l.walSeq < seq {
		switch {
		case l.poisoned != nil:
			err := l.poisoned
			l.mu.Unlock()
			return err
		case l.closed:
			l.mu.Unlock()
			return errLSMClosed
		case seq > l.stagedSeq:
			l.mu.Unlock()
			return fmt.Errorf("jobstore: sequence %d was never staged", seq)
		case l.baton:
			l.cond.Wait()
		default:
			l.flushStagedLocked()
		}
	}
	if l.mem.bytes < l.cfg.MemtableBytes || l.inflight != nil || l.closed || l.poisoned != nil {
		l.mu.Unlock()
		return nil
	}
	if !l.cfg.OnlineCheckpoint {
		l.mu.Unlock()
		return l.Checkpoint()
	}
	_, kickErr := l.kickCheckpointLocked()
	l.mu.Unlock()
	if kickErr != nil && l.cfg.OnCheckpoint != nil {
		// The batch is committed; a failed checkpoint *start* is a
		// checkpoint failure, reported like a failed flush.
		l.cfg.OnCheckpoint(kickErr)
	}
	return nil
}

// DurableSeq returns the durable watermark: every frame Stage numbered at
// or below it has been fsynced and applied.
func (l *LSM) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walSeq
}

// WALSyncs counts the WAL fsyncs group commit has issued since Open —
// commits divided by it is the mean group size.
func (l *LSM) WALSyncs() uint64 { return l.walSyncs.Load() }

// flushStagedLocked is one leader turn: it takes the baton and the staged
// frames, writes and fsyncs them with mu released, then applies the group
// to the memtable in sequence order and advances the watermark — or, on
// any error, fails the store. Caller holds l.mu, has seen the baton free
// and frames staged; l.mu is held again on return.
func (l *LSM) flushStagedLocked() error {
	l.baton = true
	buf, ops, last := l.stagedBuf, l.stagedOps, l.stagedSeq
	l.stagedBuf, l.stagedOps = nil, nil
	wal := l.wal
	l.mu.Unlock()
	err := tornWrite(wal, buf, FailWALWrite, l.cfg.Fail)
	if err == nil {
		err = l.syncWAL(wal)
	}
	l.mu.Lock()
	l.baton = false
	if err == nil {
		// An injected crash on a background flush while this group was in
		// flight: the process died, the group is not acknowledged.
		err = l.poisoned
	}
	if err != nil {
		l.failLocked(err)
	} else {
		for _, e := range ops {
			l.mem.apply(e)
		}
		l.walSeq = last
	}
	l.cond.Broadcast()
	return err
}

func (l *LSM) syncWAL(wal *os.File) error {
	if err := l.cfg.Fail.fail(FailWALSync); err != nil {
		return err
	}
	if l.cfg.NoSync {
		return nil
	}
	l.walSyncs.Add(1)
	if err := wal.Sync(); err != nil {
		return fmt.Errorf("jobstore: wal fsync: %w", err)
	}
	return nil
}

// failLocked makes the store fail-stop after a WAL write or fsync error:
// the frames still staged can never be acknowledged, so they are dropped
// and their waiters get err. Caller holds l.mu.
func (l *LSM) failLocked(err error) {
	if l.poisoned == nil {
		l.poisoned = err
	}
	l.stagedBuf, l.stagedOps = nil, nil
}

// notePoisonLocked records an injected crash off the commit path (a
// checkpoint flush, a compaction): the simulated process is dead, so
// nothing may be acknowledged after the point of death. Real errors there
// do not poison — the frozen memtable merges back, the old manifest
// stands, and the store keeps serving. Caller holds l.mu.
func (l *LSM) notePoisonLocked(err error) {
	if err != nil && errors.Is(err, ErrInjectedCrash) {
		l.failLocked(err)
		l.cond.Broadcast()
	}
}

// Get returns the newest value for key: memtable first, then the frozen
// checkpoint view, then runs from newest to oldest, with each run's
// Bloom filter short-circuiting definite misses.
func (l *LSM) Get(key string) ([]byte, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range []*memtable{l.mem, l.frozen} {
		if m == nil {
			continue
		}
		if e, ok := m.get(key); ok {
			if e.del {
				return nil, false, nil
			}
			return append([]byte(nil), e.val...), true, nil
		}
	}
	for i := len(l.runs) - 1; i >= 0; i-- {
		e, ok, err := l.runs[i].get(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if e.del {
				return nil, false, nil
			}
			return append([]byte(nil), e.val...), true, nil
		}
	}
	return nil, false, nil
}

// Scan streams live entries with lo <= key < hi (hi == "" means no
// upper bound) in ascending key order, merging the memtable, the frozen
// checkpoint view and every run with newest-wins shadowing; tombstoned
// keys are skipped. fn returning false stops the scan. fn must not call
// back into the store.
func (l *LSM) Scan(lo, hi string, fn func(key string, value []byte) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanLocked(lo, hi, fn)
}

func (l *LSM) scanLocked(lo, hi string, fn func(key string, value []byte) bool) error {
	// Sources in priority order: the memtable shadows the frozen view,
	// which shadows the runs; newer runs shadow older ones.
	type source struct {
		entries []kvEntry // memtable source
		pos     int
		it      *runIterator // run source
		cur     kvEntry
		ok      bool
	}
	var sources []*source
	for _, m := range []*memtable{l.mem, l.frozen} {
		if m == nil {
			continue
		}
		s := &source{}
		for _, e := range m.sorted() {
			if e.key >= lo {
				s.entries = append(s.entries, e)
			}
		}
		s.ok = len(s.entries) > 0
		if s.ok {
			s.cur = s.entries[0]
			s.pos = 1
		}
		sources = append(sources, s)
	}
	for i := len(l.runs) - 1; i >= 0; i-- {
		it := l.runs[i].iterator(lo)
		s := &source{it: it}
		s.cur, s.ok = it.next()
		if it.err != nil {
			return it.err
		}
		sources = append(sources, s)
	}
	advance := func(s *source) error {
		if s.it == nil {
			if s.pos < len(s.entries) {
				s.cur = s.entries[s.pos]
				s.pos++
			} else {
				s.ok = false
			}
			return nil
		}
		s.cur, s.ok = s.it.next()
		return s.it.err
	}
	for {
		// Minimum key among live sources.
		minKey := ""
		found := false
		for _, s := range sources {
			if s.ok && (!found || s.cur.key < minKey) {
				minKey = s.cur.key
				found = true
			}
		}
		if !found || (hi != "" && minKey >= hi) {
			return nil
		}
		// Highest-priority source holding minKey wins; every source at
		// minKey advances.
		var winner kvEntry
		taken := false
		for _, s := range sources {
			if s.ok && s.cur.key == minKey {
				if !taken {
					winner = s.cur
					taken = true
				}
				if err := advance(s); err != nil {
					return err
				}
			}
		}
		if !winner.del {
			if !fn(winner.key, append([]byte(nil), winner.val...)) {
				return nil
			}
		}
	}
}

// openNextSegment creates WAL segment id and makes its directory entry
// durable — it must be, before any acknowledged write lands in the file.
func (l *LSM) openNextSegment(id uint64) (*os.File, error) {
	if err := l.cfg.Fail.fail(FailWALRotate); err != nil {
		return nil, err
	}
	path := filepath.Join(l.dir, segmentFileName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: wal rotate: %w", err)
	}
	if err := l.syncDirFP(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// startCheckpointLocked freezes the memtable behind an immutable view
// and rotates the WAL segment — the only checkpoint work the commit path
// ever sees. It takes the leader baton, so no group is mid-write on the
// old segment and the watermark stands still, and releases l.mu while the
// new segment is created: Stage keeps accepting frames, which the next
// leader writes to the new segment. It returns the flush job to run, or
// nil when there is nothing to do (empty memtable, or a checkpoint
// already in flight). Caller holds l.mu, which is held again on return.
func (l *LSM) startCheckpointLocked() (*ckptJob, error) {
	for l.baton {
		l.cond.Wait()
	}
	switch {
	case l.closed:
		return nil, errLSMClosed
	case l.poisoned != nil:
		return nil, l.poisoned
	case l.inflight != nil || l.mem.len() == 0:
		return nil, nil
	}
	l.baton = true
	id := l.walID + 1
	l.mu.Unlock()
	f, err := l.openNextSegment(id)
	l.mu.Lock()
	l.baton = false
	defer l.cond.Broadcast()
	if err != nil {
		l.notePoisonLocked(err)
		return nil, err
	}
	l.oldSegs = append(l.oldSegs, walSegment{id: l.walID, maxSeq: l.walSeq})
	l.wal.Close()
	l.wal = f
	l.walID = id
	job := &ckptJob{done: make(chan struct{})}
	l.frozen = l.mem
	l.frozenSeq = l.walSeq
	l.mem = newMemtable()
	l.inflight = job
	return job, nil
}

// kickCheckpointLocked starts a background checkpoint flush, reporting
// started=false when there is nothing to flush or one is already in
// flight. An error means the checkpoint failed to start; commits are
// unaffected. Caller holds l.mu.
func (l *LSM) kickCheckpointLocked() (started bool, err error) {
	job, err := l.startCheckpointLocked()
	if job == nil {
		return false, err
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.flush(job)
	}()
	return true, nil
}

// Checkpoint flushes the memtable into a new sorted run, installs a
// manifest covering every committed write, and deletes the covered WAL
// segments — after which recovery boots from the run stack plus an
// empty tail. The flush runs inline: Checkpoint returns once the
// checkpoint (or a concurrent one it waited for) is durable. Compaction
// runs when the stack is past MaxRuns.
func (l *LSM) Checkpoint() error {
	for {
		l.mu.Lock()
		if cur := l.inflight; cur != nil && !l.closed && l.poisoned == nil {
			l.mu.Unlock()
			<-cur.done
			if cur.err != nil {
				return cur.err
			}
			continue
		}
		job, err := l.startCheckpointLocked()
		if job != nil || err != nil {
			l.mu.Unlock()
			if err != nil {
				return err
			}
			l.flush(job)
			return job.err
		}
		if l.inflight != nil {
			// Another checkpoint started while this one waited for the
			// baton; go round and wait for it.
			l.mu.Unlock()
			continue
		}
		needCompact := len(l.runs) > l.cfg.MaxRuns
		if needCompact && l.cfg.BackgroundCompaction {
			l.kickCompaction()
			needCompact = false
		}
		l.mu.Unlock()
		if needCompact {
			return l.Compact()
		}
		return nil
	}
}

// CheckpointAsync starts an online checkpoint flush in the background,
// reporting started=false when there is nothing to flush or one is
// already in flight. The flush's outcome is delivered through
// LSMConfig.OnCheckpoint; an error here means the checkpoint could not
// even start (its freeze or WAL rotation failed).
func (l *LSM) CheckpointAsync() (started bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kickCheckpointLocked()
}

// Quiesce blocks until no checkpoint flush is in flight. New
// checkpoints may start as soon as it returns; Close performs its own
// drain.
func (l *LSM) Quiesce() {
	for {
		l.mu.Lock()
		cur := l.inflight
		l.mu.Unlock()
		if cur == nil {
			return
		}
		<-cur.done
	}
}

// flush runs one checkpoint job to completion and reports its outcome
// to the configured callback. It may run inline (Checkpoint) or on a
// background goroutine (CheckpointAsync, a full memtable under
// OnlineCheckpoint).
func (l *LSM) flush(job *ckptJob) {
	l.maintMu.Lock()
	err := l.flushFrozen()
	l.maintMu.Unlock()
	job.err = err
	close(job.done)
	if l.cfg.OnCheckpoint != nil {
		l.cfg.OnCheckpoint(err)
	}
}

// flushFrozen writes the frozen memtable into a run, installs the
// manifest and deletes the covered WAL segments. On failure the frozen
// entries merge back into the live memtable (newer writes win) so
// nothing committed is lost and a later checkpoint retries. Caller
// holds maintMu only: the commit path stays open for the whole flush.
func (l *LSM) flushFrozen() error {
	l.mu.Lock()
	entries := l.frozen.sorted()
	frozenSeq := l.frozenSeq
	id := l.manifest.NextRun
	baseRuns := append([]uint64(nil), l.manifest.Runs...)
	l.mu.Unlock()

	abort := func(err error) error {
		l.mu.Lock()
		for k, e := range l.frozen.entries {
			if _, shadowed := l.mem.entries[k]; !shadowed {
				l.mem.apply(e)
			}
		}
		l.frozen = nil
		l.inflight = nil
		l.notePoisonLocked(err)
		l.mu.Unlock()
		return err
	}

	if err := l.writeRunFile(id, entries); err != nil {
		return abort(err)
	}
	next := lsmManifest{Runs: append(baseRuns, id), WalSeq: frozenSeq, NextRun: id + 1}
	r, err := l.installManifest(next, id)
	if err != nil {
		return abort(err)
	}

	l.mu.Lock()
	if l.closed {
		// Close ran while this inline flush was between manifest
		// install and bookkeeping. The checkpoint is durable on disk —
		// recovery picks it up — but the in-memory handle is dead.
		l.frozen = nil
		l.inflight = nil
		l.mu.Unlock()
		r.close()
		return nil
	}
	l.runs = append(l.runs, r)
	l.manifest = next
	l.frozen = nil
	l.inflight = nil
	var covered []uint64
	keep := l.oldSegs[:0]
	for _, seg := range l.oldSegs {
		if seg.maxSeq <= frozenSeq {
			covered = append(covered, seg.id)
		} else {
			keep = append(keep, seg)
		}
	}
	l.oldSegs = keep
	needCompact := len(l.runs) > l.cfg.MaxRuns
	l.mu.Unlock()

	// The checkpoint is installed; segment deletion is the WAL-trim
	// half. A failure here leaves covered segments behind, which the
	// next boot (or checkpoint) removes.
	if err := l.cfg.Fail.fail(FailWALTruncate); err != nil {
		l.mu.Lock()
		l.notePoisonLocked(err)
		l.mu.Unlock()
		return err
	}
	for _, sid := range covered {
		os.Remove(filepath.Join(l.dir, segmentFileName(sid)))
	}
	if needCompact {
		l.mu.Lock()
		if l.cfg.BackgroundCompaction {
			l.kickCompaction()
			l.mu.Unlock()
			return nil
		}
		err := l.compactLocked()
		l.notePoisonLocked(err)
		l.mu.Unlock()
		return err
	}
	return nil
}

// writeRunFile writes entries into run-<id>.run via the temp file +
// fsync + rename + dirsync protocol, every step failpoint-guarded.
func (l *LSM) writeRunFile(id uint64, entries []kvEntry) error {
	tmp := filepath.Join(l.dir, runTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: run: %w", err)
	}
	if _, err := writeRun(f, entries, l.cfg.BlockSize, l.cfg.Fail); err != nil {
		f.Close()
		return err
	}
	if err := l.cfg.Fail.fail(FailRunSync); err != nil {
		f.Close()
		return err
	}
	if !l.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("jobstore: run fsync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobstore: run: %w", err)
	}
	if err := l.cfg.Fail.fail(FailRunRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, runFileName(id))); err != nil {
		return fmt.Errorf("jobstore: run install: %w", err)
	}
	return l.syncDirFP()
}

// installManifest durably replaces the MANIFEST and opens the freshly
// installed run newID (when nonzero it must be in next.Runs).
func (l *LSM) installManifest(next lsmManifest, newID uint64) (*runReader, error) {
	payload, err := json.Marshal(next)
	if err != nil {
		return nil, fmt.Errorf("jobstore: encoding manifest: %w", err)
	}
	tmp := filepath.Join(l.dir, manifestTmpName)
	if err := l.cfg.Fail.fail(FailManifestWrite); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: manifest: %w", err)
	}
	if _, err := f.Write(frame(next.WalSeq, payload)); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobstore: manifest: %w", err)
	}
	if err := l.cfg.Fail.fail(FailManifestSync); err != nil {
		f.Close()
		return nil, err
	}
	if !l.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobstore: manifest fsync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("jobstore: manifest: %w", err)
	}
	// The new run must be readable before the manifest points at it: a
	// failed open here aborts the install with the old manifest intact.
	var r *runReader
	if newID != 0 {
		r, err = openRun(filepath.Join(l.dir, runFileName(newID)))
		if err != nil {
			return nil, err
		}
	}
	if err := l.cfg.Fail.fail(FailManifestRename); err != nil {
		if r != nil {
			r.close()
		}
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, manifestName)); err != nil {
		if r != nil {
			r.close()
		}
		return nil, fmt.Errorf("jobstore: manifest install: %w", err)
	}
	if err := l.syncDirFP(); err != nil {
		if r != nil {
			r.close()
		}
		return nil, err
	}
	return r, nil
}

func (l *LSM) syncDirFP() error {
	if err := l.cfg.Fail.fail(FailDirSync); err != nil {
		return err
	}
	if l.cfg.NoSync {
		return nil
	}
	return syncDir(l.dir)
}

// kickCompaction starts one background compaction if none is running.
// The caller holds l.mu.
func (l *LSM) kickCompaction() {
	if l.compacting {
		return
	}
	l.compacting = true
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer func() {
			l.mu.Lock()
			l.compacting = false
			l.mu.Unlock()
		}()
		l.Compact()
	}()
}

// Compact merges the whole run stack into a single run, dropping
// tombstones (the output is the bottom level), and installs a manifest
// pointing at it. The memtable and WAL are untouched: the watermark
// does not move.
func (l *LSM) Compact() error {
	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLSMClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	err := l.compactLocked()
	l.notePoisonLocked(err)
	return err
}

func (l *LSM) compactLocked() error {
	if len(l.runs) <= 1 {
		return nil
	}
	// Merge runs only (newest wins), keeping no tombstones: anything
	// deleted is gone from the bottom level.
	merged, err := l.mergeRuns()
	if err != nil {
		return err
	}
	id := l.manifest.NextRun
	if err := l.writeRunFile(id, merged); err != nil {
		return err
	}
	next := lsmManifest{Runs: []uint64{id}, WalSeq: l.manifest.WalSeq, NextRun: id + 1}
	r, err := l.installManifest(next, id)
	if err != nil {
		return err
	}
	old := l.runs
	oldIDs := l.manifest.Runs
	l.runs = []*runReader{r}
	l.manifest = next
	// The old runs are garbage now; removal failures are harmless —
	// recovery deletes orphans.
	for _, or := range old {
		or.close()
	}
	for _, oid := range oldIDs {
		os.Remove(filepath.Join(l.dir, runFileName(oid)))
	}
	return nil
}

// mergeRuns k-way merges every run, newest-wins, dropping tombstones.
// Each round emits the minimum key left, so the output is ascending.
func (l *LSM) mergeRuns() ([]kvEntry, error) {
	var out []kvEntry
	type src struct {
		it  *runIterator
		cur kvEntry
		ok  bool
	}
	// Priority order: newest run first.
	var sources []*src
	for i := len(l.runs) - 1; i >= 0; i-- {
		it := l.runs[i].iterator("")
		s := &src{it: it}
		s.cur, s.ok = it.next()
		if it.err != nil {
			return nil, it.err
		}
		sources = append(sources, s)
	}
	for {
		minKey := ""
		found := false
		for _, s := range sources {
			if s.ok && (!found || s.cur.key < minKey) {
				minKey = s.cur.key
				found = true
			}
		}
		if !found {
			return out, nil
		}
		taken := false
		for _, s := range sources {
			if s.ok && s.cur.key == minKey {
				if !taken {
					if !s.cur.del {
						out = append(out, s.cur)
					}
					taken = true
				}
				s.cur, s.ok = s.it.next()
				if s.it.err != nil {
					return nil, s.it.err
				}
			}
		}
	}
}

// Close flushes every staged frame (Close leaves nothing staged: a frame
// nobody waited for, such as an advisory write, still reaches disk),
// drains in-flight checkpoint flushes and compactions, then releases the
// WAL handle, run readers and the store lock. Mutations fail after
// Close. Close is idempotent.
func (l *LSM) Close() error {
	var first error
	l.mu.Lock()
	for {
		if l.closed {
			l.mu.Unlock()
			return nil
		}
		if l.baton {
			l.cond.Wait()
			continue
		}
		if len(l.stagedBuf) == 0 || l.poisoned != nil {
			break
		}
		first = l.flushStagedLocked()
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	// No locks held while draining: a background flush needs both
	// maintMu and mu to finish.
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.runs {
		if err := r.close(); err != nil && first == nil {
			first = err
		}
	}
	if l.wal != nil {
		if err := l.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if l.lockf != nil {
		l.lockf.Close()
	}
	return first
}
