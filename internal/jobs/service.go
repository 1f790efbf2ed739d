// Durable job service: a Manager whose every lifecycle change is
// committed to the jobstore LSM before it is acknowledged, so a killed
// server boots from the store's checkpoint and WAL tail, requeues the
// jobs it was running and never re-runs a finished one.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"cdas/internal/jobstore"
	"cdas/internal/metrics"
)

// EngineLSM names the storage engine in ServiceConfig.Engine.
//
// Deprecated: LSM is the only engine.
const EngineLSM = "lsm"

// ErrServiceClosed is returned by every mutation after Close.
var ErrServiceClosed = errors.New("jobs: service is closed")

// ServiceConfig tunes OpenService. The zero value is a volatile
// (memory-only) service with default retry and compaction settings.
type ServiceConfig struct {
	// Dir roots the store's files: an LSM tree holding each job's
	// current record under a primary key plus (state, priority, tenant)
	// secondary indexes, booted from the newest checkpoint + WAL tail.
	// Empty disables persistence: the service still runs the full
	// lifecycle, in memory only. A directory or record in a retired
	// layout is refused with jobstore.ErrRetiredFormat.
	Dir string
	// Engine is empty or EngineLSM; OpenService refuses any other value.
	//
	// Deprecated: LSM is the only engine.
	Engine string
	// MaxAttempts bounds the retry loop (default DefaultMaxAttempts).
	MaxAttempts int
	// SnapshotEvery cuts a store checkpoint after this many committed
	// events (default 256; negative disables checkpoints).
	SnapshotEvery int
	// Counters, when set, receives lifecycle and WAL counters.
	Counters *metrics.Registry
	// StoreFail injects storage failpoints — the crash-equivalence
	// tests' hook. Leave nil in production.
	StoreFail jobstore.FailFunc
	// Logf, when set, receives operational log lines (checkpoint
	// failures and the like). Nil discards them.
	Logf func(format string, args ...any)
}

// Service is the durable job lifecycle service. It is safe for
// concurrent use.
//
// Every mutation commits in two steps (README, "Commit protocol"). Under
// mu it applies the state-machine transition, encodes the event and
// stages it with the store — a sequence number is assigned, nothing is
// written. Then it releases mu and waits for that sequence to be durable;
// the store writes whatever was staged meanwhile as one group with one
// fsync. A mutator returns nil only after its own frame is fsynced.
type Service struct {
	cfg ServiceConfig
	m   *Manager

	// mu serialises state mutation with staging, so the store's event order
	// always matches the order the state machine applied them in. It is
	// never held across store I/O on the commit path.
	mu      sync.Mutex
	lsm     *jobstore.LSM // the store (nil when volatile); immutable after open
	events  int           // staged events since the last checkpoint was cut
	closed  bool
	wake    chan struct{}
	resumed []string
	budget  BudgetState
	streams map[string]StreamMark

	// pending is the undo log of transitions applied in memory but not
	// yet known durable, in staging order; newest maps each record with a
	// pending transition to its latest staged sequence, which is what a
	// read of that record waits for. Both shrink as the store's durable
	// watermark passes (settleLocked), so neither outlives a commit.
	pending []stagedTx
	newest  map[recordKey]uint64
	// syncsSeen is the store's fsync count already added to wal_fsyncs.
	syncsSeen uint64
}

// recordKey names one durable record: a job's lifecycle record, a job's
// stream mark, or (the zero name under nsBudget) the budget ledger.
type recordKey struct {
	ns   byte
	name string
}

const (
	nsJob byte = iota
	nsStream
	nsBudget
)

// stagedTx is one undo-log entry: the sequence the store assigned the
// transition, the record it touched, and how to take it back out of
// memory. undo restores the state captured just before the transition,
// so undoing a suffix of the log newest-first is exact.
type stagedTx struct {
	seq  uint64
	key  recordKey
	undo func()
}

// LSM keyspace. The primary record lives under "j/<name>"; secondary
// index entries are empty values whose keys order the scan:
//
//	j/<name>                      → walStatus, binary (record.go)
//	b                             → {"global_spent":…} (ledger total)
//	b/<job>                       → that job's spend, a JSON number
//	xs/<state>/<seq>/<name>       state index, FIFO order within a state
//	xp/<priority>/<name>          priority index (admission order)
//	xt/<tenant>/<name>            tenant index
//
// seq and priority are fixed-width big-endian hex so byte order equals
// numeric order; priority is offset-encoded to order negatives first.
//
// The ledger is one record per line so that a charge writes two small
// values whatever the number of jobs ever charged. Both are stored in
// shortest round-trip form and the total is never re-summed, so a
// reopened ledger is bit-equal. A "b" that still carries the jobs map
// is the retired whole-ledger layout, which boot refuses.
const (
	lsmPrimaryPrefix = "j/"
	lsmBudgetKey     = "b"
	lsmBudgetPrefix  = "b/"
	lsmStatePrefix   = "xs/"
	lsmPrioPrefix    = "xp/"
	lsmTenantPrefix  = "xt/"
	// lsmStreamPrefix holds continuous jobs' stream marks: sm/<name> →
	// streamRecord JSON (the window high-water mark plus cumulative
	// stream accounting, committed at each window close).
	lsmStreamPrefix = "sm/"
)

func lsmPrimaryKey(name string) string { return lsmPrimaryPrefix + name }

func lsmStreamKey(name string) string { return lsmStreamPrefix + name }

func lsmStateKey(state State, seq uint64, name string) string {
	return fmt.Sprintf("%s%s/%016x/%s", lsmStatePrefix, state, seq, name)
}

func lsmPrioKey(priority int, name string) string {
	return fmt.Sprintf("%s%016x/%s", lsmPrioPrefix, uint64(int64(priority))+(1<<63), name)
}

func lsmTenantKey(tenant, name string) string {
	return lsmTenantPrefix + tenant + "/" + name
}

// prefixEnd is the smallest key greater than every key with the given
// prefix — the exclusive upper bound for a prefix range-read.
func prefixEnd(prefix string) string {
	return prefix[:len(prefix)-1] + string(prefix[len(prefix)-1]+1)
}

// BudgetState is the durable crowd-budget ledger the scheduler's
// accounting is persisted through: global spend plus per-job spend,
// committed so a restarted server keeps charging from where the dead
// one stopped rather than re-granting spent money.
type BudgetState struct {
	// GlobalSpent is the total crowd spend across every job.
	GlobalSpent float64 `json:"global_spent"`
	// Jobs maps job name to its spend so far.
	Jobs map[string]float64 `json:"jobs,omitempty"`
}

// clone deep-copies the state so callers never alias the live map.
func (b BudgetState) clone() BudgetState {
	out := BudgetState{GlobalSpent: b.GlobalSpent}
	if len(b.Jobs) > 0 {
		out.Jobs = make(map[string]float64, len(b.Jobs))
		for k, v := range b.Jobs {
			out.Jobs[k] = v
		}
	}
	return out
}

// budgetOps appends b's ledger records to batch: a b/<job> line for each
// entry of b.Jobs, in name order, and the total under "b". A charge passes
// the one line it moved with the new total. Values are finite
// (ChargeBudget refuses the rest), so each is a JSON number that parses
// back to the same bits.
func budgetOps(batch []jobstore.Op, b BudgetState) []jobstore.Op {
	names := make([]string, 0, len(b.Jobs))
	for name := range b.Jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		batch = append(batch, jobstore.Op{
			Key:   lsmBudgetPrefix + name,
			Value: strconv.AppendFloat(nil, b.Jobs[name], 'g', -1, 64),
		})
	}
	total := strconv.AppendFloat([]byte(`{"global_spent":`), b.GlobalSpent, 'g', -1, 64)
	return append(batch, jobstore.Op{Key: lsmBudgetKey, Value: append(total, '}')})
}

// loadLSMBudget reads the ledger back: the total from "b", the lines from
// a range-read of b/.
func loadLSMBudget(lsm *jobstore.LSM) (b BudgetState, err error) {
	raw, ok, err := lsm.Get(lsmBudgetKey)
	if err != nil || !ok {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("jobs: decoding budget record: %w", err)
	}
	if b.Jobs != nil {
		return b, fmt.Errorf("jobs: budget record %q: %w", lsmBudgetKey, jobstore.RetiredFormat("the whole ledger with its jobs map, written before per-job b/ lines"))
	}
	var decodeErr error
	err = lsm.Scan(lsmBudgetPrefix, prefixEnd(lsmBudgetPrefix), func(key string, val []byte) bool {
		var spent float64
		if spent, decodeErr = strconv.ParseFloat(string(val), 64); decodeErr != nil {
			decodeErr = fmt.Errorf("jobs: decoding budget line %q: %w", key, decodeErr)
			return false
		}
		if b.Jobs == nil {
			b.Jobs = make(map[string]float64)
		}
		b.Jobs[key[len(lsmBudgetPrefix):]] = spent
		return true
	})
	if err == nil {
		err = decodeErr
	}
	return b, err
}

// loadLSMState reads a store back: every job's primary record restored
// into m, the budget ledger and the stream marks.
func loadLSMState(lsm *jobstore.LSM, m *Manager) (budget BudgetState, streams map[string]StreamMark, err error) {
	if budget, err = loadLSMBudget(lsm); err != nil {
		return budget, nil, err
	}
	streams = map[string]StreamMark{}
	var decodeErr error
	err = lsm.Scan(lsmStreamPrefix, prefixEnd(lsmStreamPrefix), func(key string, val []byte) bool {
		var sr streamRecord
		if decodeErr = json.Unmarshal(val, &sr); decodeErr != nil {
			decodeErr = fmt.Errorf("jobs: decoding stream mark %q: %w", key, decodeErr)
			return false
		}
		streams[sr.Job] = sr.Mark
		return true
	})
	if err == nil && decodeErr == nil {
		err = lsm.Scan(lsmPrimaryPrefix, prefixEnd(lsmPrimaryPrefix), func(key string, val []byte) bool {
			var ws walStatus
			if decodeErr = decodeRecord(val, &ws); decodeErr != nil {
				decodeErr = fmt.Errorf("jobs: decoding job record %q: %w", key, decodeErr)
				return false
			}
			m.restore(fromWal(ws))
			return true
		})
	}
	if err == nil {
		err = decodeErr
	}
	return budget, streams, err
}

// StreamMark is a continuous job's durable stream position: the highest
// event-time window already closed plus the cumulative accounting up to
// and including it. It is committed like any other transition (same
// store path, fsync on commit), so a kill -9 resumes the stream at the
// next window without re-charging the closed ones.
type StreamMark struct {
	// Window is the highest closed window index; -1 before any close.
	Window int `json:"window"`
	// Spent is the crowd spend across closed windows.
	Spent float64 `json:"spent"`
	// Seen / Matched / Dropped / Degraded are cumulative item counts
	// over the closed windows (degrade-ladder accounting included).
	Seen     int64 `json:"seen"`
	Matched  int64 `json:"matched"`
	Dropped  int64 `json:"dropped"`
	Degraded int64 `json:"degraded"`
	// Enum is an enumeration job's durable result set; nil for
	// continuous jobs, so their mark records are wire-unchanged.
	Enum *EnumProgress `json:"enum,omitempty"`
}

// EnumProgress is an enumeration job's durable result-set snapshot,
// committed inside its StreamMark: everything needed to rebuild the
// dedup set, the frequency-of-frequencies and the stop state after a
// kill -9, without replaying any crowd work. For an enumeration job
// the surrounding mark is reinterpreted: Window is the last completed
// HIT batch index, Seen the cumulative contributions, Matched the
// distinct items discovered.
type EnumProgress struct {
	// Counts maps canonical item key -> times contributed.
	Counts map[string]int `json:"counts,omitempty"`
	// Display maps canonical item key -> normalised display text.
	Display map[string]string `json:"display,omitempty"`
	// FirstBatch maps canonical item key -> batch that discovered it.
	FirstBatch map[string]int `json:"first_batch,omitempty"`
	// Contributions is the total contribution count (with repeats).
	Contributions int64 `json:"contributions,omitempty"`
	// Stopped records why the job stopped buying batches, empty while
	// it is still collecting ("marginal_value", "target_coverage",
	// "max_batches" or "source_exhausted").
	Stopped string `json:"stopped,omitempty"`
}

// clone deep-copies the mark so callers never alias the stored maps.
func (m StreamMark) clone() StreamMark {
	if m.Enum == nil {
		return m
	}
	e := &EnumProgress{Contributions: m.Enum.Contributions, Stopped: m.Enum.Stopped}
	if len(m.Enum.Counts) > 0 {
		e.Counts = make(map[string]int, len(m.Enum.Counts))
		for k, v := range m.Enum.Counts {
			e.Counts[k] = v
		}
	}
	if len(m.Enum.Display) > 0 {
		e.Display = make(map[string]string, len(m.Enum.Display))
		for k, v := range m.Enum.Display {
			e.Display[k] = v
		}
	}
	if len(m.Enum.FirstBatch) > 0 {
		e.FirstBatch = make(map[string]int, len(m.Enum.FirstBatch))
		for k, v := range m.Enum.FirstBatch {
			e.FirstBatch[k] = v
		}
	}
	m.Enum = e
	return m
}

// streamRecord pairs a job name with its mark, as stored under sm/<name>.
type streamRecord struct {
	Job  string     `json:"job"`
	Mark StreamMark `json:"mark"`
}

// walStatus is a job lifecycle record: Status plus the FIFO sequence.
// Under j/<name> it is stored in the binary format of record.go. The
// JSON tags are the reference the binary codec is tested against
// (TestRecordMatchesJSONRoundTrip).
type walStatus struct {
	Job      Job     `json:"job"`
	State    State   `json:"state"`
	Attempts int     `json:"attempts"`
	Progress float64 `json:"progress"`
	Cost     float64 `json:"cost"`
	Error    string  `json:"error,omitempty"`
	Seq      uint64  `json:"seq"`
}

// walEvent is one committed transition, which lsmBatch turns into the
// store's atomic batch. Lifecycle events ("submit", "update") carry the
// full post-transition record of the job they concern; a "charge" event
// carries the post-charge total and the one ledger line the charge moved;
// a "stream" event carries the mark. All are absolute values, so applying
// one twice is a plain overwrite.
type walEvent struct {
	Op     string // "submit", "update", "charge" or "stream"
	Status walStatus
	Budget *BudgetState
	Stream *streamRecord
}

func toWal(st Status) walStatus {
	return walStatus{
		Job:      st.Job,
		State:    st.State,
		Attempts: st.Attempts,
		Progress: st.Progress,
		Cost:     st.Cost,
		Error:    st.Error,
		Seq:      st.seq,
	}
}

func fromWal(ws walStatus) Status {
	return Status{
		Job:      ws.Job,
		State:    ws.State,
		Attempts: ws.Attempts,
		Progress: ws.Progress,
		Cost:     ws.Cost,
		Error:    ws.Error,
		seq:      ws.Seq,
	}
}

// OpenService opens (or creates) the durable service: it boots the LSM
// store under cfg.Dir, then requeues every job the previous process
// left Running — those are exactly the jobs a crash or shutdown
// interrupted mid-flight.
func OpenService(cfg ServiceConfig) (*Service, error) {
	if cfg.Engine != "" && cfg.Engine != EngineLSM {
		return nil, fmt.Errorf("jobs: unknown storage engine %q: LSM is the only engine", cfg.Engine)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 256
	}
	s := &Service{
		cfg:     cfg,
		m:       NewManager(),
		wake:    make(chan struct{}, 1),
		newest:  make(map[recordKey]uint64),
		streams: make(map[string]StreamMark),
	}
	s.m.SetMaxAttempts(cfg.MaxAttempts)
	if cfg.Dir == "" {
		return s, nil
	}
	return openLSMService(s)
}

// requeueInterrupted is the resume step of boot: the named jobs, which
// the dead process had claimed, go back to Pending so a dispatcher can
// pick them up again. Every requeue is staged, then one wait makes them
// all durable.
func (s *Service) requeueInterrupted(names []string) error {
	for _, name := range names {
		err := s.transition(name, false, func() (Status, error) { return s.m.Requeue(name) })
		if err != nil {
			return err
		}
		s.resumed = append(s.resumed, name)
		s.cfg.Counters.Inc(metrics.CounterJobsResumed)
	}
	return s.flush()
}

// openLSMService finishes OpenService: boot from the newest checkpoint
// plus the WAL tail, restore every job's current record from the
// primary keyspace, then requeue the jobs the dead process was running
// — found by a range-read of the state index, and cross-checked against
// the primary records (the two are committed in one atomic batch, so
// any disagreement is an engine bug worth failing the boot over).
func openLSMService(s *Service) (*Service, error) {
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{
		Dir:  s.cfg.Dir,
		Fail: s.cfg.StoreFail,
		// Checkpoints cut off the commit path: lsmCommit only freezes
		// the memtable and rotates the WAL segment; the flush runs in
		// the background and reports through onCheckpoint.
		OnlineCheckpoint: true,
		OnCheckpoint:     s.onCheckpoint,
	})
	if err != nil {
		return nil, err
	}
	s.lsm = lsm
	fail := func(err error) (*Service, error) {
		lsm.Close()
		return nil, err
	}
	if s.budget, s.streams, err = loadLSMState(lsm, s.m); err != nil {
		return fail(err)
	}
	// Resume via the state index: every xs/running entry names a job a
	// crash or shutdown interrupted mid-flight.
	runningPrefix := lsmStatePrefix + string(StateRunning) + "/"
	var running []string
	// The name starts after the fixed-width 16-hex seq and its slash;
	// splitting on the last '/' instead would truncate names that
	// themselves contain one.
	nameAt := len(runningPrefix) + 17
	err = lsm.Scan(runningPrefix, prefixEnd(runningPrefix), func(key string, _ []byte) bool {
		if len(key) > nameAt {
			running = append(running, key[nameAt:])
		}
		return true
	})
	if err != nil {
		return fail(err)
	}
	for _, name := range running {
		if st, ok := s.m.Status(name); !ok || st.State != StateRunning {
			return fail(fmt.Errorf("jobs: state index lists %q as running but the primary record disagrees", name))
		}
	}
	if err := s.requeueInterrupted(running); err != nil {
		return fail(err)
	}
	return s, nil
}

// Resumed lists the jobs OpenService moved from Running back to
// Pending — the unfinished work recovered from the store.
func (s *Service) Resumed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.resumed...)
}

// Wake returns a channel that receives a token whenever new Pending
// work may exist; dispatcher workers select on it instead of busy
// polling.
func (s *Service) Wake() <-chan struct{} { return s.wake }

func (s *Service) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// staging is what a mutator's apply step hands to commit: the record it
// touched, the event to log, the job's state before the transition (""
// for a new submission and for non-lifecycle events; lsmBatch uses it
// to re-file the state index entry in the same atomic batch) and the
// undo that takes the transition back out of memory.
type staging struct {
	key       recordKey
	ev        walEvent
	prevState State
	undo      func()
}

// commit is the one way a mutation reaches the store. Under s.mu, apply
// runs the state-machine transition and the event is staged: the store
// assigns it the next sequence and buffers it, with no I/O. commit then
// releases s.mu and, when wait is set, blocks until that sequence is
// fsynced — along with whatever else was staged meanwhile, as one group.
// If staging fails the transition is undone on the spot; if the group
// later fails, every transition not yet durable is undone (settleLocked),
// so memory never acknowledges more than disk. Advisory events pass
// wait=false: they are staged in order, flushed by the next group (or by
// Close) and never waited for.
func (s *Service) commit(wait bool, apply func() (staging, error)) error {
	s.mu.Lock()
	tx, err := apply()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	seq, cut, err := s.stageLocked(tx.ev, tx.prevState)
	if err != nil {
		tx.undo()
		s.mu.Unlock()
		return err
	}
	if seq != 0 {
		s.pending = append(s.pending, stagedTx{seq: seq, key: tx.key, undo: tx.undo})
		s.newest[tx.key] = seq
	}
	s.mu.Unlock()
	if wait && seq != 0 {
		err = s.await(seq)
	}
	if err == nil && cut {
		s.cutCheckpoint()
	}
	return err
}

// stageLocked encodes ev and stages it with the store (seq 0 when the
// service is volatile). It is the single choke point for lifecycle,
// budget and stream records alike, so every event kind counts toward
// the checkpoint policy; cut reports that a checkpoint is due. Callers
// hold s.mu.
func (s *Service) stageLocked(ev walEvent, prevState State) (seq uint64, cut bool, err error) {
	if s.closed {
		return 0, false, ErrServiceClosed
	}
	if s.lsm == nil {
		return 0, false, nil
	}
	batch, err := lsmBatch(ev, prevState)
	if err != nil {
		return 0, false, err
	}
	if seq, err = s.lsm.Stage(batch); err != nil {
		return 0, false, err
	}
	s.events++
	if s.cfg.SnapshotEvery > 0 && s.events >= s.cfg.SnapshotEvery {
		s.events = 0
		cut = true
	}
	return seq, cut, nil
}

// await blocks until the store has made seq durable — leading the group
// flush if no one else is — and then settles the undo log. Callers do
// not hold s.mu.
func (s *Service) await(seq uint64) error {
	err := s.lsm.Wait(seq)
	s.settle(err != nil)
	return err
}

// settle trims the undo log up to the store's durable watermark, read
// before taking s.mu so the store's lock is never taken under it here: a
// stale reading only trims less, and after a failure the watermark no
// longer moves. With failed set, everything past the watermark is undone.
func (s *Service) settle(failed bool) {
	var durable, syncs uint64
	if s.lsm != nil {
		durable, syncs = s.lsm.DurableSeq(), s.lsm.WALSyncs()
	}
	s.mu.Lock()
	s.settleLocked(durable, syncs, failed)
	s.mu.Unlock()
}

// flush waits for everything staged so far.
func (s *Service) flush() error {
	s.mu.Lock()
	seq := s.lastStagedLocked()
	s.mu.Unlock()
	if seq == 0 {
		return nil
	}
	return s.await(seq)
}

// lastStagedLocked is the newest sequence still in the undo log (0 when
// everything is durable). Callers hold s.mu.
func (s *Service) lastStagedLocked() uint64 {
	if len(s.pending) == 0 {
		return 0
	}
	return s.pending[len(s.pending)-1].seq
}

// settleLocked drops the undo-log prefix the durable watermark has
// passed, counting those events as committed (and the store's fsyncs so
// far into wal_fsyncs). With failed set the store has failed (it stays
// failed until reopened, so the watermark is final): every transition
// past the watermark is undone, newest first, which leaves each touched
// record at its last durable value. Callers hold s.mu.
func (s *Service) settleLocked(durable, syncs uint64, failed bool) {
	if syncs > s.syncsSeen {
		s.cfg.Counters.Add(metrics.CounterWALFsyncs, int64(syncs-s.syncsSeen))
		s.syncsSeen = syncs
	}
	n := 0
	for n < len(s.pending) && s.pending[n].seq <= durable {
		n++
	}
	if n > 0 {
		s.cfg.Counters.Add(metrics.CounterWALAppends, int64(n))
	}
	if failed {
		for i := len(s.pending) - 1; i >= n; i-- {
			s.pending[i].undo()
		}
		n = len(s.pending)
	}
	for _, tx := range s.pending[:n] {
		if s.newest[tx.key] == tx.seq {
			delete(s.newest, tx.key)
		}
	}
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:])
	s.pending = s.pending[:rest]
}

// read runs fn under s.mu and returns once everything fn saw is durable,
// so a read never shows a transition that could still roll back. fn
// returns the newest staged sequence its answer reflects (0 when that is
// all durable already). When the wait fails the store has failed and the
// transitions were undone: fn runs again over what is left.
func (s *Service) read(fn func() uint64) {
	for {
		s.mu.Lock()
		seq := fn()
		s.mu.Unlock()
		if seq == 0 || s.await(seq) == nil {
			return
		}
	}
}

// lsmBatch turns one event into an atomic LSM batch: the primary
// record plus every secondary index entry the event adds, moves or
// removes — all under one WAL frame, so a crash can never persist the
// record without its index entries or vice versa.
func lsmBatch(ev walEvent, prevState State) ([]jobstore.Op, error) {
	var batch []jobstore.Op
	if ev.Op == "charge" {
		batch = budgetOps(nil, *ev.Budget)
	} else if ev.Op == "stream" {
		payload, err := json.Marshal(ev.Stream)
		if err != nil {
			return nil, fmt.Errorf("jobs: encoding stream mark: %w", err)
		}
		batch = append(batch, jobstore.Op{Key: lsmStreamKey(ev.Stream.Job), Value: payload})
	} else {
		ws := ev.Status
		payload, err := encodeRecord(ws)
		if err != nil {
			return nil, fmt.Errorf("jobs: encoding job record: %w", err)
		}
		batch = append(batch, jobstore.Op{Key: lsmPrimaryKey(ws.Job.Name), Value: payload})
		if prevState != "" && prevState != ws.State {
			batch = append(batch, jobstore.Op{Key: lsmStateKey(prevState, ws.Seq, ws.Job.Name), Delete: true})
		}
		if prevState != ws.State {
			batch = append(batch, jobstore.Op{Key: lsmStateKey(ws.State, ws.Seq, ws.Job.Name)})
		}
		if ev.Op == "submit" {
			// Priority and tenant are immutable, so their index entries
			// are written once, at submission.
			batch = append(batch, jobstore.Op{Key: lsmPrioKey(ws.Job.Priority, ws.Job.Name)})
			if ws.Job.Tenant != "" {
				batch = append(batch, jobstore.Op{Key: lsmTenantKey(ws.Job.Tenant, ws.Job.Name)})
			}
		}
	}
	return batch, nil
}

// cutCheckpoint starts a store checkpoint once SnapshotEvery events have
// been staged. It is best-effort housekeeping, run after the triggering
// commit is durable and outside s.mu: only the freeze and WAL-segment
// rotation happen here; the flush's outcome arrives through
// onCheckpoint. A failure to start re-arms the event counter, so the
// very next commit retries instead of waiting out another SnapshotEvery
// window.
func (s *Service) cutCheckpoint() {
	if _, err := s.lsm.CheckpointAsync(); err != nil {
		s.mu.Lock()
		s.noteCheckpointFailureLocked(err)
		s.mu.Unlock()
	}
}

// onCheckpoint receives every checkpoint flush's outcome from the store
// (called on the flush goroutine, no store locks held).
func (s *Service) onCheckpoint(err error) {
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterWALSnapshots)
		return
	}
	s.mu.Lock()
	s.noteCheckpointFailureLocked(err)
	s.mu.Unlock()
}

// noteCheckpointFailureLocked surfaces a failed checkpoint: counted,
// logged, and the event counter re-armed so the next commit retries
// immediately. Callers hold s.mu.
func (s *Service) noteCheckpointFailureLocked(err error) {
	s.events = s.cfg.SnapshotEvery
	s.cfg.Counters.Inc(metrics.CounterCheckpointFailures)
	s.logf("jobs: store checkpoint failed (will retry on next commit): %v", err)
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// jobKey names a job's lifecycle record in the undo log.
func jobKey(name string) recordKey { return recordKey{ns: nsJob, name: name} }

// Submit registers the job (state Pending), commits it, and wakes the
// dispatcher pool. On a store failure the registration is rolled back so
// memory never acknowledges more than disk.
func (s *Service) Submit(job Job) (Plan, error) {
	var plan Plan
	err := s.commit(true, func() (staging, error) {
		var err error
		if plan, err = s.m.Register(job); err != nil {
			return staging{}, err
		}
		st, _ := s.m.Status(job.Name)
		return staging{
			key:  jobKey(job.Name),
			ev:   walEvent{Op: "submit", Status: toWal(st)},
			undo: func() { s.m.Unregister(job.Name) },
		}, nil
	})
	if err != nil {
		return Plan{}, err
	}
	s.cfg.Counters.Inc(metrics.CounterJobsSubmitted)
	s.notify()
	return plan, nil
}

var errNothingPending = errors.New("jobs: nothing pending")

// Claim moves the oldest Pending job to Running and commits the
// transition. ok is false when nothing is pending.
func (s *Service) Claim() (Status, bool) {
	var st Status
	err := s.commit(true, func() (staging, error) {
		var ok bool
		if st, ok = s.m.Claim(); !ok {
			return staging{}, errNothingPending
		}
		return staging{
			key:       jobKey(st.Job.Name),
			ev:        walEvent{Op: "update", Status: toWal(st)},
			prevState: StatePending,
			// Disk refused the claim: revert it entirely (state and
			// attempt count) so no work runs unlogged and transient
			// storage errors don't eat the retry budget.
			undo: func() { s.m.unclaim(st.Job.Name) },
		}, nil
	})
	if err != nil {
		return Status{}, false
	}
	s.cfg.Counters.Inc(metrics.CounterJobsStarted)
	return st, true
}

// transition commits one lifecycle move of an existing job: it captures
// the job's record, applies move, and logs the post-transition record.
// If the store refuses the commit the captured record is put back,
// preserving the invariant that memory never acknowledges more than
// disk.
func (s *Service) transition(name string, wait bool, move func() (Status, error)) error {
	return s.commit(wait, func() (staging, error) {
		prev, _ := s.m.Status(name)
		st, err := move()
		if err != nil {
			return staging{}, err
		}
		return staging{
			key:       jobKey(name),
			ev:        walEvent{Op: "update", Status: toWal(st)},
			prevState: prev.State,
			undo:      func() { s.m.revert(prev) },
		}, nil
	})
}

// Complete commits a Running job's successful finish with the final
// cost of the finishing attempt.
func (s *Service) Complete(name string, cost float64) error {
	err := s.transition(name, true, func() (Status, error) { return s.m.Complete(name, cost) })
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterJobsCompleted)
	}
	return err
}

// Fail commits a Running job's failure: requeued (retry) while
// attempts remain and the cause is not permanent, terminal Failed
// otherwise.
func (s *Service) Fail(name string, cause error, cost float64) (requeued bool, err error) {
	err = s.transition(name, true, func() (st Status, err error) {
		st, requeued, err = s.m.Fail(name, cause, cost)
		return st, err
	})
	if err != nil {
		return false, err
	}
	if requeued {
		s.cfg.Counters.Inc(metrics.CounterJobsRetried)
		s.notify()
	} else {
		s.cfg.Counters.Inc(metrics.CounterJobsFailed)
	}
	return requeued, nil
}

// Cancel commits a Pending or Running job's cancellation. Cancelling a
// Running job here only records the state — interrupting the actual
// run is the dispatcher's half (per-job context cancellation).
func (s *Service) Cancel(name string) error {
	err := s.transition(name, true, func() (Status, error) { return s.m.Cancel(name) })
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterJobsCancelled)
	}
	return err
}

// Park commits a Running job's move to Parked: budget admission refused
// the run. The job leaves the claim queue but stays resumable.
func (s *Service) Park(name string) error {
	err := s.transition(name, true, func() (Status, error) { return s.m.Park(name) })
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterJobsParked)
	}
	return err
}

// Unpark commits a Parked job's return to Pending and wakes the pool —
// the resume path once budget frees up or the operator raises it.
func (s *Service) Unpark(name string) error {
	err := s.transition(name, true, func() (Status, error) { return s.m.Unpark(name) })
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterJobsUnparked)
		s.notify()
	}
	return err
}

// ChargeBudget commits a crowd-spend charge against the job and the
// global ledger — the scheduler's persistence hook, so budget state
// survives a restart. Charges are facts about money already spent; they
// are recorded even for jobs the service has never seen. The commit
// carries the job's line and the total, not the ledger, so it costs the
// same however many jobs have been charged before. An amount that is not
// finite, or that would carry a sum past the largest float64, is refused
// before anything changes: the ledger's encoding has no spelling for it.
func (s *Service) ChargeBudget(name string, amount float64) error {
	if math.IsNaN(amount) || math.IsInf(amount, 0) {
		return fmt.Errorf("jobs: budget charge of %v for %q is not a finite amount", amount, name)
	}
	if amount <= 0 {
		return nil
	}
	err := s.commit(true, func() (staging, error) {
		prevGlobal := s.budget.GlobalSpent
		prevJob, had := s.budget.Jobs[name]
		global, spent := prevGlobal+amount, prevJob+amount
		if math.IsInf(global, 0) || math.IsInf(spent, 0) {
			return staging{}, fmt.Errorf("jobs: budget charge of %v for %q overflows the ledger", amount, name)
		}
		if s.budget.Jobs == nil {
			s.budget.Jobs = make(map[string]float64)
		}
		s.budget.GlobalSpent, s.budget.Jobs[name] = global, spent
		return staging{
			key: recordKey{ns: nsBudget},
			ev: walEvent{Op: "charge", Budget: &BudgetState{
				GlobalSpent: global,
				Jobs:        map[string]float64{name: spent},
			}},
			undo: func() {
				s.budget.GlobalSpent = prevGlobal
				if had {
					s.budget.Jobs[name] = prevJob
				} else {
					delete(s.budget.Jobs, name)
				}
			},
		}, nil
	})
	if err == nil {
		s.cfg.Counters.Inc(metrics.CounterBudgetCharges)
	}
	return err
}

// Budget returns a copy of the durable budget ledger.
func (s *Service) Budget() (b BudgetState) {
	s.read(func() uint64 {
		b = s.budget.clone()
		return s.newest[recordKey{ns: nsBudget}]
	})
	return b
}

// CommitStreamMark durably advances a continuous job's stream position:
// the mark is fsynced through the same store path as lifecycle
// transitions before it is acknowledged, so a crash after a window
// close replays the close — the restarted runner skips every window at
// or below mark.Window and never re-charges it. Marks must advance;
// committing a mark whose window regresses below the recorded one is
// rejected (a runner bug, not a storage race).
func (s *Service) CommitStreamMark(name string, mark StreamMark) error {
	return s.commit(true, func() (staging, error) {
		prev, had := s.streams[name]
		if had && mark.Window < prev.Window {
			return staging{}, fmt.Errorf("jobs: stream mark for %q regresses window %d below committed %d", name, mark.Window, prev.Window)
		}
		mark = mark.clone()
		s.streams[name] = mark
		return staging{
			key: recordKey{ns: nsStream, name: name},
			ev:  walEvent{Op: "stream", Stream: &streamRecord{Job: name, Mark: mark}},
			undo: func() {
				if had {
					s.streams[name] = prev
				} else {
					delete(s.streams, name)
				}
			},
		}, nil
	})
}

// StreamMarkFor returns a continuous job's committed stream position.
// ok is false when no window has ever been committed for the job.
func (s *Service) StreamMarkFor(name string) (mark StreamMark, ok bool) {
	s.read(func() uint64 {
		mark, ok = s.streams[name]
		mark = mark.clone()
		return s.newest[recordKey{ns: nsStream, name: name}]
	})
	return mark, ok
}

// VoidClaim commits the reversal of a claim whose runner never started
// (shutdown won the claim race): the job returns to Pending with the
// claim's attempt increment refunded.
func (s *Service) VoidClaim(name string) error {
	err := s.transition(name, true, func() (Status, error) { return s.m.voidClaim(name) })
	if err == nil {
		s.notify()
	}
	return err
}

// Requeue commits a Running job's return to Pending (graceful shutdown
// of its worker) and wakes the pool.
func (s *Service) Requeue(name string) error {
	err := s.transition(name, true, func() (Status, error) { return s.m.Requeue(name) })
	if err == nil {
		s.notify()
	}
	return err
}

// Progress records a Running job's progress fraction and the cost
// charged so far in the current attempt. The record is advisory (it is
// reset on requeue): it is staged in order but not waited for, so a
// crash may lose it; the next group commit, or Close, flushes it.
func (s *Service) Progress(name string, progress, cost float64) error {
	return s.transition(name, false, func() (Status, error) { return s.m.SetProgress(name, progress, cost) })
}

// Status returns a job's lifecycle record. A transition is never
// observable before it is durable: the read waits for the job's newest
// staged commit, and sees the rolled-back record if that commit fails.
func (s *Service) Status(name string) (st Status, ok bool) {
	s.read(func() uint64 {
		st, ok = s.m.Status(name)
		return s.newest[jobKey(name)]
	})
	return st, ok
}

// Statuses lists every job's lifecycle record, sorted by name, under
// the same durable-state guarantee as Status.
func (s *Service) Statuses() (all []Status) {
	s.read(func() uint64 {
		all = s.m.Statuses()
		return s.lastStagedLocked()
	})
	return all
}

// StatusesPage lists up to limit lifecycle records in name order,
// strictly after the given name, optionally filtered by state and/or
// tenant — an index range-read, not a sort of the whole table. Pages
// see only durable state: the read waits for the newest staged commit
// of any job on the page.
func (s *Service) StatusesPage(after string, limit int, state State, tenant string) (page []Status, more bool) {
	s.read(func() (seq uint64) {
		page, more = s.m.StatusesPage(after, limit, state, tenant)
		if len(s.newest) == 0 {
			return 0
		}
		for _, st := range page {
			seq = max(seq, s.newest[jobKey(st.Job.Name)])
		}
		return seq
	})
	return page, more
}

// MaxAttempts reports the retry bound.
func (s *Service) MaxAttempts() int { return s.m.MaxAttempts() }

// Quiesce blocks until no store checkpoint is in flight — a graceful
// shutdown (and the crash harness) uses it to reach a settled store.
func (s *Service) Quiesce() {
	if s.lsm != nil {
		s.lsm.Quiesce()
	}
}

// Close flushes whatever is still staged (an advisory progress record
// is lost by a crash, never by Close) and releases every configured
// store. The in-memory view stays readable; mutations after Close fail
// with ErrServiceClosed. Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Drop the lock before closing: the LSM drains in-flight checkpoint
	// flushes, whose completion callback (onCheckpoint) takes s.mu.
	s.mu.Unlock()
	var err error
	if s.lsm != nil {
		err = s.lsm.Close()
	}
	// Whatever the closed store did not make durable never will be.
	s.settle(true)
	return err
}

// Durable reports whether the service is backed by an open store.
func (s *Service) Durable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.lsm != nil
}
