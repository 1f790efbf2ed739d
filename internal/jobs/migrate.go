// One-shot store migration: read a directory in the append-only log
// format that stores were kept in before the LSM engine (wal.dat plus
// snapshot.dat), write an equivalent LSM store — primary records plus
// all three secondary indexes, committed in atomic batches — verify the
// two agree, then retire the log files. cdas-storectl is the CLI front
// end.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"cdas/internal/jobstore"
)

// ErrAlreadyMigrated reports a directory that holds only an LSM store:
// there is nothing to convert.
var ErrAlreadyMigrated = errors.New("jobs: store is already on the lsm engine")

// migrateBatchJobs bounds how many jobs share one atomic LSM batch.
// Each job contributes at most four records (primary + three index
// entries), so a batch stays far under the store's frame cap while
// amortizing one fsync across many jobs.
const migrateBatchJobs = 192

// MigrateResult summarizes a completed conversion.
type MigrateResult struct {
	// Jobs is the number of job records converted.
	Jobs int
	// BudgetMoved reports a non-empty budget ledger was carried over.
	BudgetMoved bool
	// Retired lists the append-only log files renamed aside (*.retired);
	// renaming them back is the rollback path.
	Retired []string
	// Resumed reports that a partial earlier migration was discarded
	// and redone from the still authoritative log.
	Resumed bool
}

// MigrateStore converts the append-only log store in dir to the LSM
// engine, in place. The conversion is safe to re-run: until the final
// retire step the log files remain the authority, and a partial LSM
// store from an interrupted run is discarded and rebuilt. Before
// retiring anything the new store is reopened cold and verified
// record-for-record against the log's replay — the same Statuses() view
// a booted service would serve — plus the budget ledger and the stream
// marks. logf (optional) receives progress lines.
func MigrateStore(dir string, logf func(format string, args ...any)) (MigrateResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var res MigrateResult
	hasWAL, hasLSM := jobstore.DetectEngines(dir)
	switch {
	case !hasWAL && !hasLSM:
		return res, fmt.Errorf("jobs: %s holds no job store", dir)
	case !hasWAL:
		return res, ErrAlreadyMigrated
	}

	// The reader's flock is the migration lock, held to the end: a
	// second migrate, or an old server still writing the log, holds it
	// and fails this read with ErrLocked.
	img, err := jobstore.ReadLog(dir)
	if err != nil {
		return res, err
	}
	defer img.Close()
	if hasLSM {
		// An interrupted migration: the log is still authoritative, so
		// the partial LSM store is garbage. Start over.
		logf("discarding partial LSM store from an interrupted migration")
		if err := jobstore.RemoveLSMFiles(dir); err != nil {
			return res, fmt.Errorf("jobs: removing partial LSM store: %w", err)
		}
		res.Resumed = true
	}

	src, budget, streams, err := loadLogImage(img)
	if err != nil {
		return res, err
	}
	statuses := src.Statuses()
	logf("replayed the append-only log: %d jobs", len(statuses))

	if err := writeLSMStore(dir, statuses, budget, streams); err != nil {
		return res, err
	}
	logf("wrote LSM store: %d jobs in batches of %d", len(statuses), migrateBatchJobs)

	if err := verifyLSMStore(dir, statuses, budget, streams); err != nil {
		return res, err
	}
	logf("verification passed: LSM view matches the log's replay")

	retired, err := jobstore.RetireLogFiles(dir)
	if err != nil {
		return res, fmt.Errorf("jobs: retiring log files: %w", err)
	}
	res.Jobs = len(statuses)
	res.BudgetMoved = budget.GlobalSpent > 0 || len(budget.Jobs) > 0
	res.Retired = retired
	return res, nil
}

// logSnapshot is the append-only log's snapshot payload: every job's
// record plus the budget ledger and the continuous jobs' stream marks.
type logSnapshot struct {
	Jobs    []walStatus    `json:"jobs"`
	Budget  *BudgetState   `json:"budget,omitempty"`
	Streams []streamRecord `json:"streams,omitempty"`
}

// loadLogImage replays an append-only log store — the snapshot, then
// every event after it — into a Manager, the ledger and the stream
// marks. It copies records verbatim: requeueing what the dead process
// was running is the booted service's step, not the migration's. Every
// event is an absolute value, so a frame the log holds twice replays
// the same; a "budget" event, from logs written before the ledger was
// split, replaces the whole ledger.
func loadLogImage(img *jobstore.LogImage) (*Manager, BudgetState, map[string]StreamMark, error) {
	m := NewManager()
	var budget BudgetState
	streams := map[string]StreamMark{}
	if img.Snapshot != nil {
		var snap logSnapshot
		if err := json.Unmarshal(img.Snapshot, &snap); err != nil {
			return nil, budget, nil, fmt.Errorf("jobs: decoding snapshot: %w", err)
		}
		for _, st := range snap.Jobs {
			m.restore(fromWal(st))
		}
		if snap.Budget != nil {
			budget = *snap.Budget
		}
		for _, sr := range snap.Streams {
			streams[sr.Job] = sr.Mark
		}
	}
	for i, rec := range img.Entries {
		var ev walEvent
		if err := json.Unmarshal(rec, &ev); err != nil {
			return nil, budget, nil, fmt.Errorf("jobs: decoding log record %d: %w", i, err)
		}
		switch ev.Op {
		case "budget":
			if ev.Budget != nil {
				budget = *ev.Budget
			}
		case "charge":
			if ev.Budget != nil {
				budget.GlobalSpent = ev.Budget.GlobalSpent
				if budget.Jobs == nil {
					budget.Jobs = make(map[string]float64)
				}
				for name, spent := range ev.Budget.Jobs {
					budget.Jobs[name] = spent
				}
			}
		case "stream":
			if ev.Stream != nil {
				streams[ev.Stream.Job] = ev.Stream.Mark
			}
		default:
			m.restore(fromWal(ev.Status))
		}
	}
	return m, budget, streams, nil
}

// writeLSMStore creates the LSM store and commits every job as the
// service commits its submission (lsmBatch: the primary record plus its
// state, priority and tenant index entries), many jobs per atomic batch
// to bound fsyncs, then checkpoints so the result boots from a sorted
// run instead of a WAL tail.
func writeLSMStore(dir string, statuses []Status, budget BudgetState, streams map[string]StreamMark) error {
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer lsm.Close()
	var batch []jobstore.Op
	jobsInBatch := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := lsm.Apply(batch); err != nil {
			return err
		}
		batch = batch[:0]
		jobsInBatch = 0
		return nil
	}
	for _, st := range statuses {
		ops, err := lsmBatch(walEvent{Op: "submit", Status: toWal(st)}, "")
		if err != nil {
			return fmt.Errorf("job %q: %w", st.Job.Name, err)
		}
		batch = append(batch, ops...)
		if jobsInBatch++; jobsInBatch >= migrateBatchJobs {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if budget.GlobalSpent > 0 || len(budget.Jobs) > 0 {
		batch = budgetOps(batch, budget)
	}
	streamNames := make([]string, 0, len(streams))
	for name := range streams {
		streamNames = append(streamNames, name)
	}
	sort.Strings(streamNames)
	for _, name := range streamNames {
		ops, err := lsmBatch(walEvent{Op: "stream", Stream: &streamRecord{Job: name, Mark: streams[name]}}, "")
		if err != nil {
			return fmt.Errorf("stream mark %q: %w", name, err)
		}
		batch = append(batch, ops...)
	}
	if err := flush(); err != nil {
		return err
	}
	if err := lsm.Checkpoint(); err != nil {
		return err
	}
	return lsm.Close()
}

// verifyLSMStore reopens the converted store cold and asserts its
// Statuses() view, budget ledger and stream marks are deep-equal to the
// log's replay,
// and that every record's index entries are present — the gate the old
// store is retired behind.
func verifyLSMStore(dir string, want []Status, wantBudget BudgetState, wantStreams map[string]StreamMark) error {
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("jobs: verification reopen: %w", err)
	}
	defer lsm.Close()
	m := NewManager()
	gotBudget, unsplit, gotStreams, err := loadLSMState(lsm, m)
	if err != nil {
		return fmt.Errorf("jobs: verification: %w", err)
	}
	got := m.Statuses()
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("jobs: verification failed: LSM view (%d jobs) differs from the log's replay (%d jobs)", len(got), len(want))
	}
	if unsplit || !reflect.DeepEqual(gotBudget, wantBudget) {
		return fmt.Errorf("jobs: verification failed: budget %+v (one line per job: %v) differs from the log's %+v", gotBudget, !unsplit, wantBudget)
	}
	if !reflect.DeepEqual(gotStreams, wantStreams) {
		return fmt.Errorf("jobs: verification failed: stream marks %+v differ from the log's %+v", gotStreams, wantStreams)
	}
	// Spot-check the secondary indexes: exactly one state entry per
	// job, pointing at the record's current state and seq.
	stateKeys := map[string]bool{}
	err = lsm.Scan(lsmStatePrefix, prefixEnd(lsmStatePrefix), func(key string, _ []byte) bool {
		stateKeys[key] = true
		return true
	})
	if err != nil {
		return err
	}
	if len(stateKeys) != len(want) {
		return fmt.Errorf("jobs: verification failed: %d state index entries for %d jobs", len(stateKeys), len(want))
	}
	var missing []string
	for _, st := range want {
		ws := toWal(st)
		if !stateKeys[lsmStateKey(ws.State, ws.Seq, ws.Job.Name)] {
			missing = append(missing, ws.Job.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("jobs: verification failed: state index entries missing for %s", strings.Join(missing, ", "))
	}
	return nil
}
