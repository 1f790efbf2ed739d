// One-shot WAL→LSM store migration: read a WAL-engine directory
// through the existing replay path, write an equivalent LSM store —
// primary records plus all three secondary indexes, committed in
// atomic batches — verify the two stores agree, then retire the WAL
// files. cdas-storectl is the CLI front end.
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
	// Retired lists the WAL-engine files renamed aside (*.retired);
	// renaming them back is the rollback path.
	Retired []string
	// Resumed reports that a partial earlier migration was discarded
	// and redone from the (still authoritative) WAL store.
	Resumed bool
}

// MigrateStore converts the WAL-engine store in dir to the LSM engine,
// in place. The conversion is safe to re-run: until the final retire
// step the WAL files remain the authority, and a partial LSM store
// from an interrupted run is discarded and rebuilt. Before retiring
// anything the new store is reopened cold and verified record-for-
// record against the WAL replay — the same Statuses() view a booted
// service would serve — plus the budget ledger. logf (optional)
// receives progress lines.
func MigrateStore(dir string, logf func(format string, args ...any)) (MigrateResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var res MigrateResult
	hasWAL, hasLSM := jobstore.DetectEngines(dir)
	switch {
	case !hasWAL && !hasLSM:
		return res, fmt.Errorf("jobs: %s holds no job store", dir)
	case !hasWAL && hasLSM:
		return res, ErrAlreadyMigrated
	case hasWAL && hasLSM:
		// An interrupted migration: the WAL is still authoritative, so
		// the partial LSM store is garbage. Start over.
		logf("discarding partial LSM store from an interrupted migration")
		if err := jobstore.RemoveLSMFiles(dir); err != nil {
			return res, fmt.Errorf("jobs: removing partial LSM store: %w", err)
		}
		res.Resumed = true
	}

	// The Log's flock doubles as the migration lock: a live server (or
	// a second migrate) holds it and fails this open with ErrLocked.
	log, err := jobstore.Open(dir)
	if err != nil {
		return res, err
	}
	defer log.Close()

	src, budget, streams, err := loadWALState(log)
	if err != nil {
		return res, err
	}
	statuses := src.Statuses()
	logf("replayed WAL store: %d jobs", len(statuses))

	if err := writeLSMStore(dir, statuses, budget, streams); err != nil {
		return res, err
	}
	logf("wrote LSM store: %d jobs in batches of %d", len(statuses), migrateBatchJobs)

	if err := verifyLSMStore(dir, statuses, budget, streams); err != nil {
		return res, err
	}
	logf("verification passed: LSM view matches WAL replay")

	retired, err := jobstore.RetireLogFiles(dir)
	if err != nil {
		return res, fmt.Errorf("jobs: retiring WAL files: %w", err)
	}
	res.Jobs = len(statuses)
	res.BudgetMoved = budget.GlobalSpent > 0 || len(budget.Jobs) > 0
	res.Retired = retired
	return res, nil
}

// writeLSMStore creates the LSM store and commits every job's primary
// record plus its state, priority and tenant index entries — each
// job's records inside one atomic batch, many jobs per batch to bound
// fsyncs — then checkpoints so the result boots from a sorted run
// instead of a WAL tail.
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
		ws := toWal(st)
		payload, err := json.Marshal(ws)
		if err != nil {
			return fmt.Errorf("jobs: encoding job record %q: %w", ws.Job.Name, err)
		}
		batch = append(batch,
			jobstore.Op{Key: lsmPrimaryKey(ws.Job.Name), Value: payload},
			jobstore.Op{Key: lsmStateKey(ws.State, ws.Seq, ws.Job.Name)},
			jobstore.Op{Key: lsmPrioKey(ws.Job.Priority, ws.Job.Name)},
		)
		if ws.Job.Tenant != "" {
			batch = append(batch, jobstore.Op{Key: lsmTenantKey(ws.Job.Tenant, ws.Job.Name)})
		}
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
		payload, err := json.Marshal(streamRecord{Job: name, Mark: streams[name]})
		if err != nil {
			return fmt.Errorf("jobs: encoding stream mark %q: %w", name, err)
		}
		batch = append(batch, jobstore.Op{Key: lsmStreamKey(name), Value: payload})
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
// Statuses() view and budget ledger are deep-equal to the WAL replay's,
// and that every record's index entries are present — the gate the old
// store is retired behind.
func verifyLSMStore(dir string, want []Status, wantBudget BudgetState, wantStreams map[string]StreamMark) error {
	lsm, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("jobs: verification reopen: %w", err)
	}
	defer lsm.Close()
	m := NewManager()
	var decodeErr error
	err = lsm.Scan(lsmPrimaryPrefix, prefixEnd(lsmPrimaryPrefix), func(key string, val []byte) bool {
		var ws walStatus
		if decodeErr = json.Unmarshal(val, &ws); decodeErr != nil {
			decodeErr = fmt.Errorf("jobs: verification: decoding %q: %w", key, decodeErr)
			return false
		}
		m.restore(fromWal(ws))
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return err
	}
	got := m.Statuses()
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("jobs: verification failed: LSM view (%d jobs) differs from WAL replay (%d jobs)", len(got), len(want))
	}
	gotBudget, unsplit, err := loadLSMBudget(lsm)
	if err != nil {
		return fmt.Errorf("jobs: verification: %w", err)
	}
	if unsplit || !reflect.DeepEqual(gotBudget, wantBudget) {
		return fmt.Errorf("jobs: verification failed: budget %+v (one line per job: %v) differs from WAL replay's %+v", gotBudget, !unsplit, wantBudget)
	}
	gotStreams := map[string]StreamMark{}
	err = lsm.Scan(lsmStreamPrefix, prefixEnd(lsmStreamPrefix), func(key string, val []byte) bool {
		var sr streamRecord
		if decodeErr = json.Unmarshal(val, &sr); decodeErr != nil {
			decodeErr = fmt.Errorf("jobs: verification: decoding stream mark %q: %w", key, decodeErr)
			return false
		}
		gotStreams[sr.Job] = sr.Mark
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(gotStreams, wantStreams) {
		return fmt.Errorf("jobs: verification failed: stream marks %+v differ from WAL replay's %+v", gotStreams, wantStreams)
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
