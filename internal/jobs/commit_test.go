package jobs

// The commit protocol's contract, each line pinned by a test: a mutator
// returns nil only after its frame is fsynced; a read never returns a
// transition that is not yet durable, or one that later rolls back; a
// failed group fails every member and everything staged behind it, and
// the service reverts the touched records to their last durable value;
// advisory progress is lost by a crash but never by Close; commits share
// fsyncs and wal_fsyncs counts them.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cdas/internal/jobstore"
	"cdas/internal/metrics"
)

// syncGate is a storage failpoint hook that can park the next WAL fsync
// (so a test can look at the service while a group is in flight) and
// make it, or the next WAL write, fail with a plain error.
type syncGate struct {
	mu      sync.Mutex
	point   string        // failpoint to act on; "" = pass everything
	parked  chan struct{} // closed when the hook is parked at point
	release chan struct{} // the parked hook proceeds when this closes
	once    *sync.Once    // closes release
	err     error         // returned at point, once
}

func (g *syncGate) arm(point string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.point, g.err = point, err
	g.parked, g.release, g.once = make(chan struct{}), make(chan struct{}), new(sync.Once)
}

// open lets the parked hook proceed. Tests defer it too, so a failed
// assertion does not leave Close waiting behind a parked fsync.
func (g *syncGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.once.Do(func() { close(g.release) })
}

func (g *syncGate) fn(point string) error {
	g.mu.Lock()
	if g.point != point {
		g.mu.Unlock()
		return nil
	}
	g.point = "" // one shot
	parked, release, err := g.parked, g.release, g.err
	g.mu.Unlock()
	close(parked)
	<-release
	return err
}

func openGated(t *testing.T, dir string, gate *syncGate) *Service {
	t.Helper()
	return openTestService(t, dir, func(c *ServiceConfig) { c.StoreFail = gate.fn })
}

// TestAckAndReadsWaitForFsync parks the fsync of a Submit's group: until
// it completes the Submit has not returned and a Status of that job has
// not either — though the transition is already applied in memory, where
// a second committer builds on it and lands in the next group.
func TestAckAndReadsWaitForFsync(t *testing.T) {
	gate := &syncGate{}
	s := openGated(t, t.TempDir(), gate)
	defer s.Close()

	gate.arm(jobstore.FailWALSync, nil)
	defer gate.open()
	submitted := make(chan error, 1)
	go func() {
		_, err := s.Submit(testJob("j"))
		submitted <- err
	}()
	<-gate.parked

	// Staged: in memory, claimable, not durable.
	if st, ok := s.m.Status("j"); !ok || st.State != StatePending {
		t.Fatalf("staged submit not applied in memory: %+v %v", st, ok)
	}
	type read struct {
		st Status
		ok bool
	}
	seen := make(chan read, 1)
	go func() {
		st, ok := s.Status("j")
		seen <- read{st, ok}
	}()
	claimed := make(chan bool, 1)
	go func() {
		_, ok := s.Claim()
		claimed <- ok
	}()
	waitFor(t, "the claim to be staged behind the parked group", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pending) == 2
	})
	select {
	case err := <-submitted:
		t.Fatalf("Submit returned (%v) before its fsync", err)
	case r := <-seen:
		t.Fatalf("Status returned %+v before the submit was durable", r)
	case <-claimed:
		t.Fatal("Claim returned before its fsync")
	default:
	}

	gate.open()
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if r := <-seen; !r.ok {
		t.Fatal("Status lost the job")
	}
	if !<-claimed {
		t.Fatal("Claim failed")
	}
	if st, _ := s.Status("j"); st.State != StateRunning || st.Attempts != 1 {
		t.Fatalf("after both groups: %+v", st)
	}
	s.mu.Lock()
	pending, newest := len(s.pending), len(s.newest)
	s.mu.Unlock()
	if pending != 0 || newest != 0 {
		t.Fatalf("bookkeeping outlived the commits: %d undo entries, %d newest", pending, newest)
	}
}

// TestFailedGroupRevertsEveryMember fails one group with a plain storage
// error while five more transitions are staged behind it. Every one of
// them gets the error, memory goes back to the last durable records, the
// service refuses further commits, and a reopened store agrees.
func TestFailedGroupRevertsEveryMember(t *testing.T) {
	for _, point := range []string{jobstore.FailWALWrite, jobstore.FailWALSync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			gate := &syncGate{}
			s := openGated(t, dir, gate)
			for _, name := range []string{"a", "b"} {
				if _, err := s.Submit(continuousTestJob(name)); err != nil {
					t.Fatal(err)
				}
			}
			if st, ok := s.Claim(); !ok || st.Job.Name != "a" {
				t.Fatalf("claimed %+v %v", st, ok)
			}
			if err := s.ChargeBudget("a", 2); err != nil {
				t.Fatal(err)
			}
			if err := s.CommitStreamMark("a", StreamMark{Window: 3, Spent: 2}); err != nil {
				t.Fatal(err)
			}
			before, beforeBudget := s.Statuses(), s.Budget()

			boom := errors.New("disk on fire")
			gate.arm(point, boom)
			defer gate.open()
			errs := make(chan error, 5)
			run := func(op func() error) { go func() { errs <- op() }() }
			staged := func(n int) {
				waitFor(t, fmt.Sprintf("%d transitions staged", n), func() bool {
					s.mu.Lock()
					defer s.mu.Unlock()
					return len(s.pending) == n
				})
			}
			run(func() error { _, err := s.Submit(testJob("c")); return err })
			<-gate.parked // the leader is inside its group; the rest stage behind it
			run(func() error { return s.Cancel("b") })
			run(func() error { return s.ChargeBudget("a", 1) })
			run(func() error { return s.CommitStreamMark("a", StreamMark{Window: 4, Spent: 3}) })
			staged(4)
			// Progress is staged and not waited for; it rolls back too.
			if err := s.Progress("a", 0.9, 4); err != nil {
				t.Fatal(err)
			}
			run(func() error { return s.Complete("a", 5) })
			staged(6)
			gate.open()
			for i := 0; i < cap(errs); i++ {
				if err := <-errs; !errors.Is(err, boom) {
					t.Fatalf("member %d of the failed group got %v, want %v", i, err, boom)
				}
			}

			if got := s.Statuses(); !reflect.DeepEqual(got, before) {
				t.Fatalf("memory after the failed group:\n%+v\nwant the last durable records:\n%+v", got, before)
			}
			if got := s.Budget(); !reflect.DeepEqual(got, beforeBudget) {
				t.Fatalf("ledger after the failed group %+v, want %+v", got, beforeBudget)
			}
			if mark, _ := s.StreamMarkFor("a"); mark.Window != 3 {
				t.Fatalf("stream mark after the failed group = %+v, want window 3", mark)
			}
			// Fail-stop: the store stays failed, and refused transitions
			// keep being undone.
			if _, err := s.Submit(testJob("d")); !errors.Is(err, boom) {
				t.Fatalf("Submit on the failed store = %v, want %v", err, boom)
			}
			if _, ok := s.Status("d"); ok {
				t.Fatal("refused submit still visible")
			}
			if _, ok := s.Claim(); ok {
				t.Fatal("Claim succeeded on the failed store")
			}
			if st, _ := s.Status("b"); st.State != StatePending || st.Attempts != 0 {
				t.Fatalf("refused claim not undone: %+v", st)
			}
			s.Close()

			r := openTestService(t, dir)
			defer r.Close()
			if point == jobstore.FailWALWrite {
				// Nothing of the group reached disk: the store equals
				// the rolled-back memory.
				want := normalizeAll(before)
				if got := normalize(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("reopened store %+v, want %+v", got, want)
				}
				if got := r.Budget(); !reflect.DeepEqual(got, beforeBudget) {
					t.Fatalf("reopened ledger %+v, want %+v", got, beforeBudget)
				}
			}
			// Either way every acknowledged commit is there.
			if b := r.Budget(); b.GlobalSpent < 2 {
				t.Fatalf("acknowledged charge lost: %+v", b)
			}
			if mark, ok := r.StreamMarkFor("a"); !ok || mark.Window < 3 {
				t.Fatalf("acknowledged stream mark lost: %+v %v", mark, ok)
			}
		})
	}
}

// TestProgressSurvivesClose: an advisory progress record nobody waited
// for is flushed by Close.
func TestProgressSurvivesClose(t *testing.T) { t.Run("lsm", testProgressSurvivesClose) }

func testProgressSurvivesClose(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTestService(t, dir, func(c *ServiceConfig) { c.Counters = reg })
	s.Submit(testJob("j"))
	s.Claim()
	fsyncs := reg.Get(metrics.CounterWALFsyncs)
	if err := s.Progress("j", 0.28, 1.5); err != nil {
		t.Fatal(err)
	}
	if got := reg.Get(metrics.CounterWALFsyncs); got != fsyncs {
		t.Fatalf("Progress fsynced: wal_fsyncs %d -> %d", fsyncs, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Get(metrics.CounterWALAppends); got != 3 {
		t.Fatalf("wal_appends = %d after submit, claim, progress and Close, want 3", got)
	}
	// Read the record as the store holds it: reopening the
	// service would requeue the running job and reset progress.
	ws := checkLSMIndexes(t, dir, "after close")["j"]
	if ws.State != StateRunning || ws.Progress != 0.28 || ws.Cost != 1.5 {
		t.Fatalf("record after Close = %+v, want the progress report", ws)
	}
}

// hammerVersion orders one job's records along the hammer's lifecycle
// (submit, then rounds of claim → progress… → fail-and-requeue, ending in
// complete): attempts only grow, and within an attempt the cost only
// grows because every cost argument comes from one increasing counter.
type hammerVersion struct {
	attempts int
	cost     float64
}

func versionOf(st Status) hammerVersion { return hammerVersion{st.Attempts, st.Cost} }

func (v hammerVersion) after(o hammerVersion) bool {
	return v.attempts > o.attempts || v.attempts == o.attempts && v.cost > o.cost
}

// versionLog keeps the newest version seen per job.
type versionLog struct {
	mu sync.Mutex
	at map[string]hammerVersion
}

func (l *versionLog) note(st Status) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.at == nil {
		l.at = map[string]hammerVersion{}
	}
	if cur, ok := l.at[st.Job.Name]; !ok || versionOf(st).after(cur) {
		l.at[st.Job.Name] = versionOf(st)
	}
}

// driveClaimed takes one claimed job through a few progress reports and
// a verdict (complete, or fail and requeue), and returns the record the
// verdict leaves behind: the cost at claim plus the verdict's own.
func driveClaimed(s *Service, st Status, rng *rand.Rand, nextCost func() float64) (Status, error) {
	name := st.Job.Name
	for p := rng.Intn(3); p > 0; p-- {
		if err := s.Progress(name, 0.5, nextCost()); err != nil {
			return st, err
		}
	}
	c := nextCost()
	st.Cost += c
	if rng.Intn(3) == 0 {
		return st, s.Complete(name, c)
	}
	_, err := s.Fail(name, errors.New("induced failure"), c)
	return st, err
}

// hammer runs committers goroutines of overlapping lifecycle traffic
// over a shared pool of jobs until each has done its share or a commit
// fails, and readers goroutines of Status/StatusesPage/Budget reads
// until the committers are done. acked collects the version of every
// record a committer was told is durable, seen every version a read
// returned.
func hammer(t *testing.T, s *Service, committers, readers, each int) (acked, seen *versionLog, seenSpend float64) {
	const pool = 48
	acked, seen = &versionLog{}, &versionLog{}
	var cost atomic.Int64
	nextCost := func() float64 { return float64(cost.Add(1)) / 1024 }
	expected := func(err error) bool {
		return err == nil || errors.Is(err, ErrBadTransition) || errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrDuplicateJob)
	}
	var failed atomic.Bool
	var committing, reading sync.WaitGroup
	for w := 0; w < committers; w++ {
		committing.Add(1)
		go func() {
			defer committing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each && !failed.Load(); i++ {
				name := fmt.Sprintf("h%02d", rng.Intn(pool))
				var err error
				switch r := rng.Intn(10); {
				case r < 3:
					if _, err = s.Submit(testJob(name)); err == nil {
						acked.note(Status{Job: testJob(name)})
					}
				case r < 4:
					err = s.ChargeBudget(name, 1)
				default:
					st, ok := s.Claim()
					if !ok {
						continue
					}
					acked.note(st)
					if st, err = driveClaimed(s, st, rng, nextCost); err == nil {
						acked.note(st)
					}
				}
				if !expected(err) {
					failed.Store(true)
				}
			}
		}()
	}
	var spendMu sync.Mutex
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					if st, ok := s.Status(fmt.Sprintf("h%02d", rng.Intn(pool))); ok {
						seen.note(st)
					}
				case 1:
					page, _ := s.StatusesPage(fmt.Sprintf("h%02d", rng.Intn(pool)), 8, "", "")
					for _, st := range page {
						seen.note(st)
					}
				default:
					spent := s.Budget().GlobalSpent
					spendMu.Lock()
					seenSpend = max(seenSpend, spent)
					spendMu.Unlock()
				}
			}
		}()
	}
	committing.Wait()
	close(done)
	reading.Wait()
	return acked, seen, seenSpend
}

// TestServiceGroupCommitHammer: 64 committers over overlapping jobs on a
// healthy store. Meant for -race. The final record of every job in
// memory — the result of the state machine's transition order — equals
// what a reopened store holds, so per-job WAL order is state-machine
// order; and the commits shared fsyncs.
func TestServiceGroupCommitHammer(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTestService(t, dir, func(c *ServiceConfig) {
		c.Counters = reg
		c.MaxAttempts = 1 << 30
		c.SnapshotEvery = 64
	})
	hammer(t, s, 64, 4, 30)
	s.Quiesce()
	want, wantBudget := normalize(s), s.Budget()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appends, fsyncs := reg.Get(metrics.CounterWALAppends), reg.Get(metrics.CounterWALFsyncs)
	if fsyncs == 0 || fsyncs >= appends {
		t.Fatalf("wal_fsyncs %d not below wal_appends %d: commits did not share fsyncs", fsyncs, appends)
	}
	t.Logf("%d commits in %d fsyncs (mean group %.1f)", appends, fsyncs, float64(appends)/float64(fsyncs))

	checkLSMIndexes(t, dir, "after the hammer")
	r := openTestService(t, dir)
	defer r.Close()
	if got := normalize(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store differs from memory: per-job WAL order is not state-machine order\ngot  %+v\nwant %+v", got, want)
	}
	if got := r.Budget(); !reflect.DeepEqual(got, wantBudget) {
		t.Fatalf("reopened ledger %+v, want %+v", got, wantBudget)
	}
}

// TestReadsNeverSeeRevertedState runs the hammer and fails the store
// with a plain error mid-run. Whatever the failed group and everything
// behind it had applied is rolled back; no read may have returned any of
// it, and every acknowledged record must still be there.
func TestReadsNeverSeeRevertedState(t *testing.T) {
	for _, point := range []string{jobstore.FailWALWrite, jobstore.FailWALSync} {
		t.Run(point, func(t *testing.T) {
			boom := errors.New("disk on fire")
			var hits atomic.Int64
			dir := t.TempDir()
			s := openTestService(t, dir, func(c *ServiceConfig) {
				c.MaxAttempts = 1 << 30
				c.StoreFail = func(p string) error {
					if p == point && hits.Add(1) == 120 {
						return boom
					}
					return nil
				}
			})
			acked, seen, seenSpend := hammer(t, s, 64, 8, 1000)
			if hits.Load() < 120 {
				t.Fatalf("the store never failed (%d hits)", hits.Load())
			}
			if _, err := s.Submit(testJob("late")); !errors.Is(err, boom) {
				t.Fatalf("Submit on the failed store = %v, want %v", err, boom)
			}
			final := map[string]hammerVersion{}
			for _, st := range s.Statuses() {
				final[st.Job.Name] = versionOf(st)
			}
			for name, v := range seen.at {
				if at, ok := final[name]; !ok || v.after(at) {
					t.Errorf("a read returned %s at %+v; after the rollback it is at %+v (present %v): the read saw a transition that was later reverted", name, v, at, ok)
				}
			}
			for name, v := range acked.at {
				if at, ok := final[name]; !ok || v.after(at) {
					t.Errorf("%s was acknowledged at %+v but rolled back to %+v (present %v)", name, v, at, ok)
				}
			}
			if spent := s.Budget().GlobalSpent; seenSpend > spent {
				t.Errorf("a read returned ledger spend %v; after the rollback it is %v", seenSpend, spent)
			}
			s.Close()

			// Disk holds no less than the rolled-back memory (frames of
			// the failed group may have been written, never acknowledged).
			r := openTestService(t, dir)
			defer r.Close()
			for _, st := range r.Statuses() {
				if final[st.Job.Name].after(versionOf(st)) {
					t.Errorf("%s: durable in memory at %+v, reopened at %+v", st.Job.Name, final[st.Job.Name], versionOf(st))
				}
				delete(final, st.Job.Name)
			}
			if len(final) != 0 {
				t.Errorf("jobs durable in memory but missing after reopen: %v", final)
			}
		})
	}
}
