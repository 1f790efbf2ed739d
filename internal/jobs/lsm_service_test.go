package jobs

// Tests for the service's LSM backend: round-trip recovery, the
// service-level crash-equivalence harness (random lifecycle op
// sequences against an in-memory reference model with a crash injected
// at every storage failpoint), and property tests pinning the
// in-memory and persistent secondary indexes to the primary records.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cdas/internal/jobstore"
)

func tenantJob(name, tenant string, priority int) Job {
	j := testJob(name)
	j.Tenant = tenant
	j.Priority = priority
	return j
}

// TestOpenServiceUnknownEngine: LSM is the only engine. Asking for any
// other — the retired "wal" engine included — fails before anything is
// created in the directory.
func TestOpenServiceUnknownEngine(t *testing.T) {
	for _, engine := range []string{"btree", "wal"} {
		dir := t.TempDir()
		_, err := OpenService(ServiceConfig{Dir: dir, Engine: engine})
		if err == nil || !strings.Contains(err.Error(), "unknown storage engine") {
			t.Fatalf("engine %q: err = %v, want unknown storage engine", engine, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("engine %q: refused open left %d files", engine, len(entries))
		}
	}
}

// TestServiceCloseIdempotent pins the Close contract:
// Close twice is fine, Durable flips to false, reads keep working, and
// every post-Close mutation fails with ErrServiceClosed (after rolling
// back, so memory never acknowledges more than disk).
func TestServiceCloseIdempotent(t *testing.T) { t.Run("lsm", testServiceCloseIdempotent) }

func testServiceCloseIdempotent(t *testing.T) {
	s, err := OpenService(ServiceConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testJob("keep")); err != nil {
		t.Fatal(err)
	}
	if !s.Durable() {
		t.Fatal("Durable() = false before Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if s.Durable() {
		t.Fatal("Durable() = true after Close")
	}
	if _, err := s.Submit(testJob("late")); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Submit after Close: %v, want ErrServiceClosed", err)
	}
	if err := s.ChargeBudget("keep", 1); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("ChargeBudget after Close: %v, want ErrServiceClosed", err)
	}
	if err := s.Cancel("keep"); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Cancel after Close: %v, want ErrServiceClosed", err)
	}
	// The in-memory view stays readable, and the rolled-back
	// submission is gone from it.
	if _, ok := s.Status("keep"); !ok {
		t.Fatal("Status(keep) lost after Close")
	}
	if _, ok := s.Status("late"); ok {
		t.Fatal("rolled-back post-Close submit still visible")
	}
}

func TestLSMServiceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable() {
		t.Fatal("LSM service not durable")
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(tenantJob(fmt.Sprintf("job-%d", i), []string{"", "acme", "globex"}[i%3], i%2)); err != nil {
			t.Fatal(err)
		}
	}
	// job-0 runs to completion; job-1 is left running (crash victim);
	// job-2 is cancelled; budget gets charged.
	for _, want := range []string{"job-0", "job-1"} {
		st, ok := s.Claim()
		if !ok || st.Job.Name != want {
			t.Fatalf("Claim = %v/%v, want %s (FIFO)", st.Job.Name, ok, want)
		}
	}
	if err := s.Complete("job-0", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel("job-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.ChargeBudget("job-0", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenService(ServiceConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Resumed(); len(got) != 1 || got[0] != "job-1" {
		t.Fatalf("Resumed = %v, want [job-1]", got)
	}
	checks := map[string]State{
		"job-0": StateDone, "job-1": StatePending, "job-2": StateCancelled,
		"job-3": StatePending, "job-4": StatePending, "job-5": StatePending,
	}
	for name, want := range checks {
		st, ok := r.Status(name)
		if !ok || st.State != want {
			t.Fatalf("%s = %v/%v, want %s", name, st.State, ok, want)
		}
	}
	st, _ := r.Status("job-0")
	if st.Cost != 1.5 || st.Job.Tenant != "" {
		t.Fatalf("job-0 record = %+v, want cost 1.5", st)
	}
	if b := r.Budget(); b.GlobalSpent != 1.5 || b.Jobs["job-0"] != 1.5 {
		t.Fatalf("budget = %+v, want 1.5 global and for job-0", b)
	}
	// FIFO is preserved across recovery: job-1 (oldest pending seq)
	// claims first.
	if st, ok := r.Claim(); !ok || st.Job.Name != "job-1" {
		t.Fatalf("post-recovery Claim = %v/%v, want job-1", st.Job.Name, ok)
	}
}

// svcOp is one generated service-level operation.
type svcOp struct {
	kind   string
	name   string
	tenant string
	prio   int
	amount float64
}

// genSvcOps builds a deterministic lifecycle op sequence. Invalid ops
// (completing a job that isn't running, etc.) are allowed: they fail
// identically in the real service and the reference model, so
// determinism — not validity — is what matters.
func genSvcOps(seed int64, n int) []svcOp {
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"", "acme", "globex"}
	var out []svcOp
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("j%d", rng.Intn(8))
		switch r := rng.Intn(100); {
		case r < 25:
			out = append(out, svcOp{kind: "submit", name: name, tenant: tenants[rng.Intn(3)], prio: rng.Intn(3)})
		case r < 45:
			out = append(out, svcOp{kind: "claim"})
		case r < 57:
			out = append(out, svcOp{kind: "complete", name: name, amount: float64(rng.Intn(5))})
		case r < 65:
			out = append(out, svcOp{kind: "fail", name: name})
		case r < 70:
			out = append(out, svcOp{kind: "cancel", name: name})
		case r < 78:
			out = append(out, svcOp{kind: "park", name: name})
		case r < 85:
			out = append(out, svcOp{kind: "unpark", name: name})
		case r < 95:
			out = append(out, svcOp{kind: "charge", name: name, amount: 1 + float64(rng.Intn(3))})
		default:
			out = append(out, svcOp{kind: "progress", name: name, amount: float64(rng.Intn(100)) / 100})
		}
	}
	return out
}

// applySvcOp plays one op; errors are expected for invalid transitions
// and are identical on both sides of the equivalence check.
func applySvcOp(s *Service, op svcOp) error {
	switch op.kind {
	case "submit":
		_, err := s.Submit(tenantJob(op.name, op.tenant, op.prio))
		return err
	case "claim":
		if _, ok := s.Claim(); !ok {
			return errNothingPending
		}
	case "complete":
		return s.Complete(op.name, op.amount)
	case "fail":
		_, err := s.Fail(op.name, errors.New("induced failure"), op.amount)
		return err
	case "cancel":
		return s.Cancel(op.name)
	case "park":
		return s.Park(op.name)
	case "unpark":
		return s.Unpark(op.name)
	case "charge":
		return s.ChargeBudget(op.name, op.amount)
	case "progress":
		return s.Progress(op.name, op.amount, op.amount)
	}
	return nil
}

// normStatus is the comparable projection of a Status: everything the
// API exposes, excluding the unexported bookkeeping (baseCost differs
// legitimately between a restored record and a live one).
type normStatus struct {
	Job      Job
	State    State
	Attempts int
	Progress float64
	Cost     float64
	Error    string
}

// normalize projects a service's state for equivalence comparison,
// folding the requeue-on-recovery rule in: a Running job surviving a
// crash is exactly a Pending job with progress reset.
func normalize(s *Service) map[string]normStatus { return normalizeAll(s.Statuses()) }

func normalizeAll(statuses []Status) map[string]normStatus {
	out := make(map[string]normStatus)
	for _, st := range statuses {
		n := normStatus{Job: st.Job, State: st.State, Attempts: st.Attempts, Progress: st.Progress, Cost: st.Cost, Error: st.Error}
		if n.State == StateRunning {
			n.State = StatePending
			n.Progress = 0
		}
		out[st.Job.Name] = n
	}
	return out
}

// modelAt replays acked ops on a volatile service and returns its
// normalized state plus budget.
func modelAt(t *testing.T, ops []svcOp) (map[string]normStatus, BudgetState) {
	t.Helper()
	m, err := OpenService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applySvcOp(m, op)
	}
	return normalize(m), m.Budget()
}

// svcCrash is the failpoint hook for the service-level sweep. The
// mutex matters: with online checkpointing the hook is hit from both
// the commit path and the background flush goroutine.
type svcCrash struct {
	mu    sync.Mutex
	n     int
	torn  bool
	hits  int
	fired bool
	point string
}

func (c *svcCrash) fn(point string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	if c.hits == c.n {
		c.fired = true
		c.point = point
		if c.torn && (point == jobstore.FailWALWrite || point == jobstore.FailRunWrite) {
			return jobstore.ErrTornWrite
		}
		return jobstore.ErrInjectedCrash
	}
	return nil
}

func (c *svcCrash) totalHits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

func (c *svcCrash) state() (fired bool, point string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired, c.point
}

// TestServiceCrashEquivalence is the headline harness: identical
// lifecycle op sequences run against the LSM-backed service and an
// in-memory reference model, with a simulated crash at every fsync and
// rename the storage engine performs. After each crash the store is
// reopened and its recovered state must equal the model either before
// or after the in-flight op — atomic commit semantics, no third
// option. Budget must never double-charge or lose an acked charge.
func TestServiceCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is not short")
	}
	crashedPoints := map[string]bool{}
	for _, seed := range []int64{41, 42} {
		for _, torn := range []bool{false, true} {
			ops := genSvcOps(seed, 30)

			// Dry run: count failpoint hits with a hook that never fires.
			// Quiesce after every op so the background checkpoint flush's
			// hits land in a deterministic position in the global order —
			// the sweep below replays the same schedule.
			counter := &svcCrash{n: -1}
			dry, err := OpenService(ServiceConfig{Dir: t.TempDir(), SnapshotEvery: 3, StoreFail: counter.fn})
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				applySvcOp(dry, op)
				dry.Quiesce()
			}
			dry.Close()
			if counter.totalHits() == 0 {
				t.Fatalf("seed %d: no failpoint hits", seed)
			}

			for n := 1; n <= counter.totalHits(); n++ {
				dir := t.TempDir()
				crash := &svcCrash{n: n, torn: torn}
				s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: 3, StoreFail: crash.fn})
				if err != nil {
					t.Fatalf("seed %d n %d: open: %v", seed, n, err)
				}
				crashedAt, waited := -1, 0
				for i, op := range ops {
					if applySvcOp(s, op) == nil && op.kind != "progress" {
						waited = i + 1 // durable, and so is everything before it
					}
					s.Quiesce()
					if fired, _ := crash.state(); fired {
						crashedAt = i
						break
					}
				}
				s.Close()
				if crashedAt == -1 {
					continue // sequence finished before hit n (scheduling drift)
				}
				_, crashPoint := crash.state()
				crashedPoints[crashPoint] = true

				r, err := OpenService(ServiceConfig{Dir: dir})
				if err != nil {
					t.Fatalf("seed %d n %d (%s): recovery failed: %v", seed, n, crashPoint, err)
				}
				got := normalize(r)
				gotBudget := r.Budget()
				r.Close()

				// The recovered state must equal the model before or after
				// the in-flight op. Progress records are advisory — staged
				// in order but not waited for — so the ones reported since
				// the last op that waited for its commit may still have
				// been staged when the crash hit: the model may also stand
				// anywhere back to that op, never further. Close, unlike a
				// crash, never loses one (TestProgressSurvivesClose).
				lo := waited
				matched := false
				for k := lo; k <= crashedAt+1 && !matched; k++ {
					state, budget := modelAt(t, ops[:k])
					matched = reflect.DeepEqual(got, state) && reflect.DeepEqual(gotBudget, budget)
				}
				if !matched {
					beforeState, beforeBudget := modelAt(t, ops[:crashedAt])
					afterState, afterBudget := modelAt(t, ops[:crashedAt+1])
					t.Fatalf("seed %d torn=%v crash at hit %d (%s, op %d %+v):\nrecovered %v budget %v\nbefore    %v budget %v\nafter     %v budget %v",
						seed, torn, n, crashPoint, crashedAt, ops[crashedAt],
						got, gotBudget, beforeState, beforeBudget, afterState, afterBudget)
				}
			}
		}
	}
	for _, p := range jobstore.LSMFailpoints {
		if !crashedPoints[p] {
			t.Errorf("failpoint %s never crashed in the service sweep", p)
		}
	}
}

// TestStatusesPageProperty pins the in-memory indexes to the table:
// for random op interleavings, every (state, tenant, page size)
// combination of StatusesPage must equal the brute-force filter of the
// full sorted listing, page by page.
func TestStatusesPageProperty(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		s, err := OpenService(ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range genSvcOps(seed, 120) {
			applySvcOp(s, op)
		}
		all := s.Statuses()
		states := []State{"", StatePending, StateRunning, StateParked, StateDone, StateFailed, StateCancelled}
		tenants := []string{"", "acme", "globex", "missing"}
		for _, state := range states {
			for _, tenant := range tenants {
				var want []string
				for _, st := range all {
					if state != "" && st.State != state {
						continue
					}
					if tenant != "" && st.Job.Tenant != tenant {
						continue
					}
					want = append(want, st.Job.Name)
				}
				for _, limit := range []int{1, 2, 100} {
					var got []string
					after := ""
					for {
						page, more := s.StatusesPage(after, limit, state, tenant)
						if len(page) > limit {
							t.Fatalf("page of %d exceeds limit %d", len(page), limit)
						}
						for _, st := range page {
							got = append(got, st.Job.Name)
						}
						if !more {
							break
						}
						after = page[len(page)-1].Job.Name
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d state %q tenant %q limit %d: paged %v, want %v", seed, state, tenant, limit, got, want)
					}
				}
			}
		}
	}
}

// groupOp is one op of a job's history in the concurrent sweep.
type groupOp struct {
	kind  string // "submit", "claim", "progress", "charge", "complete", "fail", "cancel"
	acked bool
}

// groupHistory records, per job, the ops issued against it in order. A
// job has one owner at a time (its submitter until the submit is
// acknowledged, then whoever claimed it), so each job's history is
// linear even though eight committers interleave.
type groupHistory struct {
	mu   sync.Mutex
	jobs map[string][]groupOp
}

// run issues one op against name, recording it before the call (it may
// reach disk without ever being acknowledged) and marking it acked after.
func (h *groupHistory) run(name, kind string, op func() error) error {
	h.mu.Lock()
	i := len(h.jobs[name])
	h.jobs[name] = append(h.jobs[name], groupOp{kind: kind})
	h.mu.Unlock()
	err := op()
	if err == nil {
		h.mu.Lock()
		h.jobs[name][i].acked = true
		h.mu.Unlock()
	}
	return err
}

// groupModel replays ops, a prefix of one job's history, on a volatile
// service holding only that job, and returns its normalized record (ok
// false before the submit).
func groupModel(t *testing.T, name string, ops []groupOp) (st normStatus, ok bool) {
	t.Helper()
	m, err := OpenService(ServiceConfig{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.kind {
		case "submit":
			_, err = m.Submit(testJob(name))
		case "claim":
			if _, claimed := m.Claim(); !claimed {
				err = errNothingPending
			}
		case "progress":
			err = m.Progress(name, 0.5, 1)
		case "complete":
			err = m.Complete(name, 2)
		case "fail":
			_, err = m.Fail(name, errors.New("induced failure"), 1)
		case "cancel":
			err = m.Cancel(name)
		}
		if err != nil {
			t.Fatalf("model replay of %s %v: %v", name, op, err)
		}
	}
	st, ok = normalize(m)[name]
	return st, ok
}

const (
	groupSvcCommitters = 8
	groupSvcJobsEach   = 3
)

// runServiceGroups drives groupSvcCommitters concurrent committers
// against s. Each submits its own jobs and, after every submit, claims
// whatever is oldest — usually another committer's job — and drives it:
// an advisory progress report, a budget charge, then a verdict chosen by
// the job's name. It stops at the first error or once stop reports true.
func runServiceGroups(s *Service, h *groupHistory, stop func() bool) {
	var wg sync.WaitGroup
	for w := 0; w < groupSvcCommitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < groupSvcJobsEach && !stop(); i++ {
				own := fmt.Sprintf("w%d-j%d", w, i)
				if h.run(own, "submit", func() error { _, err := s.Submit(testJob(own)); return err }) != nil {
					return
				}
				st, ok := s.Claim()
				if !ok {
					continue
				}
				name := st.Job.Name
				h.run(name, "claim", func() error { return nil })
				verdict := []string{"complete", "fail", "cancel"}[int(name[1]-'0'+name[4]-'0')%3]
				steps := []struct {
					kind string
					op   func() error
				}{
					{"progress", func() error { return s.Progress(name, 0.5, 1) }},
					{"charge", func() error { return s.ChargeBudget(name, 1) }},
					{verdict, func() error {
						switch verdict {
						case "complete":
							return s.Complete(name, 2)
						case "fail":
							_, err := s.Fail(name, errors.New("induced failure"), 1)
							return err
						}
						return s.Cancel(name)
					}},
				}
				for _, step := range steps {
					if h.run(name, step.kind, step.op) != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestServiceGroupCrashEquivalence is the crash sweep over group commit
// at the service level: eight concurrent committers over overlapping
// jobs, a crash at every storage failpoint hit (most land while a group
// is in flight). After reopening:
//
//   - acknowledged ⇒ recovered: each job's record equals the model after
//     some prefix of its history no shorter than its acknowledged ops
//     (less the advisory progress reports directly before the crash, and
//     plus at most one claim nobody learned of);
//   - the recovered frames are a prefix of staging order: submissions
//     take consecutive FIFO sequences under the commit lock, so the
//     recovered jobs' sequences have no gap;
//   - each batch is all-or-nothing: records and index entries agree;
//   - the ledger holds no less than the acknowledged charges, no more
//     than the issued ones, and its total is the sum of its lines;
//   - recovery is a fixed point.
func TestServiceGroupCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is not short")
	}
	open := func(dir string, fail jobstore.FailFunc) *Service {
		s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: 7, MaxAttempts: 2, StoreFail: fail})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}
	counter := &svcCrash{n: -1}
	dry := open(t.TempDir(), counter.fn)
	runServiceGroups(dry, &groupHistory{jobs: map[string][]groupOp{}}, func() bool { return false })
	dry.Quiesce()
	dry.Close()

	crashedPoints := map[string]int{}
	for _, torn := range []bool{false, true} {
		for n := 1; n <= counter.totalHits(); n++ {
			dir := t.TempDir()
			crash := &svcCrash{n: n, torn: torn}
			h := &groupHistory{jobs: map[string][]groupOp{}}
			s := open(dir, crash.fn)
			runServiceGroups(s, h, func() bool { fired, _ := crash.state(); return fired })
			s.Quiesce()
			s.Close()
			fired, point := crash.state()
			if !fired {
				continue // this interleaving had fewer hits
			}
			crashedPoints[point]++
			label := fmt.Sprintf("torn=%v hit %d (%s)", torn, n, point)

			primary := checkLSMIndexes(t, dir, label)
			seqs := make([]uint64, 0, len(primary))
			for _, ws := range primary {
				seqs = append(seqs, ws.Seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for i, seq := range seqs {
				if seq != uint64(i) {
					t.Fatalf("%s: recovered submissions %v skip a sequence — not a prefix of staging order", label, seqs)
				}
			}

			r, err := OpenService(ServiceConfig{Dir: dir})
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			got, gotBudget := normalize(r), r.Budget()
			r.Close()

			total := 0.0
			for name, ops := range h.jobs {
				// The shortest legal prefix: every acknowledged op, except
				// that progress reports acknowledged after the last waited
				// op were only staged.
				lo := 0
				var ackedCharges, issuedCharges float64
				for i, op := range ops {
					if op.acked && op.kind != "progress" {
						lo = i + 1
					}
					if op.kind == "charge" {
						issuedCharges++
						if op.acked {
							ackedCharges++
						}
					}
				}
				rec, present := got[name]
				matched := false
				for k := lo; k <= len(ops) && !matched; k++ {
					want, ok := groupModel(t, name, ops[:k])
					matched = ok == present && (!ok || reflect.DeepEqual(rec, want))
					if !matched && k == len(ops) && ok && want.State == StatePending {
						// A claim staged by a committer that never heard back.
						want, _ = groupModel(t, name, append(ops[:k:k], groupOp{kind: "claim"}))
						matched = present && reflect.DeepEqual(rec, want)
					}
				}
				if !matched {
					t.Fatalf("%s: job %s recovered as %+v (present %v), which no prefix >= %d of its history %v explains", label, name, rec, present, lo, ops)
				}
				if c := gotBudget.Jobs[name]; c < ackedCharges || c > issuedCharges {
					t.Fatalf("%s: job %s ledger line %v outside [acknowledged %v, issued %v]", label, name, c, ackedCharges, issuedCharges)
				}
				total += gotBudget.Jobs[name]
			}
			if gotBudget.GlobalSpent != total || len(gotBudget.Jobs) > len(h.jobs) {
				t.Fatalf("%s: ledger %+v does not add up to %v", label, gotBudget, total)
			}
			for name := range got {
				if _, known := h.jobs[name]; !known {
					t.Fatalf("%s: recovered unknown job %s", label, name)
				}
			}

			r2, err := OpenService(ServiceConfig{Dir: dir})
			if err != nil {
				t.Fatalf("%s: second recovery failed: %v", label, err)
			}
			if again, againBudget := normalize(r2), r2.Budget(); !reflect.DeepEqual(again, got) || !reflect.DeepEqual(againBudget, gotBudget) {
				t.Fatalf("%s: recovery is not a fixed point:\nfirst  %v %v\nsecond %v %v", label, got, gotBudget, again, againBudget)
			}
			r2.Close()
		}
	}
	for _, p := range jobstore.LSMFailpoints {
		if crashedPoints[p] == 0 {
			t.Errorf("failpoint %s never crashed in the concurrent service sweep", p)
		}
	}
}

// TestLSMSecondaryIndexConsistency drives random lifecycle traffic
// through the LSM engine with aggressive checkpointing (so records
// cross memtable flushes and compactions), then inspects the raw store:
// the (state, priority, tenant) index keyspaces must correspond 1:1
// with the primary records — no dangling entries, no missing ones.
func TestLSMSecondaryIndexConsistency(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		dir := t.TempDir()
		s, err := OpenService(ServiceConfig{Dir: dir, SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range genSvcOps(seed, 150) {
			applySvcOp(s, op)
		}
		s.Close()

		if primary := checkLSMIndexes(t, dir, fmt.Sprintf("seed %d", seed)); len(primary) == 0 {
			t.Fatalf("seed %d: no jobs made it to the store", seed)
		}
	}
}

// checkLSMIndexes inspects the raw store at dir: the (state, priority,
// tenant) index keyspaces must correspond 1:1 with the primary records —
// no dangling entries, no missing ones. Every event commits its record
// and index entries as one batch, so this is also the all-or-nothing
// check after a crash. It returns the primary records by job name.
func checkLSMIndexes(t *testing.T, dir, label string) map[string]walStatus {
	t.Helper()
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	primary := map[string]walStatus{}
	err = l.Scan(lsmPrimaryPrefix, prefixEnd(lsmPrimaryPrefix), func(k string, v []byte) bool {
		var ws walStatus
		if err := decodeRecord(v, &ws); err != nil {
			t.Fatalf("primary record %q: %v", k, err)
		}
		primary[ws.Job.Name] = ws
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	stateEntries := map[string]string{} // name → indexed state/seq
	err = l.Scan(lsmStatePrefix, prefixEnd(lsmStatePrefix), func(k string, _ []byte) bool {
		parts := strings.Split(strings.TrimPrefix(k, lsmStatePrefix), "/")
		if len(parts) != 3 {
			t.Fatalf("malformed state index key %q", k)
		}
		if prev, dup := stateEntries[parts[2]]; dup {
			t.Fatalf("job %q has two state index entries: %q and %q", parts[2], prev, parts[0])
		}
		stateEntries[parts[2]] = parts[0] + "/" + parts[1]
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ws := range primary {
		want := fmt.Sprintf("%s/%016x", ws.State, ws.Seq)
		if stateEntries[name] != want {
			t.Fatalf("%s: job %q state index = %q, want %q", label, name, stateEntries[name], want)
		}
		delete(stateEntries, name)
	}
	if len(stateEntries) != 0 {
		t.Fatalf("%s: dangling state index entries: %v", label, stateEntries)
	}

	checkOnePerJob := func(prefix string, keyFor func(ws walStatus) string) {
		entries := map[string]bool{}
		err := l.Scan(prefix, prefixEnd(prefix), func(k string, _ []byte) bool {
			entries[k] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, ws := range primary {
			want := keyFor(ws)
			if want == "" {
				continue
			}
			if !entries[want] {
				t.Fatalf("%s: job %q missing index key %q", label, name, want)
			}
			delete(entries, want)
		}
		if len(entries) != 0 {
			t.Fatalf("%s: dangling %s entries: %v", label, prefix, entries)
		}
	}
	checkOnePerJob(lsmPrioPrefix, func(ws walStatus) string {
		return lsmPrioKey(ws.Job.Priority, ws.Job.Name)
	})
	checkOnePerJob(lsmTenantPrefix, func(ws walStatus) string {
		if ws.Job.Tenant == "" {
			return ""
		}
		return lsmTenantKey(ws.Job.Tenant, ws.Job.Name)
	})
	return primary
}
