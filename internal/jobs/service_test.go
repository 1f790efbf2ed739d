package jobs

import (
	"errors"
	"path/filepath"
	"testing"

	"cdas/internal/metrics"
)

func openTestService(t *testing.T, dir string, mutate ...func(*ServiceConfig)) *Service {
	t.Helper()
	cfg := ServiceConfig{Dir: dir}
	for _, f := range mutate {
		f(&cfg)
	}
	s, err := OpenService(cfg)
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	return s
}

func TestServiceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTestService(t, dir)
	if !s.Durable() {
		t.Fatal("service with Dir not durable")
	}
	if _, err := s.Submit(testJob("done-job")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testJob("pending-job")); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Claim()
	if !ok || st.Job.Name != "done-job" {
		t.Fatalf("claimed %v", st)
	}
	if err := s.Progress("done-job", 0.5, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete("done-job", 3.25); err != nil {
		t.Fatal(err)
	}
	// Simulated kill -9: Close only releases the store lock and writes
	// nothing, so the on-disk image is exactly what a dead process
	// leaves behind.
	s.Close()
	s2 := openTestService(t, dir)
	defer s2.Close()
	st, ok = s2.Status("done-job")
	if !ok || st.State != StateDone || st.Cost != 3.25 || st.Progress != 1 {
		t.Errorf("done-job after replay: %+v", st)
	}
	st, ok = s2.Status("pending-job")
	if !ok || st.State != StatePending {
		t.Errorf("pending-job after replay: %+v", st)
	}
	if got := s2.Resumed(); len(got) != 0 {
		t.Errorf("Resumed = %v, want none (no job was running)", got)
	}
	// Query validation data survives too.
	if st.Job.Query.RequiredAccuracy != 0.95 || len(st.Job.Query.Keywords) != 2 {
		t.Errorf("query fields lost in replay: %+v", st.Job.Query)
	}
}

func TestServiceResumesRunningJobs(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTestService(t, dir)
	s.Submit(testJob("interrupted"))
	s.Claim()
	s.Progress("interrupted", 0.7, 2.0)
	// kill -9 while running (Close writes nothing; it only frees the
	// store lock so the next incarnation can open the same image).
	s.Close()
	s2 := openTestService(t, dir, func(c *ServiceConfig) { c.Counters = reg })
	defer s2.Close()
	if got := s2.Resumed(); len(got) != 1 || got[0] != "interrupted" {
		t.Fatalf("Resumed = %v", got)
	}
	st, _ := s2.Status("interrupted")
	if st.State != StatePending {
		t.Errorf("resumed job state = %s, want pending", st.State)
	}
	if st.Attempts != 1 {
		t.Errorf("resume burned an attempt: %d", st.Attempts)
	}
	if st.Cost != 2.0 {
		t.Errorf("cost of crashed attempt lost: %v", st.Cost)
	}
	if reg.Get(metrics.CounterJobsResumed) != 1 {
		t.Error("resume counter not incremented")
	}
	// The resumed job is claimable and completable.
	st, ok := s2.Claim()
	if !ok || st.Job.Name != "interrupted" || st.Attempts != 2 {
		t.Fatalf("reclaim: %+v ok=%v", st, ok)
	}
	if err := s2.Complete("interrupted", 1.0); err != nil {
		t.Fatal(err)
	}
	st, _ = s2.Status("interrupted")
	// Cost = crashed attempt's 2.0 + finishing attempt's 1.0.
	if st.Cost != 3.0 {
		t.Errorf("final cost = %v, want 3.0", st.Cost)
	}
}

func TestServiceSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTestService(t, dir, func(c *ServiceConfig) {
		c.SnapshotEvery = 5
		c.Counters = reg
	})
	for i := 0; i < 4; i++ {
		name := string(rune('a'+i)) + "-job"
		s.Submit(testJob(name))
		s.Claim()
		s.Complete(name, 1)
	}
	s.Close()
	if reg.Get(metrics.CounterWALSnapshots) == 0 {
		t.Fatal("no checkpoint cut despite SnapshotEvery=5 and 12 events")
	}
	// The checkpoint flushed the records into a sorted run.
	if runs, err := filepath.Glob(filepath.Join(dir, "run-*.run")); err != nil || len(runs) == 0 {
		t.Fatalf("no run file after the checkpoint (%v)", err)
	}
	// Full state survives the checkpoint boundary.
	s2 := openTestService(t, dir)
	defer s2.Close()
	sts := s2.Statuses()
	if len(sts) != 4 {
		t.Fatalf("replayed %d jobs, want 4", len(sts))
	}
	for _, st := range sts {
		if st.State != StateDone || st.Cost != 1 {
			t.Errorf("replayed %s: %+v", st.Job.Name, st)
		}
	}
	// Terminal jobs must not be claimable after replay (no double runs).
	if st, ok := s2.Claim(); ok {
		t.Errorf("claimed terminal job %q after replay", st.Job.Name)
	}
}

func TestServiceVolatileMode(t *testing.T) {
	s := openTestService(t, "")
	defer s.Close()
	if s.Durable() {
		t.Error("empty Dir reported durable")
	}
	if _, err := s.Submit(testJob("j")); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Claim()
	if !ok || st.Job.Name != "j" {
		t.Fatalf("claim: %+v", st)
	}
	if err := s.Complete("j", 0); err != nil {
		t.Fatal(err)
	}
}

func TestServiceDuplicateSubmitRejected(t *testing.T) {
	s := openTestService(t, t.TempDir())
	defer s.Close()
	s.Submit(testJob("j"))
	if _, err := s.Submit(testJob("j")); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate submit err = %v", err)
	}
}

func TestServiceWakeSignal(t *testing.T) {
	s := openTestService(t, "")
	defer s.Close()
	s.Submit(testJob("j"))
	select {
	case <-s.Wake():
	default:
		t.Fatal("Submit did not signal the wake channel")
	}
}

// TestServiceRevertsOnLogFailure: a transition the store refuses must
// not stick in memory — the API would otherwise acknowledge state the
// store never saw.
func TestServiceRevertsOnLogFailure(t *testing.T) {
	dir := t.TempDir()
	s := openTestService(t, dir)
	s.Submit(testJob("j"))
	if _, ok := s.Claim(); !ok {
		t.Fatal("nothing claimed")
	}
	s.Progress("j", 0.25, 0.5)
	// Kill the store underneath the service: every commit now fails.
	s.Close()
	if err := s.Complete("j", 9.9); err == nil {
		t.Fatal("Complete succeeded on a closed store")
	}
	got, _ := s.Status("j")
	if got.State != StateRunning || got.Cost != 0.5 || got.Progress != 0.25 {
		t.Errorf("state after failed commit = %+v, want the pre-Complete running record", got)
	}
	// Claim rollback: the failed-commit path must also revert attempts.
	s2 := openTestService(t, "")
	s2.Submit(testJob("k"))
	s2.lsm = s.lsm // closed store: staging fails
	if _, ok := s2.Claim(); ok {
		t.Error("Claim succeeded against a closed store")
	}
	got, _ = s2.Status("k")
	if got.State != StatePending || got.Attempts != 0 {
		t.Errorf("after failed claim: %+v, want untouched pending record", got)
	}
}

func TestServiceCancelIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTestService(t, dir)
	s.Submit(testJob("j"))
	if err := s.Cancel("j"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestService(t, dir)
	defer s2.Close()
	st, _ := s2.Status("j")
	if st.State != StateCancelled {
		t.Errorf("cancelled state lost in replay: %s", st.State)
	}
	if _, ok := s2.Claim(); ok {
		t.Error("cancelled job claimable after replay")
	}
}
