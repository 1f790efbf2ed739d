package tsa

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
)

// summarySink records the final summary each job publishes.
type summarySink struct {
	mu   sync.Mutex
	done map[string]exec.Summary
}

func (s *summarySink) UpdateFromSummary(name string, sum exec.Summary, _ float64, done bool) {
	if !done {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[name] = sum
}

func (s *summarySink) summary(name string) (exec.Summary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, ok := s.done[name]
	return sum, ok
}

// TestEnqueueCacheJobDoneWithoutFlush: once one TSA job has paid for its
// questions, a second job asking the same keywords in the same domain is
// answered entirely from the cache and reaches done without any further
// flush generation — free, and with the first job's results.
func TestEnqueueCacheJobDoneWithoutFlush(t *testing.T) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform: engine.CrowdPlatform{Platform: platform},
		Engine:   engine.Config{RequiredAccuracy: 0.85, HITSize: 20, Seed: 1},
		Golden:   GoldenQuestions(testStream(t, 2, []string{"The Calibration Reel"}, 20)),
		// FlushInterval 0: generations run only when the test flushes.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	svc, err := jobs.OpenService(jobs.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sink := &summarySink{done: make(map[string]exec.Summary)}
	runner := NewScheduledJobRunner(ScheduledRunnerConfig{
		Scheduler: sched,
		Stream:    testStream(t, 3, []string{"Thor"}, 20),
		API:       sink,
	})
	disp, err := jobs.NewDispatcher(svc, runner, 2)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	defer disp.Stop()

	query := Query("Thor", 0.85, queryStart, 24*time.Hour)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	settled := func(name string) func() bool {
		return func() bool { st, _ := disp.Status(name); return st.State.Terminal() }
	}

	if _, err := disp.Submit(jobs.Job{Name: "a", Kind: jobs.KindTSA, Query: query}); err != nil {
		t.Fatal(err)
	}
	waitFor("job a to enqueue", func() bool { return sched.State().PendingJobs == 1 })
	if err := sched.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor("job a to settle", settled("a"))
	stA, _ := disp.Status("a")
	if stA.State != jobs.StateDone || stA.Cost <= 0 {
		t.Fatalf("job a: state %s (%s), cost %v; want done with crowd work bought", stA.State, stA.Error, stA.Cost)
	}
	generations := sched.State().Generations

	if _, err := disp.Submit(jobs.Job{Name: "b", Kind: jobs.KindTSA, Query: query}); err != nil {
		t.Fatal(err)
	}
	waitFor("job b to settle without a flush", settled("b"))
	stB, _ := disp.Status("b")
	if stB.State != jobs.StateDone || stB.Cost != 0 {
		t.Errorf("job b: state %s (%s), cost %v; want done at cost 0", stB.State, stB.Error, stB.Cost)
	}
	if got := sched.State().Generations; got != generations {
		t.Errorf("generations %d -> %d: job b waited on a flush", generations, got)
	}
	sumA, okA := sink.summary("a")
	sumB, okB := sink.summary("b")
	// The cache keeps answer, confidence and votes, not voter agreement:
	// a cache-served verdict reports Quality 0, whichever path serves it.
	sumA.Quality = 0
	if !okA || !okB || !reflect.DeepEqual(sumA, sumB) {
		t.Errorf("job b's results differ from job a's:\n a %+v\n b %+v", sumA, sumB)
	}
}
