package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

// A job of a kind submit validation accepts but the server cannot
// execute must fail with a reason naming the kind — not run as a TSA
// keyword query, which would spend crowd money on work nobody asked for.
func TestJobOfKindWithoutRunnerFailsAndBuysNothing(t *testing.T) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	generate := func(seed uint64, movie string) []textgen.Tweet {
		tweets, err := textgen.Generate(textgen.Config{Seed: seed, Movies: []string{movie}, TweetsPerMovie: 20})
		if err != nil {
			t.Fatal(err)
		}
		return tweets
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform:      engine.CrowdPlatform{Platform: platform},
		Engine:        engine.Config{RequiredAccuracy: 0.85, HITSize: 20, Seed: 1},
		Golden:        tsa.GoldenQuestions(generate(2, "The Calibration Reel")),
		FlushInterval: 5 * time.Millisecond,
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
	tsaRunner := tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{Scheduler: sched, Stream: generate(3, "Thor")})
	wrongRunner := func(_ context.Context, job jobs.Job, _ func(progress, cost float64)) error {
		return fmt.Errorf("job %q of kind %q reached another kind's runner", job.Name, job.Kind)
	}
	disp, err := jobs.NewDispatcher(svc, runnerByKind(tsaRunner, wrongRunner, wrongRunner), 2)
	if err != nil {
		t.Fatal(err)
	}
	disp.Start()
	defer disp.Stop()

	// The query matches the stream: run as TSA it would publish HITs.
	query := tsa.Query("Thor", 0.85, time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour)
	settle := func(name string, kind jobs.Kind) jobs.Status {
		t.Helper()
		if _, err := disp.Submit(jobs.Job{Name: name, Kind: kind, Query: query}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if st, _ := disp.Status(name); st.State.Terminal() {
				return st
			}
		}
		t.Fatalf("job %q did not settle", name)
		return jobs.Status{}
	}
	for _, kind := range []jobs.Kind{jobs.KindImageTag, jobs.KindCustom} {
		st := settle("job-"+string(kind), kind)
		want := fmt.Sprintf("no runner for kind %q", kind)
		if st.State != jobs.StateFailed || !strings.Contains(st.Error, want) || st.Attempts != 1 || st.Cost != 0 {
			t.Errorf("%s job: state %s after %d attempts, cost %v, error %q; want failed after 1 with %q",
				kind, st.State, st.Attempts, st.Cost, st.Error, want)
		}
	}
	if spent, enqueued := platform.TotalSpent(), sched.State().QuestionsEnqueued; spent != 0 || enqueued != 0 {
		t.Errorf("jobs without a runner enqueued %d questions and spent %v on the crowd", enqueued, spent)
	}
	// The same query as a TSA job does run, so the zeros above are the
	// dispatch's doing and not an empty filter's.
	if st := settle("job-tsa", jobs.KindTSA); st.State != jobs.StateDone || platform.TotalSpent() == 0 {
		t.Errorf("tsa job: state %s (%s), platform spend %v; want done with crowd work bought",
			st.State, st.Error, platform.TotalSpent())
	}
}

// A charge the durable ledger refuses is counted, so a store ledger that
// has fallen behind the scheduler's shows at /v1/metrics.
func TestPersistChargeCountsRefusedCharges(t *testing.T) {
	counters := metrics.NewRegistry()
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: t.TempDir(), Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	charge := persistCharge(svc, counters)

	charge("a", 0.25)
	if got := svc.Budget(); got.GlobalSpent != 0.25 || got.Jobs["a"] != 0.25 {
		t.Fatalf("ledger after a persisted charge: %+v", got)
	}
	if n := counters.Get(metrics.CounterBudgetChargeFailures); n != 0 {
		t.Fatalf("%s = %d after a persisted charge, want 0", metrics.CounterBudgetChargeFailures, n)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	charge("a", 0.25)
	if n := counters.Get(metrics.CounterBudgetChargeFailures); n != 1 {
		t.Fatalf("%s = %d after a charge against a closed service, want 1", metrics.CounterBudgetChargeFailures, n)
	}
	if got := svc.Budget(); got.GlobalSpent != 0.25 {
		t.Fatalf("a refused charge moved the ledger: %+v", got)
	}
}
