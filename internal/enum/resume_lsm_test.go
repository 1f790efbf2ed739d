package enum

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"cdas/internal/jobs"
	"cdas/internal/metrics"
)

// slowSource paces batches so the first incarnation has a mid-run
// moment to die in.
type slowSource struct {
	Source
	delay time.Duration
}

func (s slowSource) Batch(i int) []Contribution {
	time.Sleep(s.delay)
	return s.Source.Batch(i)
}

// enumIncarnation wires one process lifetime: scheduler charging the
// service's durable budget, enum runner committing marks to the LSM
// store, single-worker dispatcher.
func enumIncarnation(t *testing.T, svc *jobs.Service, counters *metrics.Registry, delay time.Duration) (*jobs.Dispatcher, *enumCollector, func()) {
	t.Helper()
	sched := testScheduler(t, 0, func(job string, amount float64) { _ = svc.ChargeBudget(job, amount) }, counters)
	col := &enumCollector{}
	source := func(job jobs.Job) (Source, error) {
		src, err := NewSimSource(job)
		if err != nil || delay <= 0 {
			return src, err
		}
		return slowSource{Source: src, delay: delay}, nil
	}
	runner := NewRunner(RunnerConfig{
		Scheduler: sched,
		Source:    source,
		Marks:     svc,
		OnCharge:  func(job string, amount float64) { _ = svc.ChargeBudget(job, amount) },
		Counters:  counters,
		Publish:   col.publish,
	})
	disp, err := jobs.NewDispatcher(svc, runner, 1)
	if err != nil {
		t.Fatal(err)
	}
	return disp, col, func() {}
}

// TestEnumKillResume is the enumeration durability contract end to end
// on the LSM store: kill -9 mid-run (the store stops accepting writes
// with batches still to buy), reopen, and the resumed run continues
// from the batch after the last durably committed one — never re-buying
// or re-charging a batch the dead process already paid for, and never
// losing a discovered item.
func TestEnumKillResume(t *testing.T) {
	dir := t.TempDir()
	counters := metrics.NewRegistry()
	job := enumJob("kill/audubon", jobs.EnumSpec{
		ItemValue:  10, // high value: the marginal rule never stops early
		Universe:   200,
		MaxBatches: 10,
		SourceSeed: 29,
	})

	// ---- First incarnation: commit two batches, then kill -9. ----
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	disp, _, _ := enumIncarnation(t, svc, counters, 25*time.Millisecond)
	disp.Start()
	if _, err := disp.Submit(job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if mark, ok := svc.StreamMarkFor(job.Name); ok && mark.Window >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no second batch committed before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	// The store dies first — what a killed process leaves behind: a
	// committed batch mark and a "running" lifecycle record.
	svc.Close()
	disp.Stop()
	crash, ok := svc.StreamMarkFor(job.Name)
	if !ok || crash.Window < 1 {
		t.Fatalf("crash mark = %+v ok=%v, want window >= 1", crash, ok)
	}
	if crash.Spent <= 0 || crash.Enum == nil || len(crash.Enum.Counts) == 0 {
		t.Fatalf("crash mark should carry spend and a result set, got %+v", crash)
	}

	// ---- Second incarnation: replay the LSM store and resume. ----
	svc2, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	recovered, ok := svc2.StreamMarkFor(job.Name)
	if !ok {
		t.Fatal("no recovered mark")
	}
	crashJSON, _ := json.Marshal(crash)
	recoveredJSON, _ := json.Marshal(recovered)
	if string(crashJSON) != string(recoveredJSON) {
		t.Fatalf("recovered mark %s != crash mark %s", recoveredJSON, crashJSON)
	}
	if len(svc2.Resumed()) == 0 {
		t.Fatal("replay should resume the interrupted enumeration job")
	}
	disp2, col2, _ := enumIncarnation(t, svc2, counters, 0)
	disp2.Start()
	deadline = time.Now().Add(30 * time.Second)
	for {
		st, ok := disp2.Status(job.Name)
		if ok && st.State.Terminal() {
			if st.State != jobs.StateDone {
				t.Fatalf("resumed job ended %s (%s), want done", st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	disp2.Stop()

	// The resumed run must pick up at the batch after the last committed
	// one — batches the dead process paid for are not re-bought.
	col2.mu.Lock()
	batches := append([]BatchResult(nil), col2.batches...)
	done := col2.done
	col2.mu.Unlock()
	if len(batches) == 0 || !done {
		t.Fatalf("resumed run published %d batches, done=%v", len(batches), done)
	}
	if first := batches[0].Batch; first != crash.Window+1 {
		t.Errorf("resumed run started at batch %d, want %d", first, crash.Window+1)
	}
	// ...and never re-charged: final committed spend is exactly the
	// crash-time spend plus the resumed batches' costs, and the durable
	// budget state agrees.
	final, ok := svc2.StreamMarkFor(job.Name)
	if !ok || final.Window != job.Enum.MaxBatches-1 {
		t.Fatalf("final mark = %+v, want window %d", final, job.Enum.MaxBatches-1)
	}
	if final.Enum.Stopped != StopMaxBatches {
		t.Fatalf("final stop = %q, want %q", final.Enum.Stopped, StopMaxBatches)
	}
	var resumedCost float64
	for _, b := range batches {
		resumedCost += b.Cost
	}
	if diff := math.Abs(final.Spent - (crash.Spent + resumedCost)); diff > 1e-9 {
		t.Errorf("spend re-charged: final %v != crash %v + resumed batches %v (diff %v)",
			final.Spent, crash.Spent, resumedCost, diff)
	}
	budget := svc2.Budget()
	if diff := math.Abs(budget.Jobs[job.Name] - final.Spent); diff > 1e-9 {
		t.Errorf("durable budget %v != mark spend %v", budget.Jobs[job.Name], final.Spent)
	}
	// No discovered item was lost across the crash: every item in the
	// crash set is still in the final set with at least its old count.
	for key, n := range crash.Enum.Counts {
		if final.Enum.Counts[key] < n {
			t.Errorf("item %s count regressed: %d -> %d", key, n, final.Enum.Counts[key])
		}
	}
	// The resumed contributions line up exactly: batches are pure in
	// their index, so the full run's contribution count is what a single
	// uninterrupted run would have produced.
	if want := int64(job.Enum.MaxBatches * job.Enum.BatchContributions()); final.Enum.Contributions != want {
		t.Errorf("contributions = %d, want %d", final.Enum.Contributions, want)
	}
}
