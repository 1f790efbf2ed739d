package standing

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
)

// windowCollector records published window closes across a run.
type windowCollector struct {
	mu   sync.Mutex
	wins []WindowResult
	done bool
}

func (c *windowCollector) publish(_ jobs.Job, win *WindowResult, _ jobs.StreamMark, _ exec.Summary, _ float64, d bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if win != nil {
		c.wins = append(c.wins, *win)
	}
	c.done = c.done || d
}

func (c *windowCollector) windows() []WindowResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]WindowResult(nil), c.wins...)
}

// delayedPlatform paces HIT publication so the first incarnation has a
// mid-stream moment to die in.
type delayedPlatform struct {
	engine.Platform
	delay time.Duration
}

func (p delayedPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	time.Sleep(p.delay)
	return p.Platform.Publish(hit, n)
}

// killIncarnation wires one process lifetime: scheduler (charging the
// service's budget ledger), full-barrier coordinator, standing runner
// with a window collector, and a single-worker dispatcher.
func killIncarnation(t *testing.T, svc *jobs.Service, counters *metrics.Registry, delay time.Duration) (*jobs.Dispatcher, *windowCollector, func()) {
	t.Helper()
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	golden := make([]crowd.Question, 12)
	for i := range golden {
		golden[i] = crowd.Question{
			ID:     fmt.Sprintf("golden/g%03d", i),
			Text:   fmt.Sprintf("Calibration tweet #%d", i),
			Domain: append([]string(nil), textgen.Labels...),
			Truth:  textgen.LabelNeutral,
		}
	}
	var pf engine.Platform = engine.CrowdPlatform{Platform: platform}
	if delay > 0 {
		pf = delayedPlatform{Platform: pf, delay: delay}
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform: pf,
		Engine:   engine.Config{HITSize: 20, MaxInflightHITs: 4, Seed: 9},
		Golden:   golden,
		OnCharge: func(job string, amount float64) { _ = svc.ChargeBudget(job, amount) },
		Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := &windowCollector{}
	runner := NewRunner(RunnerConfig{
		Scheduler: sched,
		Coord:     NewCoordinator(sched, 0),
		Marks:     svc,
		Counters:  counters,
		Publish:   col.publish,
	})
	disp, err := jobs.NewDispatcher(svc, runner, 1)
	if err != nil {
		sched.Close()
		t.Fatal(err)
	}
	return disp, col, sched.Close
}

// TestStandingKillResume is the durability contract end to end on the
// LSM store: kill -9 mid-stream (the store stops accepting writes with
// windows still open), reopen, and the resumed run continues from the
// last durably committed window — never re-running or re-charging a
// window the dead process already paid for.
func TestStandingKillResume(t *testing.T) {
	dir := t.TempDir()
	counters := metrics.NewRegistry()
	job := continuousJob("kill/thor", jobs.StreamSpec{
		Items:          96,
		Rate:           0.4,
		SourceSeed:     7,
		WindowCapacity: 5,
		MaxBacklog:     10,
	})
	job.Query.RequiredAccuracy = 0.85

	// ---- First incarnation: commit two windows, then kill -9. ----
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	disp, _, closeSched := killIncarnation(t, svc, counters, 25*time.Millisecond)
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
			t.Fatal("no second window committed before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	// The store dies first — exactly what a killed process leaves
	// behind: the last durable word is a committed window mark and a
	// "running" lifecycle record.
	svc.Close()
	disp.Stop()
	closeSched()
	crash, ok := svc.StreamMarkFor(job.Name)
	if !ok || crash.Window < 1 {
		t.Fatalf("crash mark = %+v ok=%v, want window >= 1", crash, ok)
	}
	if crash.Spent <= 0 {
		t.Fatalf("crash mark should carry spend, got %v", crash.Spent)
	}

	// ---- Second incarnation: replay the LSM store and resume. ----
	svc2, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	recovered, ok := svc2.StreamMarkFor(job.Name)
	if !ok || recovered != crash {
		t.Fatalf("recovered mark %+v != crash mark %+v", recovered, crash)
	}
	if len(svc2.Resumed()) == 0 {
		t.Fatal("replay should resume the interrupted continuous job")
	}
	disp2, col2, closeSched2 := killIncarnation(t, svc2, counters, 0)
	defer closeSched2()
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

	// The resumed run must pick up at the window after the last
	// committed one — windows the dead process paid for are not re-run.
	wins := col2.windows()
	if len(wins) == 0 {
		t.Fatal("resumed run closed no windows")
	}
	if first := wins[0].Window; first != crash.Window+1 {
		t.Errorf("resumed run started at window %d, want %d", first, crash.Window+1)
	}
	// ...and never re-charged: the final committed spend is exactly the
	// crash-time spend plus the resumed windows' costs.
	final, ok := svc2.StreamMarkFor(job.Name)
	if !ok || final.Window <= crash.Window {
		t.Fatalf("final mark = %+v, want window > %d", final, crash.Window)
	}
	var resumedCost float64
	for _, w := range wins {
		resumedCost += w.Cost
	}
	if diff := math.Abs(final.Spent - (crash.Spent + resumedCost)); diff > 1e-9 {
		t.Errorf("spend re-charged: final %v != crash %v + resumed windows %v (diff %v)",
			final.Spent, crash.Spent, resumedCost, diff)
	}
}
