package enum

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/stats"
	"cdas/internal/textgen"
)

// testScheduler builds a minimal scheduler: the enum runner only uses
// its HIT price and budget ledger, but construction still probes the
// engine template.
func testScheduler(t *testing.T, globalBudget float64, onCharge func(string, float64), counters *metrics.Registry) *scheduler.Scheduler {
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
	sched, err := scheduler.New(scheduler.Config{
		Platform:     engine.CrowdPlatform{Platform: platform},
		Engine:       engine.Config{HITSize: 20, MaxInflightHITs: 4, Seed: 9},
		Golden:       golden,
		GlobalBudget: globalBudget,
		OnCharge:     onCharge,
		Counters:     counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	return sched
}

// enumJob builds a valid enumeration job.
func enumJob(name string, spec jobs.EnumSpec) jobs.Job {
	return jobs.Job{
		Name:  name,
		Kind:  jobs.KindEnumeration,
		Query: jobs.Query{Keywords: []string{"seabird"}},
		Enum:  &spec,
	}
}

// enumCollector records published enumeration progress.
type enumCollector struct {
	mu      sync.Mutex
	batches []BatchResult
	items   []Item
	mark    jobs.StreamMark
	est     stats.SpeciesEstimate
	done    bool
}

func (c *enumCollector) publish(_ jobs.Job, b *BatchResult, items []Item, mark jobs.StreamMark, est stats.SpeciesEstimate, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b != nil {
		c.batches = append(c.batches, *b)
	}
	c.items = append([]Item(nil), items...)
	c.mark = mark
	c.est = est
	c.done = c.done || done
}

func TestResultSetDedupsVariants(t *testing.T) {
	set := NewResultSet()
	k1, new1 := set.Observe("Blue Whale", 0)
	k2, new2 := set.Observe("  blue   WHALE ", 1)
	if !new1 || new2 {
		t.Fatalf("dedup broken: new1=%v new2=%v", new1, new2)
	}
	if k1 != k2 {
		t.Fatalf("variant keys differ: %q vs %q", k1, k2)
	}
	if set.Distinct() != 1 || set.Contributions() != 2 {
		t.Fatalf("distinct=%d contributions=%d, want 1/2", set.Distinct(), set.Contributions())
	}
	items := set.Items()
	if len(items) != 1 || items[0].Text != "blue whale" || items[0].Count != 2 || items[0].Batch != 0 {
		t.Fatalf("items = %+v", items)
	}

	// Case folds as in question keys: lower-casing alone keeps µ from
	// its upper case Μ (→ μ), and final ς from Σ (→ σ).
	for _, pair := range [][2]string{{"µ", "Μ"}, {"λόγος", "ΛΌΓΟΣ"}} {
		set := NewResultSet()
		k1, _ := set.Observe(pair[0], 0)
		k2, isNew := set.Observe(pair[1], 1)
		if k1 != k2 || isNew || set.Distinct() != 1 {
			t.Errorf("%q and %q are two items: keys %q, %q", pair[0], pair[1], k1, k2)
		}
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	set := NewResultSet()
	for i, text := range []string{"a", "b", "a", "c", "b", "a"} {
		set.Observe(text, i/2)
	}
	restored := RestoreResultSet(set.Progress())
	if restored.Distinct() != set.Distinct() || restored.Contributions() != set.Contributions() {
		t.Fatalf("restore lost counts: %d/%d vs %d/%d",
			restored.Distinct(), restored.Contributions(), set.Distinct(), set.Contributions())
	}
	a, b := set.Items(), restored.Items()
	if len(a) != len(b) {
		t.Fatalf("items %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if empty := RestoreResultSet(nil); empty.Distinct() != 0 || empty.Contributions() != 0 {
		t.Fatal("nil restore not empty")
	}

	// A snapshot written before keys folded case holds one item under
	// several keys. The restore re-keys each entry by its display text
	// and merges those that now coincide: counts summed, the earliest
	// first batch and its display kept (the smaller display on a tie).
	old := &jobs.EnumProgress{
		Counts:        map[string]int{"old-micro": 2, "old-mu": 3, "old-final": 1, "old-sigma": 4, "old-whale": 1},
		Display:       map[string]string{"old-micro": "µ", "old-mu": "μ", "old-final": "λόγος", "old-sigma": "λόγοσ", "old-whale": "blue whale"},
		FirstBatch:    map[string]int{"old-micro": 1, "old-mu": 0, "old-final": 2, "old-sigma": 2, "old-whale": 3},
		Contributions: 11,
	}
	merged := RestoreResultSet(old)
	want := []Item{
		{Key: scheduler.ItemKey("blue whale"), Text: "blue whale", Count: 1, Batch: 3},
		{Key: scheduler.ItemKey("λόγος"), Text: "λόγος", Count: 5, Batch: 2},
		{Key: scheduler.ItemKey("µ"), Text: "μ", Count: 5, Batch: 0},
	}
	if got := merged.Items(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged restore = %+v, want %+v", got, want)
	}
	if merged.Contributions() != 11 {
		t.Errorf("contributions = %d, want 11", merged.Contributions())
	}
	// The next batch counts onto the merged item, and the snapshot it
	// writes holds each item once.
	if _, isNew := merged.Observe("Μ", 4); isNew {
		t.Error("a restored item was discovered again")
	}
	if p := merged.Progress(); len(p.Counts) != 3 || p.Counts[scheduler.ItemKey("µ")] != 6 {
		t.Errorf("rewritten snapshot counts = %v", p.Counts)
	}
}

func TestSimSourceBatchesArePure(t *testing.T) {
	job := enumJob("pure", jobs.EnumSpec{ItemValue: 0.1, Universe: 25, SourceSeed: 11})
	s1, err := NewSimSource(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.(*SimSource).UniverseSize(); got != 25 {
		t.Fatalf("UniverseSize = %d, want the configured 25", got)
	}
	s2, _ := NewSimSource(job)
	for _, i := range []int{0, 3, 1, 7} {
		a, b := s1.Batch(i), s2.Batch(i)
		if len(a) != len(b) || len(a) != job.Enum.BatchContributions() {
			t.Fatalf("batch %d: sizes %d vs %d, want %d", i, len(a), len(b), job.Enum.BatchContributions())
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("batch %d contribution %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}

func TestSimSourceVariantsCanonicalize(t *testing.T) {
	job := enumJob("variants", jobs.EnumSpec{ItemValue: 0.1, Universe: 5, SourceSeed: 3})
	src, err := NewSimSource(job)
	if err != nil {
		t.Fatal(err)
	}
	sim := src.(*SimSource)
	valid := make(map[string]bool, len(sim.universe))
	for _, u := range sim.universe {
		valid[scheduler.ItemKey(u)] = true
	}
	for i := 0; i < 10; i++ {
		for _, c := range src.Batch(i) {
			if !valid[scheduler.ItemKey(c.Text)] {
				t.Fatalf("batch %d contribution %q does not canonicalize to a universe member", i, c.Text)
			}
		}
	}
}

// The headline economics: with ample budget, the runner stops on the
// marginal-value rule once discovery dries up — Done, spend well short
// of the cap, completeness estimate converged toward the true set size.
func TestRunnerMarginalValueStop(t *testing.T) {
	counters := metrics.NewRegistry()
	sched := testScheduler(t, 0, nil, counters)
	col := &enumCollector{}
	run := NewRunner(RunnerConfig{Scheduler: sched, Counters: counters, Publish: col.publish})
	job := enumJob("marginal", jobs.EnumSpec{ItemValue: 0.05, Universe: 30, SourceSeed: 17})
	job.Budget = 100
	var lastProgress, lastCost float64
	if err := run(context.Background(), job, func(p, c float64) { lastProgress, lastCost = p, c }); err != nil {
		t.Fatal(err)
	}
	if !col.done {
		t.Fatal("no terminal publish")
	}
	if col.mark.Enum == nil || col.mark.Enum.Stopped != StopMarginalValue {
		t.Fatalf("stop reason = %+v, want %q", col.mark.Enum, StopMarginalValue)
	}
	if lastProgress != 1 {
		t.Fatalf("terminal progress = %v, want 1", lastProgress)
	}
	if lastCost <= 0 || lastCost >= job.Budget/2 {
		t.Fatalf("spend %v should be positive and far below the %v budget", lastCost, job.Budget)
	}
	if math.Abs(lastCost-col.mark.Spent) > 1e-9 {
		t.Fatalf("reported cost %v != mark spend %v", lastCost, col.mark.Spent)
	}
	if got := sched.Ledger().Spent(); math.Abs(got-col.mark.Spent) > 1e-9 {
		t.Fatalf("ledger spend %v != mark spend %v", got, col.mark.Spent)
	}
	if d := len(col.items); d < 30/2 || d > 30 {
		t.Fatalf("discovered %d items, want a sizable fraction of the 30-item universe", d)
	}
	if c := col.est.Completeness(); c < 0.5 || col.est.Total < float64(len(col.items)) {
		t.Fatalf("estimate %+v not converged (completeness %v)", col.est, c)
	}
	if counters.Get("enum_stop_"+StopMarginalValue) != 1 {
		t.Fatal("stop counter not bumped")
	}
}

func TestRunnerParksOnBudget(t *testing.T) {
	sched := testScheduler(t, 0, nil, nil)
	run := NewRunner(RunnerConfig{Scheduler: sched})
	job := enumJob("broke", jobs.EnumSpec{ItemValue: 10, Universe: 30})
	job.Budget = sched.HITPrice() / 2
	err := run(context.Background(), job, func(p, c float64) {})
	if !errors.Is(err, jobs.ErrParked) {
		t.Fatalf("err = %v, want ErrParked", err)
	}
}

func TestRunnerMaxBatchesStop(t *testing.T) {
	sched := testScheduler(t, 0, nil, nil)
	col := &enumCollector{}
	run := NewRunner(RunnerConfig{Scheduler: sched, Publish: col.publish})
	job := enumJob("capped", jobs.EnumSpec{ItemValue: 10, Universe: 500, MaxBatches: 3})
	if err := run(context.Background(), job, func(p, c float64) {}); err != nil {
		t.Fatal(err)
	}
	if col.mark.Enum.Stopped != StopMaxBatches {
		t.Fatalf("stop = %q, want %q", col.mark.Enum.Stopped, StopMaxBatches)
	}
	if len(col.batches) != 3 || col.mark.Window != 2 {
		t.Fatalf("ran %d batches to window %d, want 3 to 2", len(col.batches), col.mark.Window)
	}
	if want := 3 * sched.HITPrice(); math.Abs(col.mark.Spent-want) > 1e-9 {
		t.Fatalf("spend %v, want %v", col.mark.Spent, want)
	}
}

func TestRunnerTargetCoverageStop(t *testing.T) {
	sched := testScheduler(t, 0, nil, nil)
	col := &enumCollector{}
	run := NewRunner(RunnerConfig{Scheduler: sched, Publish: col.publish})
	job := enumJob("covered", jobs.EnumSpec{ItemValue: 10, Universe: 10, TargetCoverage: 0.5, SourceSeed: 5})
	if err := run(context.Background(), job, func(p, c float64) {}); err != nil {
		t.Fatal(err)
	}
	if col.mark.Enum.Stopped != StopTargetCoverage {
		t.Fatalf("stop = %q, want %q", col.mark.Enum.Stopped, StopTargetCoverage)
	}
	if c := col.est.Completeness(); c < 0.5 {
		t.Fatalf("completeness %v below the 0.5 target", c)
	}
}

func TestRunnerRejectsWrongKind(t *testing.T) {
	sched := testScheduler(t, 0, nil, nil)
	run := NewRunner(RunnerConfig{Scheduler: sched})
	err := run(context.Background(), jobs.Job{Name: "tsa", Kind: jobs.KindTSA}, func(p, c float64) {})
	if !errors.Is(err, jobs.ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
}

// Two identical runs produce identical result sets, spend and
// estimates — the bit-reproducibility TestPinnedResults' enum hash in
// internal/loadgen relies on.
func TestRunnerDeterministic(t *testing.T) {
	runOnce := func() (*enumCollector, float64) {
		sched := testScheduler(t, 0, nil, nil)
		col := &enumCollector{}
		run := NewRunner(RunnerConfig{Scheduler: sched, Publish: col.publish})
		job := enumJob("det", jobs.EnumSpec{ItemValue: 0.05, Universe: 20, SourceSeed: 23})
		if err := run(context.Background(), job, func(p, c float64) {}); err != nil {
			t.Fatal(err)
		}
		return col, sched.Ledger().Spent()
	}
	a, spendA := runOnce()
	b, spendB := runOnce()
	if spendA != spendB {
		t.Fatalf("spend diverged: %v vs %v", spendA, spendB)
	}
	if len(a.items) != len(b.items) {
		t.Fatalf("item counts diverged: %d vs %d", len(a.items), len(b.items))
	}
	for i := range a.items {
		if a.items[i] != b.items[i] {
			t.Fatalf("item %d diverged: %+v vs %+v", i, a.items[i], b.items[i])
		}
	}
	if a.est != b.est {
		t.Fatalf("estimates diverged: %+v vs %+v", a.est, b.est)
	}
}
