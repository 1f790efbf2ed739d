package loadgen

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pinnedArch is the architecture the pinned outcomes were read on.
// Elsewhere float rounding may legitimately differ, so only equality
// across dispatcher counts is asserted there.
const pinnedArch = "amd64"

// pinnedDispatchers are the dispatcher counts every determinism test
// runs a profile at.
var pinnedDispatchers = []int{1, 4, 64}

// named returns a predefined profile or fails the test.
func named(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := Named(name)
	if !ok {
		t.Fatalf("profile %q missing", name)
	}
	return p
}

// runAcross runs p at every pinned dispatcher count and fails unless
// every run's Outcome equals the first one's exactly. It returns the
// first run's report.
func runAcross(t *testing.T, p Profile) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var first *Report
	for _, d := range pinnedDispatchers {
		p.Dispatchers = d
		rep, err := Run(ctx, p)
		if err != nil {
			t.Fatalf("%s at %d dispatchers: %v", p.Name, d, err)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Outcome != first.Outcome {
			t.Fatalf("%s: outcome at %d dispatchers differs from %d:\n got: %+v\nwant: %+v",
				p.Name, d, pinnedDispatchers[0], rep.Outcome, first.Outcome)
		}
	}
	return first
}

// TestPinnedResults is the behaviour fence: a fixed-seed run of each
// profile must settle exactly these outcomes — results hash, both spend
// sums, job outcomes, scheduler accounting and the enumeration summary,
// every float bit for bit — at every pinned dispatcher count. A change
// that moves any of them changes what the system answers or charges,
// and must say so by updating the constant here.
func TestPinnedResults(t *testing.T) {
	cases := []struct {
		name       string
		profile    string
		aggregator string
		want       Outcome
	}{
		{
			name:    "smoke",
			profile: "smoke",
			want: Outcome{
				ResultsHash:        "f008dc5f3577db21",
				SpendLedger:        0.33599999999999997,
				SpendJobs:          0.33599999999999997,
				Jobs:               JobsSummary{Total: 8, Done: 8},
				Sched:              SchedStats{Generations: 1, Enqueued: 128, Published: 48, Deduped: 16, CacheHits: 64, Batches: 4},
				QuestionsSubmitted: 128,
			},
		},
		{
			// A non-default aggregator through the same path: submit,
			// schedule under aggregator-qualified keys, engine, results.
			name:       "wawa",
			profile:    "smoke",
			aggregator: "wawa",
			want: Outcome{
				ResultsHash:        "d5eec7fe2efb89ab",
				SpendLedger:        0.33599999999999997,
				SpendJobs:          0.33599999999999997,
				Jobs:               JobsSummary{Total: 8, Done: 8},
				Sched:              SchedStats{Generations: 1, Enqueued: 128, Published: 48, Deduped: 16, CacheHits: 64, Batches: 4},
				QuestionsSubmitted: 128,
			},
		},
		{
			name:    "stream",
			profile: "stream",
			want: Outcome{
				ResultsHash:        "782ccbe5ec059119",
				SpendLedger:        0.49200000000000005,
				SpendJobs:          0.49200000000000005,
				Jobs:               JobsSummary{Total: 4, Done: 4},
				Sched:              SchedStats{Generations: 3, Enqueued: 40, Published: 40, Batches: 5},
				QuestionsSubmitted: 192,
			},
		},
		{
			// The ledger and the job sum differ in the last bit: the
			// ledger adds charges in arrival order, the job sum in name
			// order.
			name:    "enum",
			profile: "enum",
			want: Outcome{
				ResultsHash:        "b5b646de2619deb0",
				SpendLedger:        1.6800000000000004,
				SpendJobs:          1.6800000000000002,
				Jobs:               JobsSummary{Total: 4, Done: 4},
				QuestionsSubmitted: 300,
				Enum: EnumSummary{
					Jobs:             4,
					Batches:          20,
					Contributions:    300,
					Distinct:         82,
					EstimateTotal:    124.82576058306248,
					MeanCompleteness: 0.674158148352658,
					Spent:            1.6800000000000002,
					BudgetTotal:      8,
					StoppedMarginal:  4,
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := named(t, tc.profile)
			p.Aggregator = tc.aggregator
			rep := runAcross(t, p)
			t.Logf("results hash %s, spend %v (ledger) %v (jobs), jobs %+v, scheduler %+v",
				rep.ResultsHash, rep.SpendLedger, rep.SpendJobs, rep.Jobs, rep.Sched)
			if rep.Jobs.Done != rep.Jobs.Total {
				t.Fatalf("%d/%d jobs done: %+v (errors %v)", rep.Jobs.Done, rep.Jobs.Total, rep.Jobs, rep.Errors)
			}
			if runtime.GOARCH != pinnedArch {
				t.Skipf("outcomes pinned on %s; on %s only equality across dispatcher counts is asserted", pinnedArch, runtime.GOARCH)
			}
			if rep.Outcome != tc.want {
				t.Errorf("outcome moved:\n got: %+v\nwant: %+v", rep.Outcome, tc.want)
			}
		})
	}
}

func TestProfileNamesAllResolveAndValidate(t *testing.T) {
	for _, n := range []string{"smoke", "stream", "enum", "budget"} {
		v, err := named(t, n).Validate()
		if err != nil {
			t.Errorf("profile %q does not validate: %v", n, err)
			continue
		}
		if _, err := BuildWorkload(v); err != nil {
			t.Errorf("profile %q does not build: %v", n, err)
		}
	}
	if _, ok := Named("no-such-profile"); ok {
		t.Error("Named accepted an unknown profile")
	}
}

func TestProfileValidateErrors(t *testing.T) {
	base := named(t, "smoke")
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no tenants", func(p *Profile) { p.Tenants = 0 }},
		{"no questions", func(p *Profile) { p.QuestionsPerTenant = 0 }},
		{"overlap too big", func(p *Profile) { p.Overlap = 1.5 }},
		{"negative priorities", func(p *Profile) { p.PriorityLevels = -1 }},
		{"negative budget", func(p *Profile) { p.TenantBudget = -1 }},
		{"watcher fraction", func(p *Profile) { p.WatcherFraction = 2 }},
		{"accuracy", func(p *Profile) { p.RequiredAccuracy = 1.2 }},
		{"hit size", func(p *Profile) { p.HITSize = 1 }},
		{"unknown aggregator", func(p *Profile) { p.Aggregator = "consensus-9000" }},
		{"stream and enum", func(p *Profile) { p.Stream = true; p.Enum = true }},
		{"negative item value", func(p *Profile) { p.Enum = true; p.EnumItemValue = -1 }},
		{"negative universe", func(p *Profile) { p.Enum = true; p.EnumUniverse = -5 }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if _, err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
	// Normalisation: questions round up to blocks, domains clip to
	// tenants, zero dispatchers default.
	p := base
	p.QuestionsPerTenant = BlockSize + 1
	p.Domains = 99
	p.Dispatchers = 0
	got, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got.QuestionsPerTenant != 2*BlockSize || got.Domains != p.Tenants || got.Dispatchers < 1 {
		t.Fatalf("normalisation wrong: %+v", got)
	}
}

func TestRecorderErrorCapIsBounded(t *testing.T) {
	r := &recorder{}
	for i := 0; i < 3*maxReportedErrors; i++ {
		r.addError("boom")
	}
	if len(r.errs) != maxReportedErrors {
		t.Errorf("recorder kept %d errors, want the %d cap", len(r.errs), maxReportedErrors)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	p := named(t, "smoke")
	w1, err := BuildWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Tenants) != p.Tenants || len(w2.Tenants) != p.Tenants {
		t.Fatalf("tenant counts: %d, %d, want %d", len(w1.Tenants), len(w2.Tenants), p.Tenants)
	}
	for i := range w1.Tenants {
		a, b := w1.Tenants[i], w2.Tenants[i]
		if a.Name != b.Name || a.DomainVariant != b.DomainVariant || a.Watcher != b.Watcher ||
			strings.Join(a.Keywords, ",") != strings.Join(b.Keywords, ",") {
			t.Fatalf("tenant %d diverged between builds: %+v vs %+v", i, a, b)
		}
		if len(a.Keywords)*BlockSize != p.QuestionsPerTenant {
			t.Fatalf("tenant %d: %d keyword blocks cover %d questions, want %d",
				i, len(a.Keywords), len(a.Keywords)*BlockSize, p.QuestionsPerTenant)
		}
	}
	if len(w1.Stream) != len(w2.Stream) {
		t.Fatalf("stream lengths diverged: %d vs %d", len(w1.Stream), len(w2.Stream))
	}
	// Overlap rounds to blocks: tenants of one variant share exactly the
	// shared blocks and nothing else.
	t0, t2 := w1.Tenants[0], w1.Tenants[2] // same variant (Domains=2)
	if t0.DomainVariant != t2.DomainVariant {
		t.Fatalf("expected tenants 0 and 2 in one variant")
	}
	sharedSeen := 0
	kw2 := make(map[string]bool, len(t2.Keywords))
	for _, k := range t2.Keywords {
		kw2[k] = true
	}
	for _, k := range t0.Keywords {
		if kw2[k] {
			sharedSeen++
		}
	}
	if sharedSeen != w1.SharedBlocks {
		t.Fatalf("shared blocks between same-variant tenants: %d, want %d", sharedSeen, w1.SharedBlocks)
	}
}

// TestRunReproducibleAcrossDispatchers is the harness's core guarantee:
// a fixed-seed run produces identical spend, job outcomes and results
// hash no matter the dispatcher count or how goroutines interleave —
// with the second round answered from the verified-answer cache and
// the SSE feeds consumed end to end.
func TestRunReproducibleAcrossDispatchers(t *testing.T) {
	rep := runAcross(t, named(t, "smoke"))
	if rep.Jobs.Done != rep.Jobs.Total || rep.SpendJobs <= 0 {
		t.Fatalf("degenerate run: %+v (errors %v)", rep.Outcome, rep.Errors)
	}
	if rep.Sched.CacheHits == 0 {
		t.Errorf("expected cache hits on the second round: %+v", rep.Sched)
	}
	if rep.Watchers == 0 || rep.SSEEvents == 0 {
		t.Errorf("expected SSE watcher traffic: watchers=%d events=%d", rep.Watchers, rep.SSEEvents)
	}
}

// TestStreamRunReproducibleAcrossDispatchers is the standing-query
// analogue of the core guarantee: the window coordinator barriers every
// stream's window-k close into one scheduler generation, so the
// windowed results reproduce at any dispatcher count.
func TestStreamRunReproducibleAcrossDispatchers(t *testing.T) {
	rep := runAcross(t, named(t, "stream"))
	if rep.Jobs.Done != rep.Jobs.Total || rep.QuestionsSubmitted <= 0 || rep.SpendJobs <= 0 {
		t.Fatalf("degenerate stream run: %+v (errors %v)", rep.Outcome, rep.Errors)
	}
	if rep.Watchers == 0 || rep.SSEEvents == 0 {
		t.Errorf("expected stream SSE watcher traffic: watchers=%d events=%d", rep.Watchers, rep.SSEEvents)
	}
}

// TestEnumRunReproducibleAcrossDispatchers is the enumeration analogue
// of the core guarantee — every batch is a pure function of the
// per-tenant source seed, so result sets, estimates and spend reproduce
// bit for bit — plus the two semantic contracts of the open-ended mode:
// the Chao92 estimate converges toward the true universe size, and
// marginal-value admission halts the spend well before the budgets run
// out.
func TestEnumRunReproducibleAcrossDispatchers(t *testing.T) {
	p := named(t, "enum")
	rep := runAcross(t, p)
	e := rep.Enum
	if rep.Jobs.Done != rep.Jobs.Total || e.Jobs != rep.Jobs.Total || e.Batches == 0 || e.Contributions == 0 || e.Distinct == 0 {
		t.Fatalf("degenerate enum run: %+v (errors %v)", rep.Outcome, rep.Errors)
	}
	// Convergence: the summed estimate lands near the true combined
	// universe size, and most of each hidden set was discovered.
	trueTotal := float64(p.EnumUniverse * p.Tenants)
	if e.EstimateTotal < 0.7*trueTotal || e.EstimateTotal > 1.3*trueTotal {
		t.Errorf("estimate %.1f far from the true universe total %.0f", e.EstimateTotal, trueTotal)
	}
	if e.MeanCompleteness < 0.5 {
		t.Errorf("mean completeness %.2f never converged", e.MeanCompleteness)
	}
	// The marginal-value rule — not the budget — ends every job.
	if e.StoppedMarginal != e.Jobs {
		t.Errorf("stops: %d marginal, %d other, want all %d marginal", e.StoppedMarginal, e.StoppedOther, e.Jobs)
	}
	if e.Spent <= 0 || e.Spent >= e.BudgetTotal {
		t.Errorf("spend %.3f must be positive and below the %.3f budget", e.Spent, e.BudgetTotal)
	}
	if rep.Watchers == 0 {
		t.Errorf("expected enum SSE watchers, got none")
	}
}

// TestRunBudgetParking drives the budget profile and expects the
// admission control to park at least one tenant.
func TestRunBudgetParking(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, named(t, "budget"))
	if err != nil {
		t.Fatalf("budget run: %v", err)
	}
	if rep.Jobs.Parked == 0 {
		t.Fatalf("budget profile parked no jobs: %+v (errors %v)", rep.Jobs, rep.Errors)
	}
	if rep.Jobs.Done == 0 {
		t.Fatalf("budget profile completed no jobs: %+v", rep.Jobs)
	}
	if rep.Jobs.Unsettled != 0 {
		t.Fatalf("unsettled jobs after budget run: %+v", rep.Jobs)
	}
}
