package httpapi

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/httpapi/ -run TestV1Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenController serves a fixed set of job records.
type goldenController struct{ statuses []jobs.Status }

func (c *goldenController) Submit(jobs.Job) (jobs.Plan, error) { return jobs.Plan{}, nil }
func (c *goldenController) Cancel(string) error                { return nil }
func (c *goldenController) Unpark(string) error                { return nil }
func (c *goldenController) Statuses() []jobs.Status            { return c.statuses }
func (c *goldenController) StatusesPage(after string, limit int, state jobs.State, tenant string) ([]jobs.Status, bool) {
	return pageStatuses(c.statuses, after, limit, state, tenant)
}
func (c *goldenController) Status(name string) (jobs.Status, bool) {
	for _, st := range c.statuses {
		if st.Job.Name == name {
			return st, true
		}
	}
	return jobs.Status{}, false
}

// goldenScheduler serves a fixed scheduler state.
type goldenScheduler struct{ st scheduler.State }

func (g goldenScheduler) State() scheduler.State { return g.st }

// goldenStatuses is the fixed job-record set behind the golden servers.
func goldenStatuses() []jobs.Status {
	start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	query := jobs.Query{
		Keywords:         []string{"Kung Fu Panda 2"},
		RequiredAccuracy: 0.9,
		Domain:           []string{"Positive", "Neutral", "Negative"},
		Start:            start,
		Window:           24 * time.Hour,
	}
	return []jobs.Status{
		{
			Job:      jobs.Job{Name: "panda", Kind: jobs.KindTSA, Query: query, Priority: 2, Budget: 1.5},
			State:    jobs.StateRunning,
			Attempts: 1,
			Progress: 0.5,
			Cost:     0.21,
		},
		{
			Job:   jobs.Job{Name: "strapped", Kind: jobs.KindTSA, Query: query},
			State: jobs.StateParked,
		},
		{
			Job:      jobs.Job{Name: "thor", Kind: jobs.KindTSA, Query: query},
			State:    jobs.StateFailed,
			Attempts: 3,
			Progress: 0.25,
			Cost:     0.8,
			Error:    "run: platform exhausted",
		},
	}
}

// tenantServer serves the golden job set with tenant scopes attached —
// the fixture behind the tenant-filter golden.
func tenantServer() *Server {
	sts := goldenStatuses()
	sts[0].Job.Tenant = "acme"
	sts[1].Job.Tenant = "globex"
	sts[2].Job.Tenant = "acme"
	s := NewServer()
	s.SetJobs(&goldenController{statuses: sts})
	return s
}

// enumServer serves the golden job set plus one enumeration job with a
// fixed published result set — the fixture behind the enumeration and
// kind-filter goldens, separate so the pre-existing golden bodies stay
// byte-identical.
func enumServer() *Server {
	sts := goldenStatuses()
	sts = append(sts, jobs.Status{
		Job: jobs.Job{
			Name:   "finch",
			Kind:   jobs.KindEnumeration,
			Query:  jobs.Query{Keywords: []string{"finch species"}},
			Budget: 2,
			Enum:   &jobs.EnumSpec{ItemValue: 0.05, Universe: 12, SourceSeed: 7},
		},
		State:    jobs.StateRunning,
		Attempts: 1,
		Progress: 0.75,
		Cost:     0.18,
	})
	s := NewServer()
	s.SetJobs(&goldenController{statuses: sts})
	items := []api.EnumItem{
		{Key: "1f4a3c0d9e8b7a65", Text: "house finch", Count: 21, Batch: 0},
		{Key: "2b8e6f1a0c9d7e43", Text: "purple finch", Count: 18, Batch: 0},
		{Key: "3c9d7e2b1f0a8c61", Text: "cassin's finch", Count: 6, Batch: 2},
	}
	s.PublishEnumBatch(api.EnumStatus{
		Name:          "finch",
		Keywords:      []string{"finch species"},
		State:         api.JobRunning,
		Batches:       3,
		Contributions: 45,
		Distinct:      3,
		Spent:         0.18,
		Progress:      0.75,
		Estimate: &api.EnumEstimate{
			Observed:     3,
			Samples:      45,
			Singletons:   0,
			Coverage:     1,
			CV2:          0.2,
			Total:        4,
			Completeness: 0.75,
		},
		Items: items,
	}, &api.EnumBatch{
		Batch:         2,
		Contributions: 15,
		NewItems:      items[2:],
		ExpectedNew:   0.9,
		Cost:          0.06,
	})
	return s
}

// goldenServer assembles a Server whose every route renders from fixed
// inputs, so response bodies are byte-stable.
func goldenServer() *Server {
	s := NewServer()
	s.SetJobs(&goldenController{statuses: goldenStatuses()})
	reg := metrics.NewRegistry()
	reg.Add(metrics.CounterJobsSubmitted, 3)
	reg.Add(metrics.CounterJobsStarted, 2)
	reg.Add(metrics.CounterJobsParked, 1)
	reg.Add(metrics.CounterSchedCacheHits, 60)
	reg.Add(metrics.CounterSchedCacheMisses, 240)
	reg.Add(metrics.CounterSchedBatches, 9)
	reg.Add(metrics.CounterBudgetCharges, 4)
	s.SetCounters(reg)
	s.SetScheduler(goldenScheduler{st: scheduler.State{
		Generations:        3,
		PendingJobs:        1,
		DedupEnabled:       true,
		CacheEntries:       118,
		CacheHits:          60,
		CacheMisses:        240,
		QuestionsEnqueued:  310,
		QuestionsPublished: 118,
		QuestionsDeduped:   122,
		BatchesPublished:   9,
		JobsAdmitted:       5,
		JobsParked:         1,
		Budget: scheduler.BudgetSnapshot{
			GlobalLimit: 2.0,
			GlobalSpent: 0.648,
			Jobs: []scheduler.JobBudgetLine{
				{Job: "panda", JobBudget: scheduler.JobBudget{Limit: 1.5, Spent: 0.21}},
				{Job: "thor", JobBudget: scheduler.JobBudget{Spent: 0.438}},
			},
		},
	}})
	s.Update(QueryState{
		Name:        "panda",
		Domain:      []string{"Positive", "Neutral", "Negative"},
		Percentages: map[string]float64{"Positive": 0.5, "Neutral": 0.25, "Negative": 0.25},
		Reasons:     map[string][]string{"Positive": {"awesome", "fun"}, "Negative": {"boring"}},
		Items:       40,
		Progress:    0.5,
	})
	return s
}

// TestGoldenUnattachedRoutes locks the 503 contract for servers missing
// their backends.
func TestGoldenUnattachedRoutes(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/jobs", "/v1/scheduler"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s without backend: status %d, want 503", path, resp.StatusCode)
		}
	}
}
