package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/metrics"
)

var testDomain = []string{"Positive", "Neutral", "Negative"}

// sharedQuestion builds the i-th question of the cross-job shared pool:
// jobs asking it use their own IDs, but the content is identical, so the
// scheduler must recognise it as one unit of crowd work.
func sharedQuestion(job string, i int) crowd.Question {
	return crowd.Question{
		ID:     fmt.Sprintf("%s/shared%03d", job, i),
		Text:   fmt.Sprintf("Is shared tweet #%d positive about the movie?", i),
		Domain: testDomain,
		Truth:  "Positive",
	}
}

// uniqueQuestion builds a question only this job asks.
func uniqueQuestion(job string, i int) crowd.Question {
	return crowd.Question{
		ID:     fmt.Sprintf("%s/uniq%03d", job, i),
		Text:   fmt.Sprintf("Is %s's own tweet #%d positive?", job, i),
		Domain: testDomain,
		Truth:  "Negative",
	}
}

// workload builds per-job question sets with the given overlap fraction:
// overlap*perJob questions are drawn from a pool common to all jobs.
func workload(jobs, perJob int, overlap float64) map[string][]crowd.Question {
	shared := int(overlap * float64(perJob))
	out := make(map[string][]crowd.Question, jobs)
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("job%02d", j)
		qs := make([]crowd.Question, 0, perJob)
		for i := 0; i < shared; i++ {
			qs = append(qs, sharedQuestion(job, i))
		}
		for i := shared; i < perJob; i++ {
			qs = append(qs, uniqueQuestion(job, i))
		}
		out[job] = qs
	}
	return out
}

func goldenPool(n int) []crowd.Question {
	qs := make([]crowd.Question, n)
	for i := range qs {
		qs[i] = crowd.Question{
			ID:     fmt.Sprintf("golden/g%03d", i),
			Text:   fmt.Sprintf("Calibration tweet #%d", i),
			Domain: testDomain,
			Truth:  "Neutral",
		}
	}
	return qs
}

// newTestScheduler builds a scheduler over a fresh simulated platform.
// mutate tweaks the config before construction.
func newTestScheduler(t *testing.T, mutate func(*Config)) *Scheduler {
	t.Helper()
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Platform: engine.CrowdPlatform{Platform: platform},
		Engine:   engine.Config{HITSize: 20, MaxInflightHITs: 4, Seed: 9},
		Golden:   goldenPool(12),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// runWorkload enqueues every job from `concurrency` goroutines, flushes
// once, and returns each job's result.
func runWorkload(t *testing.T, s *Scheduler, w map[string][]crowd.Question, concurrency int) map[string]JobResult {
	t.Helper()
	type pair struct {
		job    string
		ticket *Ticket
	}
	jobs := make(chan string, len(w))
	for job := range w {
		jobs <- job
	}
	close(jobs)
	results := make(chan pair, len(w))
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				ticket, err := s.Enqueue(Request{Job: job, Questions: w[job]})
				if err != nil {
					t.Errorf("enqueue %s: %v", job, err)
					return
				}
				results <- pair{job, ticket}
			}
		}()
	}
	wg.Wait()
	close(results)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	out := make(map[string]JobResult, len(w))
	for p := range results {
		res, err := p.ticket.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", p.job, err)
		}
		out[p.job] = res
	}
	return out
}

// TestSchedulerDedupSavings is the headline guarantee: at 50% question
// overlap across 8 jobs, cross-query dedup cuts crowd spend by at least
// 25% against the same workload scheduled without coalescing.
func TestSchedulerDedupSavings(t *testing.T) {
	w := workload(8, 30, 0.5)
	spend := func(disableDedup bool) (float64, map[string]JobResult) {
		s := newTestScheduler(t, func(c *Config) { c.DisableDedup = disableDedup })
		res := runWorkload(t, s, w, 4)
		return s.Ledger().Spent(), res
	}
	dedupSpend, dedupRes := spend(false)
	naiveSpend, naiveRes := spend(true)
	if naiveSpend <= 0 {
		t.Fatalf("naive spend = %v, expected positive", naiveSpend)
	}
	saving := 1 - dedupSpend/naiveSpend
	t.Logf("dedup spend %.3f vs naive %.3f: %.1f%% saved", dedupSpend, naiveSpend, 100*saving)
	if saving < 0.25 {
		t.Errorf("dedup saved only %.1f%% at 50%% overlap, want >= 25%%", 100*saving)
	}
	// Both modes answer every question of every job.
	for job, qs := range w {
		if got := len(dedupRes[job].Results); got != len(qs) {
			t.Errorf("dedup: %s got %d answers, want %d", job, got, len(qs))
		}
		if got := len(naiveRes[job].Results); got != len(qs) {
			t.Errorf("naive: %s got %d answers, want %d", job, got, len(qs))
		}
	}
	// Attributed costs sum to the actual spend in both modes.
	sum := func(rs map[string]JobResult) float64 {
		var tot float64
		for _, r := range rs {
			tot += r.Cost
		}
		return tot
	}
	if got := sum(dedupRes); !close2(got, dedupSpend) {
		t.Errorf("dedup attribution %.6f != spend %.6f", got, dedupSpend)
	}
	if got := sum(naiveRes); !close2(got, naiveSpend) {
		t.Errorf("naive attribution %.6f != spend %.6f", got, naiveSpend)
	}
}

func close2(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

// TestSchedulerDeterministicAcrossConcurrency: a generation's results
// are bit-equal no matter how many goroutines enqueued the jobs.
func TestSchedulerDeterministicAcrossConcurrency(t *testing.T) {
	w := workload(6, 25, 0.4)
	run := func(concurrency int) string {
		s := newTestScheduler(t, nil)
		res := runWorkload(t, s, w, concurrency)
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	serial := run(1)
	for _, c := range []int{2, 16} {
		if got := run(c); got != serial {
			t.Errorf("results differ between 1 and %d enqueue goroutines", c)
		}
	}
}

// TestSchedulerSharedAnswersAgree: subscribers of one shared question
// receive the same verdict, each under its own original question.
func TestSchedulerSharedAnswersAgree(t *testing.T) {
	s := newTestScheduler(t, nil)
	w := workload(3, 10, 1.0) // fully shared
	res := runWorkload(t, s, w, 3)
	var ref JobResult
	first := true
	for job, r := range res {
		for i, qr := range r.Results {
			wantID := fmt.Sprintf("%s/shared%03d", job, i)
			if qr.Question.ID != wantID {
				t.Errorf("%s result %d: question ID %q, want original %q", job, i, qr.Question.ID, wantID)
			}
		}
		if first {
			ref, first = r, false
			continue
		}
		for i := range r.Results {
			if r.Results[i].Answer != ref.Results[i].Answer ||
				r.Results[i].Confidence != ref.Results[i].Confidence {
				t.Errorf("%s result %d diverges from its shared verdict", job, i)
			}
		}
	}
	st := s.State()
	// 3 jobs × 10 questions, 10 unique: 20 fan-outs beyond the first.
	if st.QuestionsPublished != 10 || st.QuestionsDeduped != 20 {
		t.Errorf("published %d / deduped %d, want 10 / 20", st.QuestionsPublished, st.QuestionsDeduped)
	}
}

// TestSchedulerCacheAcrossGenerations: a later job re-asking verified
// questions is answered from the cache, free of charge.
func TestSchedulerCacheAcrossGenerations(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestScheduler(t, func(c *Config) { c.Counters = reg })
	qs := workload(1, 12, 0)["job00"]
	first := runWorkload(t, s, map[string][]crowd.Question{"job00": qs}, 1)["job00"]
	if first.CacheHits != 0 || first.Cost <= 0 {
		t.Fatalf("first run: hits=%d cost=%v", first.CacheHits, first.Cost)
	}
	spendAfterFirst := s.Ledger().Spent()

	// Same content, different job and IDs.
	again := make([]crowd.Question, len(qs))
	for i, q := range qs {
		q.ID = fmt.Sprintf("rerun/%03d", i)
		again[i] = q
	}
	second := runWorkload(t, s, map[string][]crowd.Question{"rerun": again}, 1)["rerun"]
	if second.CacheHits != len(qs) {
		t.Errorf("second run: %d cache hits, want %d", second.CacheHits, len(qs))
	}
	if second.Cost != 0 {
		t.Errorf("second run charged %v, want 0", second.Cost)
	}
	if got := s.Ledger().Spent(); got != spendAfterFirst {
		t.Errorf("cache hit still spent money: %v -> %v", spendAfterFirst, got)
	}
	for i := range qs {
		if second.Results[i].Answer != first.Results[i].Answer {
			t.Errorf("cached answer %d diverges", i)
		}
	}
	if reg.Get(metrics.CounterSchedCacheHits) != int64(len(qs)) {
		t.Errorf("cache-hit counter = %d", reg.Get(metrics.CounterSchedCacheHits))
	}
}

// TestSchedulerCacheTTL: an expired entry is re-purchased.
func TestSchedulerCacheTTL(t *testing.T) {
	now := time.Unix(10_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s := newTestScheduler(t, func(c *Config) {
		c.CacheTTL = time.Hour
		c.Now = clock
	})
	qs := workload(1, 5, 0)["job00"]
	runWorkload(t, s, map[string][]crowd.Question{"job00": qs}, 1)
	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()
	again := make([]crowd.Question, len(qs))
	for i, q := range qs {
		q.ID = fmt.Sprintf("rerun/%03d", i)
		again[i] = q
	}
	res := runWorkload(t, s, map[string][]crowd.Question{"rerun": again}, 1)["rerun"]
	if res.CacheHits != 0 {
		t.Errorf("expired entries served %d hits", res.CacheHits)
	}
	if res.Cost <= 0 {
		t.Error("re-purchase after expiry cost nothing")
	}
}

// TestSchedulerBudgetAdmission: when the global budget covers only one
// job, the higher-priority one runs and the other parks — resumable,
// not failed.
func TestSchedulerBudgetAdmission(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestScheduler(t, func(c *Config) {
		c.GlobalBudget = 0.2
		c.Counters = reg
	})
	w := workload(2, 16, 0)
	tHigh, err := s.Enqueue(Request{Job: "job00", Priority: 5, Questions: w["job00"]})
	if err != nil {
		t.Fatal(err)
	}
	tLow, err := s.Enqueue(Request{Job: "job01", Priority: 1, Questions: w["job01"]})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if res, err := tHigh.Wait(context.Background()); err != nil {
		t.Fatalf("high-priority job: %v", err)
	} else if len(res.Results) != 16 {
		t.Errorf("high-priority job got %d answers", len(res.Results))
	}
	if _, err := tLow.Wait(context.Background()); !errors.Is(err, ErrParked) {
		t.Fatalf("low-priority job: err = %v, want ErrParked", err)
	}
	st := s.State()
	if st.JobsAdmitted != 1 || st.JobsParked != 1 {
		t.Errorf("admitted %d / parked %d, want 1 / 1", st.JobsAdmitted, st.JobsParked)
	}
	if reg.Get(metrics.CounterSchedParked) != 1 {
		t.Errorf("parked counter = %d", reg.Get(metrics.CounterSchedParked))
	}
	if st.Budget.GlobalLimit != 0.2 || st.Budget.GlobalSpent <= 0 {
		t.Errorf("budget snapshot = %+v", st.Budget)
	}
}

// TestSchedulerPerJobBudget: a job whose own cap cannot cover its
// estimate parks even with global budget to spare.
func TestSchedulerPerJobBudget(t *testing.T) {
	s := newTestScheduler(t, nil)
	qs := workload(1, 16, 0)["job00"]
	ticket, err := s.Enqueue(Request{Job: "job00", Budget: 0.0001, Questions: qs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := ticket.Wait(context.Background()); !errors.Is(err, ErrParked) {
		t.Fatalf("err = %v, want ErrParked", err)
	}
	// Budget 0 means unlimited and must clear the stale cap: the same
	// job name resubmitted without a budget runs.
	again, err := s.Enqueue(Request{Job: "job00", Questions: qs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if res, err := again.Wait(context.Background()); err != nil {
		t.Fatalf("unlimited resubmission: %v (stale cap not cleared)", err)
	} else if len(res.Results) != len(qs) {
		t.Errorf("unlimited resubmission got %d answers", len(res.Results))
	}
}

// TestSchedulerSharedRidesRespectJobBudget: riding a slot a peer
// already opened still costs real money, so it must not be admitted
// for free past the rider's own budget cap.
func TestSchedulerSharedRidesRespectJobBudget(t *testing.T) {
	s := newTestScheduler(t, nil)
	qs := workload(1, 16, 0)["job00"]
	rider := make([]crowd.Question, len(qs))
	for i, q := range qs {
		q.ID = fmt.Sprintf("rider/%03d", i) // same content, own IDs
		rider[i] = q
	}
	payer, err := s.Enqueue(Request{Job: "payer", Priority: 5, Questions: qs})
	if err != nil {
		t.Fatal(err)
	}
	broke, err := s.Enqueue(Request{Job: "broke", Priority: 0, Budget: 0.0001, Questions: rider})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := payer.Wait(context.Background()); err != nil {
		t.Fatalf("payer: %v", err)
	}
	if _, err := broke.Wait(context.Background()); !errors.Is(err, ErrParked) {
		t.Fatalf("rider with a blown budget: err = %v, want ErrParked (shared rides are not free)", err)
	}
}

// TestSchedulerOnCharge: the persistence hook sees one charge per job
// per generation, summing to the attributed costs.
func TestSchedulerOnCharge(t *testing.T) {
	var mu sync.Mutex
	charges := make(map[string]float64)
	s := newTestScheduler(t, func(c *Config) {
		c.OnCharge = func(job string, amount float64) {
			mu.Lock()
			defer mu.Unlock()
			charges[job] += amount
		}
	})
	w := workload(3, 12, 0.5)
	res := runWorkload(t, s, w, 3)
	for job, r := range res {
		if !close2(charges[job], r.Cost) {
			t.Errorf("%s: hook saw %.6f, result cost %.6f", job, charges[job], r.Cost)
		}
	}
}

// TestSchedulerMixedDomains: one request spanning two answer domains is
// split into two groups and fully answered.
func TestSchedulerMixedDomains(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) { c.Engine.DisableSampling = true; c.Golden = nil })
	qs := []crowd.Question{
		{ID: "a", Text: "sentiment?", Domain: testDomain, Truth: "Positive"},
		{ID: "b", Text: "is it a cat?", Domain: []string{"yes", "no"}, Truth: "yes"},
		{ID: "c", Text: "really a cat?", Domain: []string{"yes", "no"}, Truth: "no"},
	}
	res := runWorkload(t, s, map[string][]crowd.Question{"mixed": qs}, 1)["mixed"]
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(res.Results))
	}
	for i, want := range []string{"a", "b", "c"} {
		if res.Results[i].Question.ID != want {
			t.Errorf("result %d: ID %q, want %q (sorted by original ID)", i, res.Results[i].Question.ID, want)
		}
		if res.Results[i].Answer == "" {
			t.Errorf("result %d unanswered", i)
		}
	}
}

// TestSchedulerAnswerMappedToSubscriberDomain: a coalesced question is
// published in one subscriber's literal form, but every subscriber's
// verdict — batch-delivered, ranked and cache-served alike — must
// arrive spelled in its own domain strings, or its presentation layer
// would drop the votes.
func TestSchedulerAnswerMappedToSubscriberDomain(t *testing.T) {
	s := newTestScheduler(t, nil)
	lower, err := s.Enqueue(Request{Job: "alpha", Questions: []crowd.Question{
		{ID: "a/q", Text: "is the shared tweet positive?", Domain: []string{"positive", "negative"}, Truth: "positive"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	upper, err := s.Enqueue(Request{Job: "beta", Questions: []crowd.Question{
		{ID: "b/q", Text: "  IS the shared tweet POSITIVE? ", Domain: []string{"Negative", "Positive"}, Truth: "Positive"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	inDomain := func(answer string, domain []string) bool {
		for _, d := range domain {
			if d == answer {
				return true
			}
		}
		return false
	}
	check := func(name string, ticket *Ticket, domain []string) {
		t.Helper()
		res, err := ticket.Wait(context.Background())
		if err != nil || len(res.Results) != 1 {
			t.Fatalf("%s: %d results, err %v", name, len(res.Results), err)
		}
		qr := res.Results[0]
		if !inDomain(qr.Answer, domain) {
			t.Errorf("%s: answer %q not spelled in its own domain %v", name, qr.Answer, domain)
		}
		for _, sc := range qr.Ranked {
			if !inDomain(sc.Answer, domain) {
				t.Errorf("%s: ranked answer %q not spelled in its own domain %v", name, sc.Answer, domain)
			}
		}
	}
	check("alpha", lower, []string{"positive", "negative"})
	check("beta", upper, []string{"Negative", "Positive"})

	// The cache path maps too: a third spelling served from the cache.
	cached, err := s.Enqueue(Request{Job: "gamma", Questions: []crowd.Question{
		{ID: "c/q", Text: "IS THE SHARED TWEET POSITIVE?", Domain: []string{"POSITIVE", "NEGATIVE"}, Truth: "POSITIVE"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := cached.Wait(context.Background())
	if err != nil || res.CacheHits != 1 {
		t.Fatalf("gamma: hits=%d err=%v", res.CacheHits, err)
	}
	if got := res.Results[0].Answer; got != "POSITIVE" && got != "NEGATIVE" {
		t.Errorf("cache-served answer %q not mapped into gamma's domain", got)
	}
}

// TestSchedulerSharedDomainUnchanged: a job's questions share one
// domain slice, as tsa builds them, and the scheduler only reads it —
// through a flush, the MapAnswer translation into a differently spelled
// subscriber's domain, and a cache-hit resolve at Enqueue. A request
// carrying its TextHashes dedups with, and is served from the cache of,
// one that does not.
func TestSchedulerSharedDomainUnchanged(t *testing.T) {
	s := newTestScheduler(t, nil)
	lower := []string{"positive", "neutral", "negative"}
	upper := []string{"NEGATIVE", "POSITIVE", "NEUTRAL"}
	lowerWas, upperWas := slices.Clone(lower), slices.Clone(upper)
	request := func(job string, domain []string, hashed bool) Request {
		req := Request{Job: job, Questions: make([]crowd.Question, 20)}
		for i := range req.Questions {
			text := fmt.Sprintf("Shared Tweet #%d", i)
			req.Questions[i] = crowd.Question{ID: fmt.Sprintf("%s/%02d", job, i), Text: text, Domain: domain, Truth: domain[1]}
			if hashed {
				req.TextHashes = append(req.TextHashes, TextHash(text))
			}
		}
		return req
	}
	check := func(step string, res JobResult, err error, domain []string) {
		t.Helper()
		if err != nil || len(res.Results) != 20 {
			t.Fatalf("%s: %d results, err %v", step, len(res.Results), err)
		}
		for _, qr := range res.Results {
			if !slices.Contains(domain, qr.Answer) {
				t.Errorf("%s: answer %q not spelled in the job's domain %v", step, qr.Answer, domain)
			}
		}
		if !slices.Equal(lower, lowerWas) || !slices.Equal(upper, upperWas) {
			t.Fatalf("%s: shared domains changed to %v and %v", step, lower, upper)
		}
	}

	alpha, err := s.Enqueue(request("alpha", lower, true))
	if err != nil {
		t.Fatal(err)
	}
	beta, err := s.Enqueue(request("beta", upper, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := alpha.Wait(context.Background())
	check("flush", res, err, lower)
	res, err = beta.Wait(context.Background())
	check("MapAnswer", res, err, upper)
	if res.Shared != 20 {
		t.Errorf("beta shared %d of 20 slots with alpha: keys from TextHashes differ from keys from text", res.Shared)
	}

	gamma, err := s.Enqueue(request("gamma", upper, true))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gamma.done:
	default:
		t.Fatal("an all-hit request did not resolve at Enqueue")
	}
	res, err = gamma.Wait(context.Background())
	check("cache hit at Enqueue", res, err, upper)
	if res.CacheHits != 20 {
		t.Errorf("gamma: %d cache hits, want 20", res.CacheHits)
	}
}

// TestSchedulerAbandonedTicket: an abandoned (cancelled) ticket is
// resolved without publishing or charging anything.
func TestSchedulerAbandonedTicket(t *testing.T) {
	s := newTestScheduler(t, nil)
	w := workload(2, 8, 0)
	dead, err := s.Enqueue(Request{Job: "job00", Questions: w["job00"]})
	if err != nil {
		t.Fatal(err)
	}
	alive, err := s.Enqueue(Request{Job: "job01", Questions: w["job01"]})
	if err != nil {
		t.Fatal(err)
	}
	dead.Abandon()
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := dead.Wait(context.Background()); !errors.Is(err, ErrAbandoned) {
		t.Errorf("abandoned ticket err = %v, want ErrAbandoned", err)
	}
	res, err := alive.Wait(context.Background())
	if err != nil || len(res.Results) != 8 {
		t.Fatalf("live ticket: %d results, err %v", len(res.Results), err)
	}
	st := s.State()
	if st.QuestionsPublished != 8 {
		t.Errorf("published %d questions, want only the live job's 8", st.QuestionsPublished)
	}
	for _, line := range st.Budget.Jobs {
		if line.Job == "job00" && line.Spent != 0 {
			t.Errorf("abandoned job charged %v", line.Spent)
		}
	}
}

// failingPlatform refuses HITs published under one title (one domain
// group's engine), leaving the other groups to succeed.
type failingPlatform struct {
	engine.Platform
	failTitle string
}

func (p failingPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	if hit.Title == p.failTitle {
		return nil, errors.New("platform down for this domain")
	}
	return p.Platform.Publish(hit, n)
}

// TestSchedulerPartialFailureKeepsCost: when one domain group dies the
// ticket surfaces the error together with the surviving groups'
// results and their attributed cost — the spend the ledger recorded
// must be visible to the job's accounting.
func TestSchedulerPartialFailureKeepsCost(t *testing.T) {
	binary := []string{"yes", "no"}
	var s *Scheduler
	s = newTestScheduler(t, func(c *Config) {
		c.Engine.DisableSampling = true
		c.Golden = nil
		c.Platform = failingPlatform{Platform: c.Platform, failTitle: "sched/" + DomainKey(binary)}
	})
	qs := append(workload(1, 6, 0)["job00"],
		crowd.Question{ID: "bin/a", Text: "binary one?", Domain: binary, Truth: "yes"},
		crowd.Question{ID: "bin/b", Text: "binary two?", Domain: binary, Truth: "no"},
	)
	ticket, err := s.Enqueue(Request{Job: "job00", Questions: qs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err == nil {
		t.Fatal("flush succeeded despite a dead domain group")
	}
	res, err := ticket.Wait(context.Background())
	if err == nil {
		t.Fatal("ticket resolved without the group error")
	}
	if len(res.Results) != 6 {
		t.Errorf("surviving results = %d, want the sentiment group's 6", len(res.Results))
	}
	if res.Cost <= 0 {
		t.Error("surviving groups' spend lost from the partial result")
	}
	if !close2(res.Cost, s.Ledger().Spent()) {
		t.Errorf("partial result cost %.6f != ledger spend %.6f", res.Cost, s.Ledger().Spent())
	}
}

func TestSchedulerEnqueueValidation(t *testing.T) {
	s := newTestScheduler(t, nil)
	ok := crowd.Question{ID: "q", Text: "t", Domain: testDomain}
	cases := []struct {
		name string
		req  Request
	}{
		{"no job", Request{Questions: []crowd.Question{ok}}},
		{"no questions", Request{Job: "j"}},
		{"negative budget", Request{Job: "j", Budget: -1, Questions: []crowd.Question{ok}}},
		{"empty question id", Request{Job: "j", Questions: []crowd.Question{{Text: "t", Domain: testDomain}}}},
		{"duplicate ids", Request{Job: "j", Questions: []crowd.Question{ok, ok}}},
		{"small domain", Request{Job: "j", Questions: []crowd.Question{{ID: "x", Text: "t", Domain: []string{"only"}}}}},
		{"text hashes not parallel", Request{Job: "j", Questions: []crowd.Question{ok}, TextHashes: []uint64{1, 2}}},
	}
	for _, c := range cases {
		if _, err := s.Enqueue(c.req); err == nil {
			t.Errorf("%s: Enqueue accepted an invalid request", c.name)
		}
	}
}

func TestSchedulerClose(t *testing.T) {
	s := newTestScheduler(t, nil)
	qs := workload(1, 3, 0)["job00"]
	ticket, err := s.Enqueue(Request{Job: "job00", Questions: qs})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := ticket.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("pending ticket err = %v, want ErrClosed", err)
	}
	if _, err := s.Enqueue(Request{Job: "late", Questions: qs}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Enqueue err = %v, want ErrClosed", err)
	}
	if err := s.Flush(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Flush err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestTicketWaitCancelled(t *testing.T) {
	s := newTestScheduler(t, nil)
	ticket, err := s.Enqueue(Request{Job: "j", Questions: workload(1, 3, 0)["job00"]})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ticket.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait err = %v, want context.Canceled", err)
	}
}

// TestSchedulerAutoFlush: a background FlushInterval drains enqueued
// work without manual flushes.
func TestSchedulerAutoFlush(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) { c.FlushInterval = 5 * time.Millisecond })
	ticket, err := s.Enqueue(Request{Job: "auto", Questions: workload(1, 6, 0)["job00"]})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := ticket.Wait(ctx)
	if err != nil {
		t.Fatalf("auto-flushed ticket: %v", err)
	}
	if len(res.Results) != 6 {
		t.Errorf("got %d results, want 6", len(res.Results))
	}
}

// resolved reports, without blocking, whether tk has resolved.
func resolved(tk *Ticket) bool {
	select {
	case <-tk.done:
		return true
	default:
		return false
	}
}

// warmCache buys qs once through a flush so every one is a cache entry.
func warmCache(t *testing.T, s *Scheduler, qs []crowd.Question) {
	t.Helper()
	runWorkload(t, s, map[string][]crowd.Question{"warm": qs}, 1)
}

// respelled copies qs under new IDs, with the text and every domain
// answer (truth included) upper-cased: the same canonical questions in
// another spelling.
func respelled(prefix string, qs []crowd.Question) []crowd.Question {
	out := make([]crowd.Question, len(qs))
	for i, q := range qs {
		q.ID = fmt.Sprintf("%s/%03d", prefix, len(qs)-i) // reverse order: results must come back sorted
		q.Text = strings.ToUpper(q.Text)
		q.Truth = strings.ToUpper(q.Truth)
		dom := make([]string, len(q.Domain))
		for j, d := range q.Domain {
			dom[j] = strings.ToUpper(d)
		}
		q.Domain = dom
		out[i] = q
	}
	return out
}

// TestEnqueueCacheResolve: a request whose every question is a live
// cache hit resolves inside Enqueue, with exactly the result its
// generation would have produced; anything else waits for the flush.
func TestEnqueueCacheResolve(t *testing.T) {
	warm := workload(1, 6, 0)["job00"]
	cases := []struct {
		name   string
		mutate func(*Config, *time.Time)
		// after runs between warming the cache and the enqueue.
		after        func(*Scheduler, *time.Time)
		req          func() Request
		wantResolved bool
		wantErr      error
	}{
		{
			name:         "all hit, respelled domain",
			req:          func() Request { return Request{Job: "hit", Questions: respelled("hit", warm)} },
			wantResolved: true,
		},
		{
			name: "partial hit",
			req: func() Request {
				return Request{Job: "part", Questions: append(respelled("part", warm), uniqueQuestion("part", 99))}
			},
		},
		{
			name:   "dedup disabled",
			mutate: func(c *Config, _ *time.Time) { c.DisableDedup = true },
			req:    func() Request { return Request{Job: "nodedup", Questions: respelled("nodedup", warm)} },
		},
		{
			name: "expired entry",
			mutate: func(c *Config, now *time.Time) {
				c.CacheTTL = time.Hour
				c.Now = func() time.Time { return *now }
			},
			after: func(_ *Scheduler, now *time.Time) { *now = now.Add(2 * time.Hour) },
			req:   func() Request { return Request{Job: "stale", Questions: respelled("stale", warm)} },
		},
		{
			name:    "closed",
			after:   func(s *Scheduler, _ *time.Time) { s.Close() },
			req:     func() Request { return Request{Job: "late", Questions: respelled("late", warm)} },
			wantErr: ErrClosed,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			now := time.Unix(10_000, 0)
			reg := metrics.NewRegistry()
			charged := 0
			s := newTestScheduler(t, func(cfg *Config) {
				cfg.Counters = reg
				cfg.OnCharge = func(string, float64) { charged++ }
				if c.mutate != nil {
					c.mutate(cfg, &now)
				}
			})
			warmCache(t, s, warm)
			if c.after != nil {
				c.after(s, &now)
			}
			before, chargesBefore := s.State(), charged
			hitsBefore := reg.Get(metrics.CounterSchedCacheHits)
			req := c.req()
			tk, err := s.Enqueue(req)
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("Enqueue err = %v, want %v", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := resolved(tk); got != c.wantResolved {
				t.Fatalf("resolved at Enqueue = %v, want %v", got, c.wantResolved)
			}
			if !c.wantResolved {
				if err := s.Flush(context.Background()); err != nil {
					t.Fatal(err)
				}
				if res, err := tk.Wait(context.Background()); err != nil || len(res.Results) != len(req.Questions) {
					t.Fatalf("after flush: %d results, err %v", len(res.Results), err)
				}
				return
			}
			after := s.State()
			if after.Generations != before.Generations || after.PendingJobs != 0 {
				t.Errorf("generations %d -> %d, pending %d: an all-hit request joined a generation",
					before.Generations, after.Generations, after.PendingJobs)
			}
			n := int64(len(req.Questions))
			if after.QuestionsEnqueued-before.QuestionsEnqueued != n || after.CacheHits-before.CacheHits != n ||
				after.JobsAdmitted-before.JobsAdmitted != 1 || after.CacheMisses != before.CacheMisses {
				t.Errorf("stats moved enqueued +%d hits +%d misses +%d admitted +%d; want +%d +%d +0 +1",
					after.QuestionsEnqueued-before.QuestionsEnqueued, after.CacheHits-before.CacheHits,
					after.CacheMisses-before.CacheMisses, after.JobsAdmitted-before.JobsAdmitted, n, n)
			}
			if got := reg.Get(metrics.CounterSchedCacheHits) - hitsBefore; got != n {
				t.Errorf("sched_cache_hits moved by %d, want %d", got, n)
			}
			res, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHits != len(req.Questions) || res.Cost != 0 || res.Shared != 0 || res.Published != 0 {
				t.Errorf("result hits %d cost %v shared %d published %d; want %d 0 0 0",
					res.CacheHits, res.Cost, res.Shared, res.Published, len(req.Questions))
			}
			if charged != chargesBefore {
				t.Errorf("OnCharge called %d times for a free request", charged-chargesBefore)
			}
			if len(res.Results) != len(req.Questions) {
				t.Fatalf("%d results, want %d", len(res.Results), len(req.Questions))
			}
			byID := make(map[string]int, len(req.Questions))
			for i, q := range req.Questions {
				byID[q.ID] = i
			}
			for i, qr := range res.Results {
				if i > 0 && res.Results[i-1].Question.ID >= qr.Question.ID {
					t.Errorf("results not sorted by question ID at %d", i)
				}
				j := byID[qr.Question.ID]
				q := req.Questions[j]
				entry, ok := s.cache.Get(tk.keys[j].key)
				if !ok {
					t.Fatalf("%s: no cache entry", q.ID)
				}
				var want string
				for _, d := range q.Domain {
					if strings.EqualFold(d, entry.Answer) {
						want = d
					}
				}
				if want == "" || qr.Answer != want || qr.Confidence != entry.Confidence || qr.Votes != entry.Votes ||
					!slices.Equal(qr.Question.Domain, q.Domain) || qr.Question.Text != q.Text {
					t.Errorf("%s: got %q conf %v votes %d, want %q (cached %q) conf %v votes %d",
						q.ID, qr.Answer, qr.Confidence, qr.Votes, want, entry.Answer, entry.Confidence, entry.Votes)
				}
			}
		})
	}
}

// TestEnqueueCacheBudgetParity: the enqueue path admits exactly what
// the flush would. A job or deployment already past its cap is not
// resolved at Enqueue and parks at the flush, and Budget 0 still
// clears a previous cap.
func TestEnqueueCacheBudgetParity(t *testing.T) {
	warm := workload(1, 5, 0)["job00"]
	cases := []struct {
		name    string
		global  float64
		restore func(*Ledger)
		req     Request
		// wantParked: not resolved at Enqueue, ErrParked after the flush;
		// otherwise resolved at Enqueue.
		wantParked bool
		wantLimit  float64
	}{
		{
			name:       "job spend past its cap",
			restore:    func(l *Ledger) { l.Restore(l.Spent(), map[string]JobBudget{"capped": {Limit: 0.1, Spent: 0.5}}) },
			req:        Request{Job: "capped", Budget: 0.1, Questions: respelled("capped", warm)},
			wantParked: true,
			wantLimit:  0.1,
		},
		{
			name:       "global spend past its cap",
			global:     1000,
			restore:    func(l *Ledger) { l.Restore(2000, nil) },
			req:        Request{Job: "broke", Questions: respelled("broke", warm)},
			wantParked: true,
		},
		{
			name:      "budget 0 clears a previous cap",
			restore:   func(l *Ledger) { l.Restore(l.Spent(), map[string]JobBudget{"freed": {Limit: 0.1, Spent: 0.5}}) },
			req:       Request{Job: "freed", Questions: respelled("freed", warm)},
			wantLimit: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestScheduler(t, func(cfg *Config) { cfg.GlobalBudget = c.global })
			warmCache(t, s, warm)
			c.restore(s.Ledger())
			tk, err := s.Enqueue(c.req)
			if err != nil {
				t.Fatal(err)
			}
			if got := resolved(tk); got == c.wantParked {
				t.Fatalf("resolved at Enqueue = %v, want %v", got, !c.wantParked)
			}
			if err := s.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			_, err = tk.Wait(context.Background())
			if c.wantParked && !errors.Is(err, ErrParked) {
				t.Fatalf("err = %v, want ErrParked", err)
			} else if !c.wantParked && err != nil {
				t.Fatal(err)
			}
			for _, line := range s.Ledger().Snapshot().Jobs {
				if line.Job == c.req.Job && line.Limit != c.wantLimit {
					t.Errorf("ledger limit for %s = %v, want %v", line.Job, line.Limit, c.wantLimit)
				}
			}
		})
	}
}

// gatedPlatform, once armed, holds every Publish until gate closes and
// signals the first arrival on entered: a generation frozen mid-crowd-work.
type gatedPlatform struct {
	engine.Platform
	armed         *atomic.Bool
	gate, entered chan struct{}
	once          *sync.Once
}

func (p gatedPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	if p.armed.Load() {
		p.once.Do(func() { close(p.entered) })
		<-p.gate
	}
	return p.Platform.Publish(hit, n)
}

// TestEnqueueCacheDuringFlush: all-hit requests resolve inside Enqueue
// while a generation is stalled in crowd work and then while it puts
// its answers into the cache — they never wait on the flush.
func TestEnqueueCacheDuringFlush(t *testing.T) {
	armed, gate, entered := new(atomic.Bool), make(chan struct{}), make(chan struct{})
	s := newTestScheduler(t, func(c *Config) {
		c.Platform = gatedPlatform{Platform: c.Platform, armed: armed, gate: gate, entered: entered, once: new(sync.Once)}
	})
	warm := workload(1, 8, 0)["job00"]
	warmCache(t, s, warm)
	armed.Store(true)

	freshQs := make([]crowd.Question, 30)
	for i := range freshQs {
		freshQs[i] = uniqueQuestion("fresh", i)
	}
	fresh, err := s.Enqueue(Request{Job: "fresh", Questions: freshQs})
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush(context.Background()) }()

	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				job := fmt.Sprintf("hit-%d-%d", g, i)
				tk, err := s.Enqueue(Request{Job: job, Questions: respelled(job, warm)})
				if err != nil {
					t.Error(err)
					return
				}
				if !resolved(tk) {
					t.Errorf("%s: all-hit request not resolved at Enqueue", job)
					return
				}
				if res, _ := tk.Wait(context.Background()); len(res.Results) != len(warm) || res.CacheHits != len(warm) {
					t.Errorf("%s: %d results, %d hits", job, len(res.Results), res.CacheHits)
					return
				}
				served.Add(1)
			}
		}(g)
	}
	<-entered
	base := served.Load()
	for deadline := time.Now().Add(10 * time.Second); served.Load() < base+16 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := served.Load() - base; n < 16 {
		t.Errorf("only %d all-hit requests served while a generation was in flight", n)
	}
	close(gate)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if res, err := fresh.Wait(context.Background()); err != nil || len(res.Results) != 30 {
		t.Fatalf("fresh: %d results, err %v", len(res.Results), err)
	}
}

// TestEnqueueCacheMissAllocatesNothing: the enqueue-time probe stops at
// the first miss without allocating, so requests that need the crowd
// pay nothing for the all-hit path.
func TestEnqueueCacheMissAllocatesNothing(t *testing.T) {
	s := newTestScheduler(t, nil)
	warm := workload(1, 6, 0)["job00"]
	warmCache(t, s, warm)
	tk, err := s.Enqueue(Request{Job: "part", Questions: append(respelled("part", warm), uniqueQuestion("part", 99))})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if s.resolveFromCache(tk) {
			t.Fatal("a request with a miss resolved at Enqueue")
		}
	}); allocs != 0 {
		t.Errorf("miss path allocated %v times per probe, want 0", allocs)
	}
}

// TestFlushSizesTicketResultsOnce: a ticket answered partly from the
// cache and partly by its generation's crowd work gets its result slice
// once, sized to its question count at admission — neither path grows it.
func TestFlushSizesTicketResultsOnce(t *testing.T) {
	s := newTestScheduler(t, nil)
	warm := workload(1, 17, 0)["job00"]
	warmCache(t, s, warm)
	qs := respelled("mixed", warm)
	for i := 0; i < 20; i++ {
		qs = append(qs, uniqueQuestion("mixed", 100+i))
	}
	res := runWorkload(t, s, map[string][]crowd.Question{"mixed": qs}, 1)["mixed"]
	if res.CacheHits != len(warm) || len(res.Results) != len(qs) {
		t.Fatalf("%d cache hits and %d results, want %d and %d", res.CacheHits, len(res.Results), len(warm), len(qs))
	}
	if cap(res.Results) != len(qs) {
		t.Errorf("result slice has capacity %d for %d questions: it was grown, not sized once", cap(res.Results), len(qs))
	}
	if !slices.IsSortedFunc(res.Results, func(a, b engine.QuestionResult) int { return strings.Compare(a.Question.ID, b.Question.ID) }) {
		t.Error("results are not sorted by question ID")
	}
}

// TestSortResultsMatchesValueSort: the index sort with in-place cycle
// moves puts every result where sorting the values would.
func TestSortResultsMatchesValueSort(t *testing.T) {
	for n := 0; n < 40; n++ {
		rs := make([]engine.QuestionResult, n)
		for i := range rs {
			rs[i].Question.ID = fmt.Sprintf("q%03d", (i*7919)%n) // 7919 is prime: a permutation
			rs[i].Votes = i
		}
		want := slices.Clone(rs)
		slices.SortFunc(want, func(a, b engine.QuestionResult) int { return strings.Compare(a.Question.ID, b.Question.ID) })
		sortResults(rs)
		for i := range rs {
			if rs[i].Question.ID != want[i].Question.ID || rs[i].Votes != want[i].Votes {
				t.Fatalf("n=%d: position %d holds %s/%d, want %s/%d", n, i, rs[i].Question.ID, rs[i].Votes, want[i].Question.ID, want[i].Votes)
			}
		}
	}
}
