// Example multitenant demonstrates the cross-query crowd scheduler:
// four tenants run sentiment queries whose keyword filters overlap, so
// half of every tenant's questions are also some other tenant's
// questions. The scheduler coalesces them into shared HIT batches —
// each distinct question is purchased once and its verified answer is
// fanned out to every subscriber — then a tenant re-runs its query and
// is answered entirely from the verified-answer cache, for free.
// Finally a tenant with a near-zero budget is parked, not failed.
//
// Output is bit-equal across runs for a fixed -seed, and across
// -dispatchers settings: batch composition is derived from the sorted
// canonical question set, never from goroutine arrival order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 7, "simulation seed")
		dispatchers = flag.Int("dispatchers", 4, "concurrent tenant submitters")
		budget      = flag.Float64("budget", 0, "global crowd budget (0: unlimited)")
	)
	flag.Parse()
	if err := run(*seed, *dispatchers, *budget); err != nil {
		log.Fatal(err)
	}
}

// tenant is one customer's analytics query: a keyword filter spanning
// two movies, so neighbouring tenants share half their questions.
type tenant struct {
	name     string
	keywords []string
}

func run(seed uint64, dispatchers int, budget float64) error {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(seed))
	if err != nil {
		return err
	}
	movies := []string{"Aurora Heights", "Beacon Street", "Cedar Falls", "Dust Devils"}
	stream, err := textgen.Generate(textgen.Config{Seed: seed + 1, Movies: movies, TweetsPerMovie: 30})
	if err != nil {
		return err
	}
	golden, err := textgen.Generate(textgen.Config{Seed: seed + 2, Movies: []string{"The Calibration Reel"}, TweetsPerMovie: 30})
	if err != nil {
		return err
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform:     engine.CrowdPlatform{Platform: platform},
		Engine:       engine.Config{HITSize: 25, MaxInflightHITs: 4, Seed: seed},
		Golden:       tsa.GoldenQuestions(golden),
		GlobalBudget: budget,
	})
	if err != nil {
		return err
	}
	defer sched.Close()

	// Every tenant queries two movies; every movie is watched by two
	// tenants — 50% question overlap all around the ring.
	tenants := make([]tenant, len(movies))
	for i := range movies {
		tenants[i] = tenant{
			name:     fmt.Sprintf("tenant-%d", i),
			keywords: []string{movies[i], movies[(i+1)%len(movies)]},
		}
	}

	// One stream prepared for every tenant: its text is case-folded by
	// whichever tenant filters first, and never again.
	tweets := tsa.NewStream(stream)
	start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	query := func(t tenant) jobs.Query {
		return jobs.Query{
			Keywords:         t.keywords,
			RequiredAccuracy: 0.9,
			Domain:           append([]string(nil), textgen.Labels...),
			Start:            start,
			Window:           24 * time.Hour,
		}
	}

	// Phase 1: all tenants enqueue concurrently (-dispatchers goroutines),
	// then one flush cuts the generation.
	// The submitter count is deliberately left out of the output: runs
	// must be bit-equal across -dispatchers settings.
	fmt.Printf("=== generation 1: %d tenants enqueue concurrently ===\n", len(tenants))
	tickets := make([]*scheduler.Ticket, len(tenants))
	matches := make([]tsa.Matched, len(tenants))
	sem := make(chan struct{}, max(dispatchers, 1))
	var wg sync.WaitGroup
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m := tweets.Match(query(t))
			ticket, err := sched.Enqueue(scheduler.Request{
				Job:       t.name,
				Questions: tsa.Questions(m.Tweets),
			})
			if err != nil {
				log.Fatalf("%s: %v", t.name, err)
			}
			matches[i], tickets[i] = m, ticket
		}()
	}
	wg.Wait()
	if err := sched.Flush(context.Background()); err != nil {
		return err
	}
	for i, t := range tenants {
		res, err := tickets[i].Wait(context.Background())
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		fold := exec.NewFold(textgen.Labels, t.keywords...)
		fold.ObserveResults(res.Results, matches[i].Texts)
		sum := fold.Summary()
		fmt.Printf("%s (%s + %s): %d questions, $%.3f attributed (published %d, shared %d, cached %d)\n",
			t.name, t.keywords[0], t.keywords[1], len(res.Results), res.Cost,
			res.Published, res.Shared, res.CacheHits)
		for _, label := range sum.Domain {
			fmt.Printf("    %-8s %5.1f%%\n", label, sum.Percentages[label]*100)
		}
	}

	// Phase 2: tenant-0 re-runs its query — every answer is already
	// verified and cached, so nothing is published and nothing charged.
	fmt.Printf("\n=== generation 2: tenant-0 re-runs its query ===\n")
	m := tweets.Match(query(tenants[0]))
	rerun, err := sched.Enqueue(scheduler.Request{Job: "tenant-0-rerun", Questions: tsa.Questions(m.Tweets)})
	if err != nil {
		return err
	}
	if err := sched.Flush(context.Background()); err != nil {
		return err
	}
	res, err := rerun.Wait(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("tenant-0-rerun: %d questions, %d cache hits, $%.3f charged\n",
		len(res.Results), res.CacheHits, res.Cost)

	// Phase 3: a tenant whose budget cannot cover fresh crowd work is
	// parked — kept resumable — rather than failed. Fresh keywords make
	// sure the cache cannot answer it.
	fmt.Printf("\n=== generation 3: near-zero budget parks, doesn't fail ===\n")
	gq, err := textgen.Generate(textgen.Config{Seed: seed + 3, Movies: []string{"Ember Lane"}, TweetsPerMovie: 10})
	if err != nil {
		return err
	}
	parked, err := sched.Enqueue(scheduler.Request{
		Job:       "cheapskate",
		Budget:    0.0001,
		Questions: tsa.Questions(gq),
	})
	if err != nil {
		return err
	}
	if err := sched.Flush(context.Background()); err != nil {
		return err
	}
	if _, err := parked.Wait(context.Background()); errors.Is(err, scheduler.ErrParked) {
		fmt.Printf("cheapskate: parked as expected (%v)\n", err)
	} else {
		return fmt.Errorf("cheapskate: expected parking, got %v", err)
	}

	st := sched.State()
	fmt.Printf("\n=== scheduler state ===\n")
	fmt.Printf("generations:         %d\n", st.Generations)
	fmt.Printf("questions enqueued:  %d\n", st.QuestionsEnqueued)
	fmt.Printf("questions published: %d\n", st.QuestionsPublished)
	fmt.Printf("questions deduped:   %d\n", st.QuestionsDeduped)
	fmt.Printf("cache hits / misses: %d / %d\n", st.CacheHits, st.CacheMisses)
	fmt.Printf("jobs admitted / parked: %d / %d\n", st.JobsAdmitted, st.JobsParked)
	fmt.Printf("crowd spend:         $%.3f\n", st.Budget.GlobalSpent)
	saved := st.QuestionsDeduped + st.CacheHits
	total := st.QuestionsEnqueued
	fmt.Printf("crowd purchases avoided: %d of %d enqueued (%.0f%%)\n",
		saved, total, 100*float64(saved)/float64(total))
	return nil
}
