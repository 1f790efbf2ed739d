// SDK: boots a complete in-process CDAS server (job service +
// dispatcher + cross-query crowd scheduler + v1 HTTP API) on a loopback
// port, then drives it purely through the cdas/client SDK — submit a
// job, stream its Figure 4 live view over SSE with WatchQuery, page
// through the job list with the auto-paginating iterator, and decode a
// typed error envelope. Everything a remote consumer of the v1 API
// would do, in one self-contained binary.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"cdas/api"
	"cdas/client"
	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// ---- Server side: the same assembly cdas-server performs. ----
	const seed = 7
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(seed))
	if err != nil {
		return err
	}
	movies := []string{"Kung Fu Panda 2", "Thor"}
	stream, err := textgen.Generate(textgen.Config{Seed: seed + 1, Movies: movies, TweetsPerMovie: 40})
	if err != nil {
		return err
	}
	golden, err := textgen.Generate(textgen.Config{Seed: seed + 2, Movies: []string{"The Calibration Reel"}, TweetsPerMovie: 30})
	if err != nil {
		return err
	}
	counters := metrics.NewRegistry()
	svc, err := jobs.OpenService(jobs.ServiceConfig{Counters: counters})
	if err != nil {
		return err
	}
	defer svc.Close()
	srv := httpapi.NewServer()
	sched, err := scheduler.New(scheduler.Config{
		Platform:      engine.CrowdPlatform{Platform: platform},
		Engine:        engine.Config{RequiredAccuracy: 0.9, HITSize: 20, MaxInflightHITs: 4, Seed: seed},
		Golden:        tsa.GoldenQuestions(golden),
		FlushInterval: 50 * time.Millisecond,
		Counters:      counters,
	})
	if err != nil {
		return err
	}
	defer sched.Close()
	runner := tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{Scheduler: sched, Stream: stream, API: srv})
	disp, err := jobs.NewDispatcher(svc, runner, 2)
	if err != nil {
		return err
	}
	srv.SetJobs(disp)
	srv.SetCounters(counters)
	srv.SetScheduler(sched)
	disp.Start()
	defer disp.Stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	web := httpapi.NewHTTPServer(ln.Addr().String(), srv.Handler())
	go web.Serve(ln)
	defer web.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("in-process CDAS server on %s\n\n", base)

	// ---- Client side: only the SDK from here down. ----
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		return fmt.Errorf("health: %+v, %v", h, err)
	}

	start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	for _, movie := range movies {
		if _, err := c.SubmitJob(ctx, api.JobSubmission{
			Name:             movie,
			Kind:             "tsa",
			Keywords:         []string{movie},
			RequiredAccuracy: 0.9,
			Domain:           []string{"Positive", "Neutral", "Negative"},
			Start:            start.Format(time.RFC3339),
			Window:           "24h",
		}); err != nil {
			return fmt.Errorf("submit %s: %w", movie, err)
		}
	}

	// Stream the first movie's live view over SSE until the terminal
	// done event. The scheduler answers a job once its generation has
	// flushed, so the run publishes one revision: its final state.
	fmt.Printf("watching %q:\n", movies[0])
	events, err := c.WatchQuery(ctx, movies[0])
	if err != nil {
		return err
	}
	for ev := range events {
		if ev.Err != nil {
			return ev.Err
		}
		fmt.Printf("  %-5s rev=%-2d progress=%5.1f%% items=%d\n",
			ev.Type, ev.ID, ev.State.Progress*100, ev.State.Items)
	}

	// Wait for everything to finish, then page through the list two at
	// a time via the auto-paginating iterator.
	if err := waitAllDone(ctx, c); err != nil {
		return err
	}
	fmt.Println("\nall jobs (iterator, page size 1):")
	for st, err := range c.Jobs(ctx, client.ListJobsOptions{Limit: 1}) {
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %-9s cost=%.2f\n", st.Name, st.State, st.Cost)
	}

	// Typed error envelopes: a miss is a *api.Error you can switch on.
	_, err = c.Job(ctx, "no such job")
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		fmt.Printf("\ntyped error for a missing job: code=%s status=%d\n", apiErr.Code, apiErr.Status)
	}
	return nil
}

func waitAllDone(ctx context.Context, c *client.Client) error {
	for {
		page, err := c.ListJobs(ctx, client.ListJobsOptions{})
		if err != nil {
			return err
		}
		done := true
		for _, st := range page.Jobs {
			if !st.State.Terminal() {
				done = false
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}
