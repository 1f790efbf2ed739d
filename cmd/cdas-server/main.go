// Command cdas-server runs the CDAS job service: a durable job manager
// (Figure 2) fronted by the Figure 4-style result dashboard. Jobs are
// submitted over HTTP and executed by a dispatcher pool through the
// cross-query crowd scheduler, which coalesces concurrent jobs'
// questions into shared HIT batches, answers repeated questions from a
// verified-answer cache, and enforces per-job and global crowd budgets
// (over-budget jobs park instead of failing). When -store is set every
// lifecycle transition and budget charge is committed to the indexed
// LSM job store (checkpointed off the commit path), so a killed server
// replays on restart, resumes unfinished jobs and keeps charging from
// where it stopped. A store in a retired layout is refused at boot with
// jobstore.ErrRetiredFormat, and nothing in it is changed.
//
// Usage:
//
//	cdas-server [-addr :8080] [-seed 1] [-accuracy 0.9] [-inflight 4]
//	            [-store DIR] [-dispatchers 2] [-demo]
//	            [-budget 0] [-dedup=true]
//
// HTTP API (v1; see api/openapi.yaml for the wire contract and
// cmd/cdasctl for the CLI speaking it):
//
//	POST   /v1/jobs                   submit a job (JSON body, see api.JobSubmission)
//	GET    /v1/jobs                   paginated, filterable job list
//	GET    /v1/jobs/{name}            one job's state, progress, cost and live results
//	DELETE /v1/jobs/{name}            cancel a pending, parked or running job
//	POST   /v1/jobs/{name}:unpark     resume a budget-parked job
//	GET    /v1/queries                all live query states
//	GET    /v1/queries/{name}         one query's state
//	GET    /v1/queries/{name}/events  SSE stream of live result revisions
//	GET    /v1/enumerations                list enumeration jobs
//	GET    /v1/enumerations/{name}         one enumeration's result set and estimate
//	GET    /v1/enumerations/{name}/events  SSE stream of discovered items
//	GET    /v1/scheduler              scheduler batching, cache and budget state
//	GET    /v1/metrics                operational counters
//	GET    /v1/healthz                liveness probe
//	GET    /                          HTML results overview
//
// Continuous jobs are submitted as POST /v1/jobs with kind
// "continuous"; enumerations with kind "enumeration" and an "enum"
// spec block. The /v1/streams group stays mounted as a deprecated
// alias with a Deprecation header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/enum"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/standing"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

// windowDeadline bounds how long a standing query's window close waits
// for the other live streams' window batches before force-flushing.
const windowDeadline = 500 * time.Millisecond

// budgetLines converts the service's persisted spend into scheduler
// ledger lines (limits re-arrive with each job's enqueue).
func budgetLines(b jobs.BudgetState) map[string]scheduler.JobBudget {
	out := make(map[string]scheduler.JobBudget, len(b.Jobs))
	for name, spent := range b.Jobs {
		out[name] = scheduler.JobBudget{Spent: spent}
	}
	return out
}

// persistCharge is the OnCharge hook of both the scheduler and the
// enumeration runner: it commits every charge to the durable ledger, so a
// restarted server keeps accounting from where the dead one stopped. The
// crowd has been paid by the time the hook runs, so a charge the store
// refuses cannot be taken back here; it is logged and counted
// (budget_charge_failures), and the durable ledger is that much behind the
// scheduler's until the next restart.
func persistCharge(svc *jobs.Service, counters *metrics.Registry) func(job string, amount float64) {
	return func(job string, amount float64) {
		if err := svc.ChargeBudget(job, amount); err != nil {
			counters.Inc(metrics.CounterBudgetChargeFailures)
			log.Printf("cdas-server: recording budget charge for %q: %v", job, err)
		}
	}
}

// runnerByKind routes a claimed job to its kind's runner. Submit
// validation accepts kinds this server has no runner for (imagetag,
// custom); such a job fails permanently instead of being executed as
// some other kind's query.
func runnerByKind(tsaRunner, standingRunner, enumRunner jobs.Runner) jobs.Runner {
	return func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		switch job.Kind {
		case jobs.KindTSA:
			return tsaRunner(ctx, job, report)
		case jobs.KindContinuous:
			return standingRunner(ctx, job, report)
		case jobs.KindEnumeration:
			return enumRunner(ctx, job, report)
		default:
			return fmt.Errorf("%w: cdas-server: no runner for kind %q", jobs.ErrPermanent, job.Kind)
		}
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		accuracy    = flag.Float64("accuracy", 0.9, "required accuracy C for demo jobs")
		inflight    = flag.Int("inflight", 4, "HITs published and draining at once per job")
		store       = flag.String("store", "", "durable job store directory (empty: in-memory only)")
		dispatchers = flag.Int("dispatchers", 2, "dispatcher workers pulling pending jobs")
		demo        = flag.Bool("demo", true, "submit the demo TSA jobs at boot")
		budget      = flag.Float64("budget", 0, "global crowd budget across all jobs (0: unlimited)")
		dedup       = flag.Bool("dedup", true, "coalesce identical questions across jobs and cache verified answers")
	)
	flag.Parse()
	if err := run(*addr, *seed, *accuracy, *inflight, *store, *dispatchers, *demo, *budget, *dedup); err != nil {
		log.Fatalf("cdas-server: %v", err)
	}
}

func run(addr string, seed uint64, accuracy float64, inflight int, store string, dispatchers int, demo bool, budget float64, dedup bool) error {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(seed))
	if err != nil {
		return err
	}
	movies := []string{"Kung Fu Panda 2", "Thor", "Green Latern"}
	stream, err := textgen.Generate(textgen.Config{
		Seed:           seed + 1,
		Movies:         movies,
		TweetsPerMovie: 60,
	})
	if err != nil {
		return err
	}
	golden, err := textgen.Generate(textgen.Config{
		Seed:           seed + 2,
		Movies:         []string{"The Calibration Reel"},
		TweetsPerMovie: 40,
	})
	if err != nil {
		return err
	}

	counters := metrics.NewRegistry()
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: store, Counters: counters, Logf: log.Printf})
	if err != nil {
		return err
	}
	defer svc.Close()
	for _, name := range svc.Resumed() {
		log.Printf("cdas-server: resuming interrupted job %q from the store", name)
	}

	api := httpapi.NewServer()
	api.SetLogf(log.Printf)
	sched, err := scheduler.New(scheduler.Config{
		Platform: engine.CrowdPlatform{Platform: platform},
		Engine: engine.Config{
			RequiredAccuracy: accuracy,
			HITSize:          50,
			MaxInflightHITs:  inflight,
			Seed:             seed,
		},
		Golden:        tsa.GoldenQuestions(golden),
		GlobalBudget:  budget,
		DisableDedup:  !dedup,
		FlushInterval: 50 * time.Millisecond,
		OnCharge:      persistCharge(svc, counters),
		Counters:      counters,
	})
	if err != nil {
		return err
	}
	defer sched.Close()
	// A restart resumes accounting where the dead process stopped.
	persisted := svc.Budget()
	sched.Ledger().Restore(persisted.GlobalSpent, budgetLines(persisted))

	tsaRunner := tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{
		Scheduler: sched,
		Stream:    stream,
		API:       api,
	})
	// Standing queries close windows through a generation barrier; on a
	// live server the deadline keeps one slow stream from stalling every
	// other stream's window close.
	coord := standing.NewCoordinator(sched, windowDeadline)
	standingRunner := standing.NewRunner(standing.RunnerConfig{
		Scheduler: sched,
		Coord:     coord,
		Marks:     svc,
		Counters:  counters,
		Publish:   api.StandingPublisher(),
	})
	enumRunner := enum.NewRunner(enum.RunnerConfig{
		Scheduler: sched,
		Marks:     svc,
		// Enumeration batches charge the ledger directly (no flush loop).
		OnCharge: persistCharge(svc, counters),
		Counters: counters,
		Publish:  api.EnumPublisher(),
	})
	disp, err := jobs.NewDispatcher(svc, runnerByKind(tsaRunner, standingRunner, enumRunner), dispatchers)
	if err != nil {
		return err
	}
	api.SetJobs(disp)
	api.SetCounters(counters)
	api.SetScheduler(sched)
	disp.Start()
	defer disp.Stop()

	if demo {
		start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
		for _, movie := range movies {
			_, err := disp.Submit(jobs.Job{
				Name:  movie,
				Kind:  jobs.KindTSA,
				Query: tsa.Query(movie, accuracy, start, 24*time.Hour),
			})
			switch {
			case errors.Is(err, jobs.ErrDuplicateJob):
				// Restart against an existing store: the job's fate is
				// already in the WAL.
			case err != nil:
				return err
			}
		}
	}

	// NewHTTPServer's timeouts are SSE-aware: header/idle deadlines
	// bound abuse without severing long-lived event streams.
	server := httpapi.NewHTTPServer(addr, api.Handler())
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("cdas-server: serving the CDAS job service on %s (store=%q, %d dispatchers, dedup=%v, budget=%v)",
		addr, store, dispatchers, dedup, budget)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("cdas-server: %v — draining dispatchers (running jobs requeue to the WAL)", s)
		disp.Stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			return err
		}
		return nil
	}
}
