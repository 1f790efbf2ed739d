// Example jobservice demonstrates the durable job service: jobs are
// submitted to a dispatcher pool, executed through the cross-query crowd
// scheduler, and every lifecycle transition and budget charge is
// committed to the LSM job store. The example stops the service while
// the second job's HITs are being bought — the moral equivalent of
// kill -9 — then reopens the store and shows the replay resuming the
// interrupted job without re-running the finished one.
package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

const seed = 7

func main() {
	dir, err := os.MkdirTemp("", "cdas-jobservice-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("job store: %s\n\n", dir)

	sim, err := crowd.NewPlatform(crowd.DefaultConfig(seed))
	if err != nil {
		log.Fatal(err)
	}
	movies := []string{"Kung Fu Panda 2", "Thor"}
	stream, err := textgen.Generate(textgen.Config{Seed: seed + 1, Movies: movies, TweetsPerMovie: 40})
	if err != nil {
		log.Fatal(err)
	}
	golden, err := textgen.Generate(textgen.Config{Seed: seed + 2, Movies: []string{"The Calibration Reel"}, TweetsPerMovie: 30})
	if err != nil {
		log.Fatal(err)
	}
	// The simulator answers instantly; pace HIT publication like a real
	// crowd market would so there is a mid-flight moment to interrupt.
	platform := &slowPlatform{CrowdPlatform: engine.CrowdPlatform{Platform: sim}, delay: 40 * time.Millisecond}
	counters := metrics.NewRegistry()
	start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)

	// ---- First incarnation: run one job, interrupt the other. ----
	svc, sched, disp := boot(dir, platform, stream, golden, counters)
	for _, movie := range movies {
		if _, err := disp.Submit(jobs.Job{Name: movie, Kind: jobs.KindTSA,
			Query: tsa.Query(movie, 0.9, start, 24*time.Hour)}); err != nil {
			log.Fatal(err)
		}
	}
	// Wait until the first job is done and the second one's generation
	// is buying HITs from the slow platform, then cut the process down.
	// (The scheduler reports a job's progress once, when its generation
	// has flushed, so a mid-flight job still reads 0%.)
	var published int64
	for {
		first, _ := disp.Status(movies[0])
		second, _ := disp.Status(movies[1])
		if !first.State.Terminal() {
			published = platform.published.Load()
		} else if second.State == jobs.StateRunning && platform.published.Load() > published {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// kill -9: the store stops receiving writes first, so its last word
	// on the in-flight job is "running" — no graceful requeue ever
	// reaches disk. (Stop afterwards only reaps the orphaned goroutines;
	// its requeue attempt fails on the closed store, exactly like a dead
	// process that can no longer write.)
	svc.Close()
	disp.Stop()
	sched.Close()
	fmt.Println("state at the moment of the crash (in-flight job still \"running\"):")
	printStatuses(svc)

	// ---- Second incarnation: reopen the store and finish the rest. ----
	svc2, sched2, disp2 := boot(dir, platform, stream, golden, counters)
	defer svc2.Close()
	defer sched2.Close()
	for _, name := range svc2.Resumed() {
		fmt.Printf("\nreplay resumed interrupted job %q\n", name)
	}
	for {
		allDone := true
		for _, st := range disp2.Statuses() {
			if !st.State.Terminal() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	disp2.Stop()
	fmt.Println("\nafter the second incarnation (store reopened, all jobs finished):")
	printStatuses(svc2)
	fmt.Printf("\ncounters: submitted=%d started=%d completed=%d resumed=%d wal_appends=%d\n",
		counters.Get(metrics.CounterJobsSubmitted),
		counters.Get(metrics.CounterJobsStarted),
		counters.Get(metrics.CounterJobsCompleted),
		counters.Get(metrics.CounterJobsResumed),
		counters.Get(metrics.CounterWALAppends))
}

// boot opens one incarnation of the service on dir, wired as
// cdas-server wires it: the store, a scheduler whose charges are
// committed to the store's budget ledger, and one dispatcher running
// TSA jobs through the scheduler.
func boot(dir string, platform engine.Platform, stream, golden []textgen.Tweet, counters *metrics.Registry) (*jobs.Service, *scheduler.Scheduler, *jobs.Dispatcher) {
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Counters: counters})
	if err != nil {
		log.Fatal(err)
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform:      platform,
		Engine:        engine.Config{RequiredAccuracy: 0.9, HITSize: 10, MaxInflightHITs: 1, Seed: seed},
		Golden:        tsa.GoldenQuestions(golden),
		FlushInterval: 20 * time.Millisecond,
		OnCharge: func(job string, amount float64) {
			// The crowd is paid by now; a store closed by the crash
			// cannot record it.
			if err := svc.ChargeBudget(job, amount); err != nil {
				fmt.Printf("  (charge of $%.2f for %q lost with the process: %v)\n", amount, job, err)
			}
		},
		Counters: counters,
	})
	if err != nil {
		log.Fatal(err)
	}
	disp, err := jobs.NewDispatcher(svc, tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{Scheduler: sched, Stream: stream}), 1)
	if err != nil {
		log.Fatal(err)
	}
	disp.Start()
	return svc, sched, disp
}

// slowPlatform delays each HIT publication, simulating a marketplace
// where assignments take real time, and counts the publications.
type slowPlatform struct {
	engine.CrowdPlatform
	delay     time.Duration
	published atomic.Int64
}

func (p *slowPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	p.published.Add(1)
	time.Sleep(p.delay)
	return p.CrowdPlatform.Publish(hit, n)
}

func printStatuses(svc *jobs.Service) {
	// Page through the index instead of materializing the whole table —
	// the idiom every listing consumer should use.
	after := ""
	for {
		page, more := svc.StatusesPage(after, 100, "", "")
		for _, st := range page {
			fmt.Printf("  %-16s state=%-9s attempts=%d progress=%4.0f%% cost=$%.2f\n",
				st.Job.Name, st.State, st.Attempts, st.Progress*100, st.Cost)
		}
		if !more {
			return
		}
		after = page[len(page)-1].Job.Name
	}
}
