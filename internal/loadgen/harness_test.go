// The harness: boots the full CDAS stack in-process and drives the
// workload purely through the cdas/client SDK — exactly the traffic a
// fleet of real tenants would produce: POST /v1/jobs submissions, SSE
// watchers on the live result streams, and job-list polling for
// settlement.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdas/api"
	"cdas/client"
	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/enum"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/standing"
	"cdas/internal/tsa"
)

const (
	// pollInterval is the settlement poll cadence; loopback polls are
	// cheap, so keep it tight.
	pollInterval = 2 * time.Millisecond
	// drainTimeout bounds the wait for SSE watchers once the run settled.
	drainTimeout = 5 * time.Second
	// stallTimeout fails a run in which no job settles and no generation
	// flushes for this long, so a barrier regression fails instead of
	// hanging the test binary.
	stallTimeout = 30 * time.Second
)

// Run executes the profile against a fresh in-process stack and
// returns its report. On failure (ctx done or the stall detector) the
// report covers what settled and the error says why.
func Run(ctx context.Context, p Profile) (*Report, error) {
	p, err := p.Validate()
	if err != nil {
		return nil, err
	}
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	// A wave must be able to block in one generation entirely; with a
	// wider pool the dispatcher count changes goroutine scheduling only,
	// never batch composition.
	srv, err := startInproc(p, w, max(p.Dispatchers, p.Tenants))
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	c := client.New(srv.base)
	rec := &recorder{
		settled:     make(map[string]bool),
		cancelWatch: make(map[string]context.CancelFunc),
	}
	watchCtx, stopWatchers := context.WithCancel(ctx)
	defer stopWatchers()
	var watchers sync.WaitGroup

	var runErr error
rounds:
	for round := 0; round < p.Rounds; round++ {
		var names []string
		for _, t := range w.Tenants {
			name := w.JobName(t, round)
			switch {
			case p.Stream:
				_, err = c.SubmitStream(ctx, w.StreamSubmission(t))
			case p.Enum:
				_, err = c.SubmitJob(ctx, w.EnumSubmission(t))
			default:
				_, err = c.SubmitJob(ctx, w.Submission(t, round))
			}
			if err != nil {
				if ctx.Err() != nil {
					runErr = ctx.Err()
					break rounds
				}
				rec.addError(fmt.Sprintf("submit %s: %v", name, err))
				continue
			}
			rec.submitted++
			names = append(names, name)
			if t.Watcher {
				rec.watchers++
				rec.openWatchers.Add(1)
				watchers.Add(1)
				wctx, cancel := context.WithCancel(watchCtx)
				rec.cancelWatch[name] = cancel
				go func() {
					defer watchers.Done()
					defer rec.openWatchers.Add(-1)
					defer cancel()
					switch {
					case p.Stream:
						watch(wctx, rec, c.WatchStream, name, func(e client.StreamEvent) error { return e.Err })
					case p.Enum:
						watch(wctx, rec, c.WatchEnumeration, name, func(e client.EnumWatchEvent) error { return e.Err })
					default:
						watch(wctx, rec, c.WatchQuery, name, func(e client.QueryEvent) error { return e.Err })
					}
				}()
			}
		}
		if err := awaitSettled(ctx, c, srv, names, rec); err != nil {
			runErr = err
			break rounds
		}
	}

	// Graceful drain: a finished job's feed ends in a done event, so give
	// the watchers a bounded window to read it — a run that settles in
	// milliseconds can finish before a watcher has connected, and
	// cancelling first would cut that watcher off with nothing seen.
	// (awaitSettled has already released the watchers of parked jobs.) A
	// feed still open at the deadline is cancelled: an unfinished SSE
	// stream must never hang the harness. A run that did not settle is
	// owed no done events and is cancelled at once.
	if runErr != nil {
		stopWatchers()
	}
	drained := make(chan struct{})
	go func() { watchers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		rec.addError(fmt.Sprintf("%d SSE watcher(s) still open after %v drain deadline", rec.openWatchers.Load(), drainTimeout))
		stopWatchers()
	}

	// Final sweep on a fresh context: a failed run still reports
	// whatever settled.
	sweepCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	rep := assembleReport(sweepCtx, c, w, rec)
	if runErr != nil {
		return rep, fmt.Errorf("loadgen: run did not settle: %w (errors: %s)", runErr, strings.Join(rep.Errors, "; "))
	}
	return rep, nil
}

// recorder accumulates run observations under one lock (the SDK calls
// themselves dominate; this is not a hot path).
type recorder struct {
	mu        sync.Mutex
	errs      []string
	sseEvents atomic.Int64
	// openWatchers counts the watchers still running (the
	// drain-deadline diagnostic).
	openWatchers atomic.Int64
	// The rest is touched by Run's goroutine only. cancelWatch holds
	// each watcher's cancel func by job name, so that a job settling as
	// parked — inert, its feed never publishes done — releases its
	// watcher at once instead of holding the drain to its deadline.
	submitted   int
	watchers    int
	settled     map[string]bool
	cancelWatch map[string]context.CancelFunc
}

const maxReportedErrors = 20

func (r *recorder) addError(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < maxReportedErrors {
		r.errs = append(r.errs, msg)
	}
}

// settledState reports whether a job stopped consuming the crowd: the
// terminal states plus Parked (resumable, but inert until unparked).
func settledState(s api.JobState) bool { return s.Terminal() || s == api.JobParked }

// watch consumes one job's SSE feed to its end, counting events; open
// is the SDK's watch method for the job's kind.
func watch[E any](ctx context.Context, rec *recorder, open func(context.Context, string, ...client.WatchOptions) (<-chan E, error), name string, errOf func(E) error) {
	events, err := open(ctx, name)
	if err == nil {
		for ev := range events {
			if err = errOf(ev); err != nil {
				break
			}
			rec.sseEvents.Add(1)
		}
	}
	if err != nil && ctx.Err() == nil {
		rec.addError(fmt.Sprintf("watch %s: %v", name, err))
	}
}

// awaitSettled polls the job list until every named job settles. For a
// batch workload it also drives the scheduler: once every unsettled job
// of the wave is blocked in the pending generation, it flushes —
// making generation composition a pure function of the profile rather
// than of timing.
func awaitSettled(ctx context.Context, c *client.Client, srv *inprocServer, names []string, rec *recorder) error {
	expected := make(map[string]bool, len(names))
	for _, n := range names {
		expected[n] = true
	}
	settled := 0
	lastProgress := time.Now()
	lastPending := -1
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		now := time.Now()
		for st, err := range c.Jobs(ctx, client.ListJobsOptions{}) {
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				rec.addError(fmt.Sprintf("list jobs: %v", err))
				break
			}
			if expected[st.Name] && settledState(st.State) && !rec.settled[st.Name] {
				rec.settled[st.Name] = true
				settled++
				lastProgress = now
				if cancel := rec.cancelWatch[st.Name]; cancel != nil && st.State == api.JobParked {
					cancel()
				}
			}
		}
		if settled == len(names) {
			return nil
		}
		if srv.barrier {
			pending := srv.sched.State().PendingJobs
			if pending != lastPending {
				lastPending = pending
				lastProgress = now
			}
			if pending > 0 && pending == len(names)-settled {
				// The whole remaining wave is enqueued: run the
				// generation. Engine failures surface per affected job;
				// the wave still settles.
				if err := srv.sched.Flush(ctx); err != nil && !errors.Is(err, context.Canceled) {
					rec.addError(fmt.Sprintf("flush: %v", err))
				}
				lastProgress = time.Now()
				continue
			}
		}
		if time.Since(lastProgress) > stallTimeout {
			return fmt.Errorf("no progress for %v (%d/%d jobs settled)", stallTimeout, settled, len(names))
		}
		select {
		case <-time.After(pollInterval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// assembleReport builds the report from the final API sweep.
func assembleReport(ctx context.Context, c *client.Client, w *Workload, rec *recorder) *Report {
	rec.mu.Lock()
	rep := &Report{Errors: slices.Clone(rec.errs)}
	rec.mu.Unlock()

	p := w.Profile
	var names []string
	for round := 0; round < p.Rounds; round++ {
		for _, t := range w.Tenants {
			names = append(names, w.JobName(t, round))
		}
	}
	slices.Sort(names)

	var sts []api.JobStatus
	for st, err := range c.Jobs(ctx, client.ListJobsOptions{}) {
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("final sweep: %v", err))
			break
		}
		if _, ok := slices.BinarySearch(names, st.Name); ok {
			sts = append(sts, st)
		}
	}

	rep.Jobs.Total = w.TotalJobs()
	for _, st := range sts {
		switch st.State {
		case api.JobDone:
			rep.Jobs.Done++
		case api.JobParked:
			rep.Jobs.Parked++
		case api.JobFailed:
			rep.Jobs.Failed++
		case api.JobCancelled:
			rep.Jobs.Cancelled++
		default:
			rep.Jobs.Unsettled++
		}
	}
	rep.Jobs.Unsettled += rep.Jobs.Total - len(sts)
	// Deterministic accumulation order for the spend sum: name order.
	slices.SortFunc(sts, func(a, b api.JobStatus) int { return strings.Compare(a.Name, b.Name) })
	for _, st := range sts {
		rep.SpendJobs += st.Cost
	}

	// Stream runs hash the windowed results instead of the batch job
	// records, and count stream items in place of submitted questions;
	// enum runs likewise hash the final result sets and count crowd
	// contributions.
	switch {
	case p.Stream:
		var streams []api.StreamStatus
		for _, name := range names {
			st, err := c.Stream(ctx, name)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("stream sweep %s: %v", name, err))
				continue
			}
			streams = append(streams, st)
			rep.QuestionsSubmitted += int(st.Seen)
		}
		rep.ResultsHash = hashStreamResults(streams)
	case p.Enum:
		var enums []api.EnumStatus
		for _, name := range names {
			st, err := c.Enumeration(ctx, name)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("enum sweep %s: %v", name, err))
				continue
			}
			enums = append(enums, st)
			rep.QuestionsSubmitted += int(st.Contributions)
		}
		rep.Enum = summarizeEnums(enums, p.TenantBudget)
		rep.ResultsHash = hashEnumResults(enums)
	default:
		rep.QuestionsSubmitted = rec.submitted * p.QuestionsPerTenant
		rep.ResultsHash = hashResults(sts)
	}
	rep.Watchers = rec.watchers
	rep.SSEEvents = rec.sseEvents.Load()

	// The stack is fresh, so the scheduler's lifetime totals are the
	// run's.
	if st, err := c.SchedulerState(ctx); err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("scheduler state: %v", err))
	} else {
		rep.SpendLedger = st.Budget.GlobalSpent
		rep.Sched = SchedStats{
			Generations: st.Generations,
			Enqueued:    st.QuestionsEnqueued,
			Published:   st.QuestionsPublished,
			Deduped:     st.QuestionsDeduped,
			CacheHits:   st.CacheHits,
			Batches:     st.BatchesPublished,
		}
	}
	return rep
}

// inprocServer is the embedded full stack: simulated crowd platform →
// engine → cross-query scheduler → durable job service → dispatcher
// pool → v1 HTTP API on a loopback port.
type inprocServer struct {
	base    string
	barrier bool
	sched   *scheduler.Scheduler
	disp    *jobs.Dispatcher
	svc     *jobs.Service
	web     *http.Server
}

// startInproc assembles the same stack cmd/cdas-server runs, tuned by
// the profile. The scheduler has no flush timer — the harness flushes
// at wave barriers instead.
func startInproc(p Profile, w *Workload, dispatchers int) (*inprocServer, error) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(p.Seed))
	if err != nil {
		return nil, err
	}
	counters := metrics.NewRegistry()
	svc, err := jobs.OpenService(jobs.ServiceConfig{Counters: counters})
	if err != nil {
		return nil, err
	}
	web := httpapi.NewServer()
	sched, err := scheduler.New(scheduler.Config{
		Platform: engine.CrowdPlatform{Platform: platform},
		Engine: engine.Config{
			RequiredAccuracy: p.RequiredAccuracy,
			HITSize:          p.HITSize,
			MaxInflightHITs:  p.Inflight,
			Seed:             p.Seed,
		},
		Golden:       tsa.GoldenQuestions(w.Golden),
		GlobalBudget: p.GlobalBudget,
		OnCharge: func(job string, amount float64) {
			_ = svc.ChargeBudget(job, amount)
		},
		Counters: counters,
	})
	if err != nil {
		svc.Close()
		return nil, err
	}
	tsaRunner := tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{
		Scheduler: sched,
		Stream:    w.Stream,
		API:       web,
	})
	runner := tsaRunner
	switch {
	case p.Stream:
		// Standing queries close windows through the generation barrier:
		// the full barrier (deadline 0), expecting every tenant's stream,
		// so window-k batches of all streams share one scheduler
		// generation regardless of dispatcher scheduling.
		coord := standing.NewCoordinator(sched, 0)
		coord.Expect(p.Tenants)
		standingRunner := standing.NewRunner(standing.RunnerConfig{
			Scheduler: sched,
			Coord:     coord,
			Marks:     svc,
			Counters:  counters,
			Publish:   web.StandingPublisher(),
		})
		runner = func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
			if job.Kind == jobs.KindContinuous {
				return standingRunner(ctx, job, report)
			}
			return tsaRunner(ctx, job, report)
		}
	case p.Enum:
		enumRunner := enum.NewRunner(enum.RunnerConfig{
			Scheduler: sched,
			Marks:     svc,
			OnCharge: func(job string, amount float64) {
				_ = svc.ChargeBudget(job, amount)
			},
			Counters: counters,
			Publish:  web.EnumPublisher(),
		})
		runner = func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
			if job.Kind == jobs.KindEnumeration {
				return enumRunner(ctx, job, report)
			}
			return tsaRunner(ctx, job, report)
		}
	}
	disp, err := jobs.NewDispatcher(svc, runner, dispatchers)
	if err != nil {
		sched.Close()
		svc.Close()
		return nil, err
	}
	web.SetJobs(disp)
	web.SetCounters(counters)
	web.SetScheduler(sched)
	disp.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		disp.Stop()
		sched.Close()
		svc.Close()
		return nil, err
	}
	hs := httpapi.NewHTTPServer(ln.Addr().String(), web.Handler())
	go func() { _ = hs.Serve(ln) }()
	return &inprocServer{
		base: "http://" + ln.Addr().String(),
		// Stream runs leave flushing to the window coordinator — a
		// harness-driven flush would split a window generation. Enum
		// runners never enqueue scheduler questions at all (each buys its
		// own HIT batches), so there is nothing for the harness to flush.
		barrier: !p.Stream && !p.Enum,
		sched:   sched,
		disp:    disp,
		svc:     svc,
		web:     hs,
	}, nil
}

// Close tears the stack down: dispatchers drain first (running jobs
// requeue), then the listener, scheduler and service.
func (s *inprocServer) Close() {
	s.disp.Stop()
	s.web.Close()
	s.sched.Close()
	s.svc.Close()
}
