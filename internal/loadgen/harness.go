// The harness: boots the full CDAS stack in-process (or targets a
// remote server) and drives the workload purely through the cdas/client
// SDK — exactly the traffic a fleet of real tenants would produce:
// POST /v1/jobs submissions on an arrival process, SSE watchers on the
// live result streams, and job-list polling for settlement.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
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

// Config wires a Run.
type Config struct {
	// Profile is the workload shape (validated by Run).
	Profile Profile
	// Addr, when non-empty, targets a running cdas-server
	// (scheme://host:port) instead of booting one in-process. Remote
	// runs are never Deterministic — the harness cannot coordinate the
	// remote scheduler's flush generations.
	Addr string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// DrainTimeout bounds the graceful SSE-watcher drain on shutdown or
	// interruption (default 5s).
	DrainTimeout time.Duration
	// PollInterval is the settlement poll cadence (default 2ms
	// in-process, 50ms remote).
	PollInterval time.Duration
	// StallTimeout aborts the run when no job settles and no generation
	// flushes for this long (default 60s) — the partial report then
	// still lands instead of the harness hanging.
	StallTimeout time.Duration
}

// ErrInterrupted reports a run cut short by context cancellation or
// deadline; the returned report is partial.
var ErrInterrupted = errors.New("loadgen: run interrupted")

// ErrStalled reports a run aborted by the stall detector.
var ErrStalled = errors.New("loadgen: no progress")

// Run executes the profile and returns its report. On interruption
// (ctx cancelled or deadline) the SSE watchers are drained with a
// deadline and a partial report is returned alongside ErrInterrupted —
// callers get data, not a hang.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	p, err := cfg.Profile.Validate()
	if err != nil {
		return nil, err
	}
	w, err := BuildWorkload(p)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 5 * time.Second
	}
	stall := cfg.StallTimeout
	if stall <= 0 {
		stall = 60 * time.Second
	}

	base := cfg.Addr
	effDisp := p.Dispatchers
	var srv *inprocServer
	if base == "" {
		if p.Deterministic() && effDisp < p.Tenants {
			// A closed-loop wave must be able to block in one generation
			// entirely; with a wider pool the -dispatchers flag changes
			// goroutine scheduling only, never batch composition.
			effDisp = p.Tenants
		}
		srv, err = startInproc(p, w, effDisp)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		base = srv.base
		logf("loadgen: in-process server on %s (%d dispatchers)", base, effDisp)
	}
	poll := cfg.PollInterval
	if poll <= 0 {
		// In-process polls are loopback-cheap; keep them tight so short
		// gated runs aren't quantised by the poll cadence.
		poll = 2 * time.Millisecond
		if srv == nil {
			poll = 50 * time.Millisecond
		}
	}

	rep := newReport(p, cfg.Addr, effDisp, srv != nil)
	c := client.New(base)
	if err := waitHealthy(ctx, c); err != nil {
		return nil, err
	}
	schedBase, schedOK := baselineScheduler(ctx, c)

	rec := &recorder{
		submitStart: make(map[string]time.Time),
		settled:     make(map[string]time.Time),
		watcherE2E:  make(map[string]time.Duration),
		cancelWatch: make(map[string]context.CancelFunc),
	}
	watchCtx, stopWatchers := context.WithCancel(ctx)
	defer stopWatchers()
	var watchers sync.WaitGroup

	start := time.Now()
	var runErr error
rounds:
	for round := 0; round < p.Rounds; round++ {
		roundStart := time.Now()
		var names []string
		for _, t := range w.Tenants {
			if t.ArrivalOffset > 0 {
				if !sleepUntil(ctx, roundStart.Add(t.ArrivalOffset)) {
					runErr = ctx.Err()
					break rounds
				}
			}
			if ctx.Err() != nil {
				runErr = ctx.Err()
				break rounds
			}
			name := w.JobName(t, round)
			t0 := time.Now()
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
			rec.recordSubmit(name, t0, time.Since(t0))
			names = append(names, name)
			if t.Watcher {
				rec.watchers.Add(1)
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
						watchStream(wctx, c, name, t0, rec)
					case p.Enum:
						watchEnum(wctx, c, name, t0, rec)
					default:
						watchJob(wctx, c, name, t0, rec)
					}
				}()
			}
		}
		logf("loadgen: round %d: %d jobs submitted, waiting for settlement", round, len(names))
		if err := awaitSettled(ctx, c, srv, names, rec, poll, stall); err != nil {
			runErr = err
			break rounds
		}
	}
	wall := time.Since(start)

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
	case <-time.After(drain):
		rec.addError(fmt.Sprintf("%d SSE watcher(s) still open after %v drain deadline", rec.openWatchers.Load(), drain))
		stopWatchers()
	}

	// Final sweep on a fresh context: a cancelled run still reports
	// whatever settled.
	sweepCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	assembleReport(sweepCtx, c, rep, w, rec, wall, schedBase, schedOK)
	if runErr != nil {
		rep.Partial = true
		if errors.Is(runErr, ErrStalled) {
			return rep, runErr
		}
		return rep, fmt.Errorf("%w: %v", ErrInterrupted, runErr)
	}
	return rep, nil
}

// recorder accumulates run observations under one lock (the SDK calls
// themselves dominate; this is not a hot path).
type recorder struct {
	mu          sync.Mutex
	submitMS    []float64
	submitStart map[string]time.Time
	settled     map[string]time.Time
	watcherE2E  map[string]time.Duration
	errs        []string
	sseEvents   atomic.Int64
	// watchers counts every watcher ever started (the report's total);
	// openWatchers tracks the ones still running (the drain-deadline
	// diagnostic).
	watchers     atomic.Int64
	openWatchers atomic.Int64
	// cancelWatch holds each watcher's cancel func by job name, so that a
	// job settling as parked — inert, its feed never publishes done —
	// releases its watcher at once instead of holding the drain to its
	// deadline. Only Run's goroutine touches the map.
	cancelWatch map[string]context.CancelFunc
}

func (r *recorder) recordSubmit(name string, t0 time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submitStart[name] = t0
	r.submitMS = append(r.submitMS, float64(d)/float64(time.Millisecond))
}

func (r *recorder) recordSettled(name string, at time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.settled[name]; ok {
		return false
	}
	r.settled[name] = at
	return true
}

func (r *recorder) recordWatcherDone(name string, e2e time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.watcherE2E[name]; !ok {
		r.watcherE2E[name] = e2e
	}
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

// watchJob consumes one job's SSE stream end to end, recording event
// counts and the done-event end-to-end latency.
func watchJob(ctx context.Context, c *client.Client, name string, t0 time.Time, rec *recorder) {
	events, err := c.WatchQuery(ctx, name)
	if err != nil {
		if ctx.Err() == nil {
			rec.addError(fmt.Sprintf("watch %s: %v", name, err))
		}
		return
	}
	for ev := range events {
		if ev.Err != nil {
			if ctx.Err() == nil {
				rec.addError(fmt.Sprintf("watch %s: %v", name, ev.Err))
			}
			return
		}
		rec.sseEvents.Add(1)
		if ev.Type == api.EventDone {
			rec.recordWatcherDone(name, time.Since(t0))
		}
	}
}

// watchStream consumes one standing query's per-window SSE stream end
// to end, recording event counts and the done-event latency.
func watchStream(ctx context.Context, c *client.Client, name string, t0 time.Time, rec *recorder) {
	events, err := c.WatchStream(ctx, name)
	if err != nil {
		if ctx.Err() == nil {
			rec.addError(fmt.Sprintf("watch stream %s: %v", name, err))
		}
		return
	}
	for ev := range events {
		if ev.Err != nil {
			if ctx.Err() == nil {
				rec.addError(fmt.Sprintf("watch stream %s: %v", name, ev.Err))
			}
			return
		}
		rec.sseEvents.Add(1)
		if ev.Type == api.EventDone {
			rec.recordWatcherDone(name, time.Since(t0))
		}
	}
}

// watchEnum consumes one enumeration's per-batch SSE stream end to
// end, recording event counts and the done-event latency.
func watchEnum(ctx context.Context, c *client.Client, name string, t0 time.Time, rec *recorder) {
	events, err := c.WatchEnumeration(ctx, name)
	if err != nil {
		if ctx.Err() == nil {
			rec.addError(fmt.Sprintf("watch enum %s: %v", name, err))
		}
		return
	}
	for ev := range events {
		if ev.Err != nil {
			if ctx.Err() == nil {
				rec.addError(fmt.Sprintf("watch enum %s: %v", name, ev.Err))
			}
			return
		}
		rec.sseEvents.Add(1)
		if ev.Type == api.EventDone {
			rec.recordWatcherDone(name, time.Since(t0))
		}
	}
}

// sleepUntil sleeps until the deadline or ctx; it reports false on
// cancellation.
func sleepUntil(ctx context.Context, at time.Time) bool {
	d := time.Until(at)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// waitHealthy probes /v1/healthz until the server answers.
func waitHealthy(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		h, err := c.Health(hctx)
		cancel()
		if err == nil && h.Status == "ok" {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: server not healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// baselineScheduler snapshots the scheduler state so remote runs report
// deltas, not lifetime totals.
func baselineScheduler(ctx context.Context, c *client.Client) (api.SchedulerState, bool) {
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	st, err := c.SchedulerState(sctx)
	return st, err == nil
}

// awaitSettled polls the job list until every named job settles. For a
// closed-loop in-process run it also drives the scheduler: once every
// unsettled job of the wave is blocked in the pending generation, it
// flushes — making generation composition a pure function of the
// profile rather than of timing.
func awaitSettled(ctx context.Context, c *client.Client, srv *inprocServer, names []string, rec *recorder, poll, stall time.Duration) error {
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
			if expected[st.Name] && settledState(st.State) && rec.recordSettled(st.Name, now) {
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
		if srv != nil && srv.barrier {
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
		if time.Since(lastProgress) > stall {
			return fmt.Errorf("%w for %v (%d/%d jobs settled)", ErrStalled, stall, settled, len(names))
		}
		if !sleepUntil(ctx, now.Add(poll)) {
			return ctx.Err()
		}
	}
}

// assembleReport fills the report from the final API sweep.
func assembleReport(ctx context.Context, c *client.Client, rep *Report, w *Workload, rec *recorder, wall time.Duration, schedBase api.SchedulerState, schedOK bool) {
	rec.mu.Lock()
	submitMS := append([]float64(nil), rec.submitMS...)
	submitStart := make(map[string]time.Time, len(rec.submitStart))
	for k, v := range rec.submitStart {
		submitStart[k] = v
	}
	settled := make(map[string]time.Time, len(rec.settled))
	for k, v := range rec.settled {
		settled[k] = v
	}
	watcherE2E := make(map[string]time.Duration, len(rec.watcherE2E))
	for k, v := range rec.watcherE2E {
		watcherE2E[k] = v
	}
	rep.Errors = append([]string(nil), rec.errs...)
	rec.mu.Unlock()

	p := w.Profile
	expected := make(map[string]bool, w.TotalJobs())
	for round := 0; round < p.Rounds; round++ {
		for _, t := range w.Tenants {
			expected[w.JobName(t, round)] = true
		}
	}

	var sts []api.JobStatus
	for st, err := range c.Jobs(ctx, client.ListJobsOptions{}) {
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("final sweep: %v", err))
			break
		}
		if expected[st.Name] {
			sts = append(sts, st)
		}
	}

	rep.WallSeconds = wall.Seconds()
	rep.Jobs.Total = w.TotalJobs()
	seen := 0
	var spendJobs float64
	for _, st := range sts {
		seen++
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
	rep.Jobs.Unsettled += rep.Jobs.Total - seen
	// Deterministic accumulation order for the spend sum: name order.
	sorted := append([]api.JobStatus(nil), sts...)
	sortJobs(sorted)
	for _, st := range sorted {
		spendJobs += st.Cost
	}

	// Stream runs hash the windowed results instead of the batch job
	// records, and count stream items in place of submitted questions;
	// enum runs likewise hash the final result sets and count crowd
	// contributions.
	var streams []api.StreamStatus
	var enums []api.EnumStatus
	switch {
	case p.Stream:
		names := make([]string, 0, len(expected))
		for name := range expected {
			names = append(names, name)
		}
		sort.Strings(names)
		var seen int64
		for _, name := range names {
			st, err := c.Stream(ctx, name)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("stream sweep %s: %v", name, err))
				continue
			}
			streams = append(streams, st)
			seen += st.Seen
		}
		rep.QuestionsSubmitted = int(seen)
	case p.Enum:
		names := make([]string, 0, len(expected))
		for name := range expected {
			names = append(names, name)
		}
		sort.Strings(names)
		var contribs int64
		for _, name := range names {
			st, err := c.Enumeration(ctx, name)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("enum sweep %s: %v", name, err))
				continue
			}
			enums = append(enums, st)
			contribs += st.Contributions
		}
		rep.QuestionsSubmitted = int(contribs)
		rep.Enum = summarizeEnums(enums, p.TenantBudget)
	default:
		rep.QuestionsSubmitted = len(submitStart) * p.QuestionsPerTenant
	}
	if rep.WallSeconds > 0 {
		rep.QuestionsPerSec = float64(rep.QuestionsSubmitted) / rep.WallSeconds
	}
	rep.Submit = summarize(submitMS)
	var e2eMS []float64
	for name, t0 := range submitStart {
		if d, ok := watcherE2E[name]; ok {
			e2eMS = append(e2eMS, float64(d)/float64(time.Millisecond))
			continue
		}
		if at, ok := settled[name]; ok {
			e2eMS = append(e2eMS, float64(at.Sub(t0))/float64(time.Millisecond))
		}
	}
	rep.E2E = summarize(e2eMS)
	rep.Watchers = int(rec.watchers.Load())
	rep.SSEEvents = rec.sseEvents.Load()

	rep.SpendJobs = spendJobs
	if rep.QuestionsSubmitted > 0 {
		rep.SpendPerQuestion = spendJobs / float64(rep.QuestionsSubmitted)
	}
	if schedOK {
		if now, ok := baselineScheduler(ctx, c); ok {
			rep.SpendLedger = now.Budget.GlobalSpent - schedBase.Budget.GlobalSpent
			rep.Sched = SchedStats{
				Generations: now.Generations - schedBase.Generations,
				Enqueued:    now.QuestionsEnqueued - schedBase.QuestionsEnqueued,
				Published:   now.QuestionsPublished - schedBase.QuestionsPublished,
				Deduped:     now.QuestionsDeduped - schedBase.QuestionsDeduped,
				CacheHits:   now.CacheHits - schedBase.CacheHits,
				CacheMisses: now.CacheMisses - schedBase.CacheMisses,
				Batches:     now.BatchesPublished - schedBase.BatchesPublished,
			}
			if rep.Sched.Enqueued > 0 {
				rep.DedupSavedPct = 100 * float64(rep.Sched.CacheHits+rep.Sched.Deduped) / float64(rep.Sched.Enqueued)
			}
		}
	}
	switch {
	case p.Stream:
		rep.ResultsHash = hashStreamResults(streams)
	case p.Enum:
		rep.ResultsHash = hashEnumResults(enums)
	default:
		rep.ResultsHash = hashResults(sorted)
	}
}

// sortJobs orders statuses by name.
func sortJobs(sts []api.JobStatus) {
	sort.Slice(sts, func(i, j int) bool { return sts[i].Name < sts[j].Name })
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
// the profile. In closed-loop mode the scheduler has no flush timer —
// the harness flushes at wave barriers instead.
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
	var flushInterval time.Duration
	if !p.Deterministic() {
		flushInterval = 25 * time.Millisecond
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
		Golden:        tsa.GoldenQuestions(w.Golden),
		GlobalBudget:  p.GlobalBudget,
		DisableDedup:  p.DisableDedup,
		FlushInterval: flushInterval,
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
		// Standing queries close windows through the generation barrier.
		// Closed-loop mode uses the full barrier (deadline 0) and expects
		// every tenant's stream, so window-k batches of all streams share
		// one scheduler generation regardless of dispatcher scheduling.
		deadline := 200 * time.Millisecond
		if p.Deterministic() {
			deadline = 0
		}
		coord := standing.NewCoordinator(sched, deadline)
		if p.Deterministic() {
			coord.Expect(p.Tenants)
		}
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
		barrier: p.Deterministic() && !p.Stream && !p.Enum,
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
