package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/enum"
	"cdas/internal/exec"
	"cdas/internal/httpapi"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/scheduler"
	"cdas/internal/standing"
	"cdas/internal/stats"
	"cdas/internal/tsa"
)

// The pinned deployment: identical for every run, printed with the
// results. Anything not named here is the package default (LSM engine
// with fsync on, default SnapshotEvery, default aggregator, CacheTTL 0).
const (
	storeEngine      = jobs.EngineLSM
	dispatchers      = 64
	flushInterval    = 25 * time.Millisecond
	windowDeadline   = 200 * time.Millisecond
	hitSize          = 20
	maxInflightHITs  = 4
	requiredAccuracy = 0.85
	// deploymentSeed fixes the simulated worker population and the engine's
	// golden-question placement: the crowd is part of the deployment, so
	// -seed varies the inputs and never who answers them.
	deploymentSeed = 1
)

var pinnedDeployment = fmt.Sprintf("engine=%s fsync=on snapshot_every=default dispatchers=%d flush_interval=%v "+
	"window_deadline=%v hit_size=%d max_inflight_hits=%d required_accuracy=%v aggregator=default cache_ttl=0 crowd=DefaultConfig(%d) engine_seed=%d golden_seed=%d",
	storeEngine, dispatchers, flushInterval, windowDeadline, hitSize, maxInflightHITs, requiredAccuracy, deploymentSeed, deploymentSeed, deploymentSeed)

// engineTemplate is the pinned deployment's engine configuration.
func engineTemplate() engine.Config {
	return engine.Config{RequiredAccuracy: requiredAccuracy, HITSize: hitSize, MaxInflightHITs: maxInflightHITs, Seed: deploymentSeed}
}

// jobHeader carries the job name of a submission to the handler span.
const jobHeader = "X-Bench-Job"

// settleEvent reports one job reaching a settled state (terminal or
// parked), observed in-process so that no HTTP poller adds load.
type settleEvent struct {
	name             string
	state            jobs.State
	runStart, runEnd time.Time
	settled          time.Time
}

type runDone struct {
	name       string
	start, end time.Time
}

// crowdStats counts the crowd seam, which is too hot for spans.
type crowdStats struct {
	next                 tally        // assignments delivered
	hitQuestions, answer atomic.Int64 // questions published (golden included), answers delivered to them
}

// stack is the program assembled in-process exactly as cmd/cdas-server
// wires it: crowd.Platform → engine → scheduler → jobs.Service on an
// LSM store → jobs.Dispatcher → httpapi on loopback.
type stack struct {
	dir      string
	base     string
	platform *crowd.Platform
	counters *metrics.Registry
	svc      *jobs.Service
	sched    *scheduler.Scheduler
	web      *httpapi.Server
	disp     *jobs.Dispatcher
	stopHTTP func()
	tr       *tracer
	crowd    crowdStats
	httpErrs atomic.Int64
	// chargeErrs counts budget charges the store refused: a charge must
	// never be lost, so any is a failed check.
	chargeErrs atomic.Int64

	runs     chan runDone
	settled  chan settleEvent
	stop     chan struct{}
	observed sync.WaitGroup
}

// startStack boots the full stack on dir. With a tracer, every seam the
// benchmark wires is wrapped in a span; without one, only the runner is
// wrapped, to report its return to the settle observer.
func startStack(dir string, in *inputs, tr *tracer) (*stack, error) {
	s := &stack{
		dir: dir, tr: tr,
		counters: metrics.NewRegistry(),
		// Deep enough that the runner wrapper never blocks a dispatcher
		// while the observer or the collector is descheduled.
		runs:    make(chan runDone, 1<<15),
		settled: make(chan settleEvent, 1<<15),
		stop:    make(chan struct{}),
	}
	var err error
	if s.platform, err = crowd.NewPlatform(crowd.DefaultConfig(deploymentSeed)); err != nil {
		return nil, err
	}
	if s.svc, err = jobs.OpenService(jobs.ServiceConfig{Dir: dir, Engine: storeEngine, Counters: s.counters}); err != nil {
		return nil, err
	}
	s.web = httpapi.NewServer()

	var platform engine.Platform = engine.CrowdPlatform{Platform: s.platform}
	if tr != nil {
		platform = tracedPlatform{inner: platform, s: s}
	}
	s.sched, err = scheduler.New(scheduler.Config{
		Platform:      platform,
		Engine:        engineTemplate(),
		Golden:        tsa.GoldenQuestions(in.Golden),
		FlushInterval: flushInterval,
		OnCharge:      s.charge,
		Counters:      s.counters,
	})
	if err != nil {
		s.svc.Close()
		return nil, err
	}

	var sink tsa.ResultSink = s.web
	var marks standing.MarkStore = s.svc
	standingPub, enumPub := s.web.StandingPublisher(), s.web.EnumPublisher()
	if tr != nil {
		sink = tracedSink{ResultSink: s.web, s: s}
		marks = tracedMarks{Service: s.svc, s: s}
		innerStanding, innerEnum := standingPub, enumPub
		standingPub = func(job jobs.Job, win *standing.WindowResult, mark jobs.StreamMark, sum exec.Summary, progress float64, done bool) {
			defer s.childSpan("httpapi.publish", job.Name)()
			innerStanding(job, win, mark, sum, progress, done)
		}
		enumPub = func(job jobs.Job, batch *enum.BatchResult, items []enum.Item, mark jobs.StreamMark, est stats.SpeciesEstimate, done bool) {
			defer s.childSpan("httpapi.publish", job.Name)()
			innerEnum(job, batch, items, mark, est, done)
		}
	}
	byKind := map[jobs.Kind]jobs.Runner{
		jobs.KindTSA: tsa.NewScheduledJobRunner(tsa.ScheduledRunnerConfig{Scheduler: s.sched, Stream: in.Stream, API: sink}),
		jobs.KindContinuous: standing.NewRunner(standing.RunnerConfig{
			Scheduler: s.sched,
			Coord:     standing.NewCoordinator(s.sched, windowDeadline),
			Marks:     marks,
			Counters:  s.counters,
			Publish:   standingPub,
		}),
		jobs.KindEnumeration: enum.NewRunner(enum.RunnerConfig{
			Scheduler: s.sched,
			Marks:     marks,
			OnCharge:  s.charge,
			Counters:  s.counters,
			Publish:   enumPub,
		}),
	}
	if s.disp, err = jobs.NewDispatcher(s.svc, s.runner(byKind), dispatchers); err != nil {
		s.sched.Close()
		s.svc.Close()
		return nil, err
	}
	var ctl httpapi.JobController = s.disp
	if tr != nil {
		ctl = tracedController{Dispatcher: s.disp, s: s}
	}
	s.web.SetJobs(ctl)
	s.web.SetCounters(s.counters)
	s.web.SetScheduler(s.sched)
	s.disp.Start()
	handler := s.web.Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr, &s.httpErrs)
	}
	if s.base, s.stopHTTP, err = serveLoopback(handler); err != nil {
		s.disp.Stop()
		s.sched.Close()
		s.svc.Close()
		return nil, err
	}
	s.observed.Add(1)
	go s.observe()
	return s, nil
}

// serveLoopback serves handler on a loopback port and returns its base
// URL and the function that closes the server and waits for it.
func serveLoopback(handler http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := httpapi.NewHTTPServer(ln.Addr().String(), handler)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-served }, nil
}

// Close tears the stack down in cmd/cdas-server's order and waits for
// every goroutine the stack started.
func (s *stack) Close() error {
	close(s.stop)
	s.observed.Wait()
	s.disp.Stop()
	s.stopHTTP()
	s.sched.Close()
	return s.svc.Close()
}

// charge is the scheduler's and the enumeration runner's persistence
// hook, as in cmd/cdas-server.
func (s *stack) charge(job string, amount float64) {
	if s.tr != nil {
		defer s.childSpan("jobs.charge", job)()
	}
	if err := s.svc.ChargeBudget(job, amount); err != nil {
		s.chargeErrs.Add(1)
	}
}

// childSpan opens a span under the job's runner span and returns the
// function that ends it.
func (s *stack) childSpan(name, job string) func() {
	id := s.tr.begin(name, job, spanID(s.tr.rec(job).runner.Load()))
	return func() { s.tr.end(id) }
}

// runner dispatches by kind and reports every run to the settle
// observer; traced, it also opens the runner span and times the
// progress commits the runner makes through report.
func (s *stack) runner(byKind map[jobs.Kind]jobs.Runner) jobs.Runner {
	return func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		inner := byKind[job.Kind]
		if inner == nil {
			return fmt.Errorf("%w: no runner for kind %q", jobs.ErrPermanent, job.Kind)
		}
		start := time.Now()
		if s.tr != nil {
			rec := s.tr.rec(job.Name)
			if ack := rec.ack.Load(); ack != 0 {
				s.tr.record("jobs.claim_wait", job.Name, spanID(rec.root.Load()), s.tr.epoch.Add(time.Duration(ack)), start)
			}
			id := s.tr.begin("runner."+string(job.Kind), job.Name, spanID(rec.root.Load()))
			rec.runner.Store(int32(id))
			defer s.tr.end(id)
			plain := report
			report = func(progress, cost float64) {
				defer s.childSpan("jobs.progress", job.Name)()
				plain(progress, cost)
			}
		}
		err := inner(ctx, job, report)
		s.runs <- runDone{name: job.Name, start: start, end: time.Now()}
		return err
	}
}

// observe turns "the runner returned" into "the settled state is
// committed": it polls the returned jobs' records (never the others')
// every pollEvery until each is terminal or parked.
func (s *stack) observe() {
	defer s.observed.Done()
	const pollEvery = 200 * time.Microsecond
	pending := make(map[string]runDone)
	for {
		if len(pending) == 0 {
			select {
			case <-s.stop:
				return
			case r := <-s.runs:
				pending[r.name] = r
			}
		}
	drain:
		for {
			select {
			case <-s.stop:
				return
			case r := <-s.runs:
				pending[r.name] = r
			default:
				break drain
			}
		}
		for name, r := range pending {
			st, ok := s.disp.Status(name)
			if !ok || !(st.State.Terminal() || st.State == jobs.StateParked) {
				continue
			}
			now := time.Now()
			delete(pending, name)
			if s.tr != nil {
				s.tr.record("jobs.settle", name, spanID(s.tr.rec(name).root.Load()), r.end, now)
			}
			select {
			case s.settled <- settleEvent{name: name, state: st.State, runStart: r.start, runEnd: r.end, settled: now}:
			case <-s.stop:
				return
			}
		}
		if len(pending) > 0 {
			time.Sleep(pollEvery)
		}
	}
}

// tracedPlatform wraps the crowd seam: a span per published HIT, a
// tally per delivered assignment.
type tracedPlatform struct {
	inner engine.Platform
	s     *stack
}

func (p tracedPlatform) Publish(hit crowd.HIT, n int) (engine.Run, error) {
	id := p.s.tr.begin("crowd.publish", hit.ID, 0)
	run, err := p.inner.Publish(hit, n)
	p.s.tr.end(id)
	if err != nil {
		return nil, err
	}
	p.s.crowd.hitQuestions.Add(int64(len(hit.Questions)))
	return &tracedRun{Run: run, s: p.s}, nil
}

type tracedRun struct {
	engine.Run
	s *stack
}

func (r *tracedRun) Next() (crowd.Assignment, bool) {
	t0 := time.Now()
	a, ok := r.Run.Next()
	r.s.crowd.next.add(time.Since(t0))
	if ok {
		r.s.crowd.answer.Add(int64(len(a.Answers)))
	}
	return a, ok
}

// tracedSink wraps the tsa runner's result publication.
type tracedSink struct {
	tsa.ResultSink
	s *stack
}

func (t tracedSink) UpdateFromSummary(name string, sum exec.Summary, progress float64, done bool) {
	defer t.s.childSpan("httpapi.publish", name)()
	t.ResultSink.UpdateFromSummary(name, sum, progress, done)
}

// tracedMarks wraps the standing and enumeration runners' mark store.
type tracedMarks struct {
	*jobs.Service
	s *stack
}

func (m tracedMarks) CommitStreamMark(name string, mark jobs.StreamMark) error {
	defer m.s.childSpan("jobs.mark", name)()
	return m.Service.CommitStreamMark(name, mark)
}

// tracedController wraps the handler → job service seam. Embedding the
// dispatcher keeps the optional facets httpapi type-asserts for
// (StreamMarkFor).
type tracedController struct {
	*jobs.Dispatcher
	s *stack
}

func (c tracedController) Submit(job jobs.Job) (jobs.Plan, error) {
	id := c.s.tr.begin("jobs.submit", job.Name, spanID(c.s.tr.rec(job.Name).handler.Load()))
	defer c.s.tr.end(id)
	return c.Dispatcher.Submit(job)
}

// tracedHandler wraps the network → handler seam: a span per request,
// named by route, and a count of error responses.
func tracedHandler(next http.Handler, tr *tracer, errs *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		job := r.Header.Get(jobHeader)
		var parent spanID
		if job != "" {
			parent = spanID(tr.rec(job).client.Load())
		}
		id := tr.begin("httpapi."+routeName(r), job, parent)
		if job != "" {
			tr.rec(job).handler.Store(int32(id))
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		tr.end(id)
		if sw.status >= 400 {
			errs.Add(1)
		}
	})
}

// routeName classifies a request for the per-route handler metrics.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/events"):
		return "sse"
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodGet && p == "/v1/jobs":
		return "list"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "get"
	}
	return "other"
}

// statusWriter records the response status and keeps Flush reachable so
// the SSE feeds stream through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// readStack serves a reopened store read-only: the job API over a
// dispatcher that is never started, as a freshly booted server looks
// before it claims anything.
type readStack struct {
	svc      *jobs.Service
	stopHTTP func()
	base     string
	errs     atomic.Int64
}

func startReadStack(svc *jobs.Service, tr *tracer) (*readStack, error) {
	disp, err := jobs.NewDispatcher(svc, func(context.Context, jobs.Job, func(float64, float64)) error { return nil }, 1)
	if err != nil {
		return nil, err
	}
	web := httpapi.NewServer()
	web.SetJobs(disp)
	rs := &readStack{svc: svc}
	handler := web.Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr, &rs.errs)
	}
	if rs.base, rs.stopHTTP, err = serveLoopback(handler); err != nil {
		return nil, err
	}
	return rs, nil
}

func (rs *readStack) Close() error {
	rs.stopHTTP()
	return rs.svc.Close()
}
