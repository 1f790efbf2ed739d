package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdas/api"
	"cdas/client"
	"cdas/internal/jobs"
)

// maxUnsettled is the closed loops' window: submitters keep at most this
// many acknowledged jobs unsettled.
const maxUnsettled = 128

// lateAfter is how far behind its due time an open-loop send counts as
// late.
const lateAfter = time.Millisecond

// generators is K, the number of load-generating goroutines (one
// keep-alive connection each): load is sized to the machine.
func generators() int { return min(runtime.NumCPU(), 4) }

// jobOutcome is what the generator and the settle observer saw of one job.
type jobOutcome struct {
	due, sent, acked time.Time // due == sent in a closed loop
	settled          time.Time
	runStart, runEnd time.Time
	state            jobs.State
	submitErr        error
}

// loadResult is one timed phase.
type loadResult struct {
	start, end time.Time
	jobs       []jobOutcome // parallel to the submitted specs
	late       lateness
	sse        sseStats
}

// lateness accounts how far behind schedule an open-loop generator ran.
type lateness struct {
	sends, late int
	max         time.Duration
}

func (l *lateness) observe(due, sent time.Time) {
	l.sends++
	d := sent.Sub(due)
	if d > lateAfter {
		l.late++
	}
	if d > l.max {
		l.max = d
	}
}

func (l lateness) share() float64 { return ratio(float64(l.late), float64(l.sends)) }

// schedule returns the open loop's due offsets: n sends at a fixed rate,
// independent of how the system responds.
func schedule(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

type jobKey struct{}

// jobTagger names the job a submission carries in a request header, so
// the handler span can find its client span. Only traced runs use it.
type jobTagger struct{ next http.RoundTripper }

func (t jobTagger) RoundTrip(r *http.Request) (*http.Response, error) {
	if name, ok := r.Context().Value(jobKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(jobHeader, name)
	}
	return t.next.RoundTrip(r)
}

// newClient returns an SDK client on its own single keep-alive
// connection.
func newClient(base string, traced bool) (*client.Client, func()) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = tp
	if traced {
		rt = jobTagger{next: tp}
	}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: rt})), tp.CloseIdleConnections
}

// submit sends one job through the SDK and records what the client saw.
func submit(ctx context.Context, c *client.Client, tr *tracer, spec jobSpec, due time.Time, out *jobOutcome) {
	name := spec.Sub.Name
	out.due, out.sent = due, time.Now()
	var clientSpan spanID
	if tr != nil {
		rec := tr.rec(name)
		root := tr.beginAt("e2e", name, 0, due)
		rec.root.Store(int32(root))
		clientSpan = tr.beginAt("client.submit", name, root, out.sent)
		rec.client.Store(int32(clientSpan))
		ctx = context.WithValue(ctx, jobKey{}, name)
	}
	_, err := c.SubmitJob(ctx, spec.Sub)
	out.acked = time.Now()
	out.submitErr = err
	if tr != nil {
		tr.endAt(clientSpan, out.acked)
		tr.rec(name).ack.Store(int64(out.acked.Sub(tr.epoch)))
	}
}

// collector receives settle events for the submitted specs and hands
// each to onSettle; it returns when want jobs have settled or ctx ends.
type collector struct {
	index map[string]int
	res   *loadResult
	tr    *tracer
}

func newCollector(specs []jobSpec, tr *tracer) *collector {
	c := &collector{index: make(map[string]int, len(specs)), tr: tr,
		res: &loadResult{jobs: make([]jobOutcome, len(specs))}}
	for i, s := range specs {
		c.index[s.Sub.Name] = i
	}
	return c
}

func (c *collector) take(ev settleEvent) bool {
	i, ok := c.index[ev.name]
	if !ok {
		return false
	}
	o := &c.res.jobs[i]
	o.settled, o.state, o.runStart, o.runEnd = ev.settled, ev.state, ev.runStart, ev.runEnd
	if c.tr != nil {
		c.tr.endAt(spanID(c.tr.rec(ev.name).root.Load()), ev.settled)
	}
	if ev.settled.After(c.res.end) {
		c.res.end = ev.settled
	}
	return true
}

// errLoadTimeout reports a timed phase that did not drain.
var errLoadTimeout = errors.New("load phase did not settle before its deadline")

// closedLoop submits specs from k generators, each sending its next job
// as soon as the previous submit is acknowledged and fewer than window
// acknowledged jobs are unsettled. It returns once every acknowledged
// job has settled.
func closedLoop(ctx context.Context, st *stack, specs []jobSpec, k, window int, tr *tracer) (*loadResult, error) {
	col := newCollector(specs, tr)
	res := col.res
	slots := make(chan struct{}, window)
	var next, refused atomic.Int64
	var wg sync.WaitGroup
	res.start = time.Now()
	for g := 0; g < k; g++ {
		c, closeConns := newClient(st.base, tr != nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer closeConns()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				select {
				case slots <- struct{}{}:
				case <-ctx.Done():
					return
				}
				now := time.Now()
				submit(ctx, c, tr, specs[i], now, &res.jobs[i])
				if res.jobs[i].submitErr != nil {
					refused.Add(1)
					<-slots
				}
			}
		}()
	}
	submitted := make(chan struct{})
	go func() { wg.Wait(); close(submitted) }()
	settled := 0
	for {
		select {
		case ev := <-st.settled:
			if col.take(ev) {
				settled++
				<-slots
			}
		case <-submitted:
			submitted = nil // all generators are done; refused is final
		case <-ctx.Done():
			wg.Wait()
			return res, fmt.Errorf("%w: %d of %d settled", errLoadTimeout, settled, len(specs))
		}
		if submitted == nil && settled+int(refused.Load()) == len(specs) {
			return res, nil
		}
	}
}

// sleepUntil sleeps to just before t and then yields until t: timer
// wake-ups alone are late by a large share of lateAfter.
func sleepUntil(ctx context.Context, t time.Time) {
	const spin = 300 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
	for time.Now().Before(t) && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// openLoop sends specs from one generator on a fixed schedule,
// regardless of how the system responds; latency counts from each job's
// due time and the generator's own lateness is recorded. A serial SSE
// watcher follows the latest tsa job on a second connection.
func openLoop(ctx context.Context, st *stack, specs []jobSpec, rate float64, tr *tracer) (*loadResult, error) {
	col := newCollector(specs, tr)
	res := col.res
	c, closeConns := newClient(st.base, tr != nil)
	defer closeConns()

	watchCtx, stopWatch := context.WithCancel(ctx)
	latest := make(chan string, 1)
	watched := make(chan sseStats, 1)
	go func() { watched <- watchSerially(watchCtx, st.base, latest) }()

	sendDone := make(chan struct{})
	res.start = time.Now().Add(10 * time.Millisecond)
	go func() {
		defer close(sendDone)
		for i, off := range schedule(rate, len(specs)) {
			due := res.start.Add(off)
			sleepUntil(ctx, due)
			if ctx.Err() != nil {
				return
			}
			submit(ctx, c, tr, specs[i], due, &res.jobs[i])
			res.late.observe(due, res.jobs[i].sent)
			if specs[i].Sub.Kind == api.KindTSA && res.jobs[i].submitErr == nil {
				select {
				case <-latest: // the watcher is busy: replace the stale name
				default:
				}
				latest <- specs[i].Sub.Name
			}
		}
	}()
	settled, sending := 0, true
	var err error
loop:
	for {
		select {
		case ev := <-st.settled:
			if col.take(ev) {
				settled++
			}
		case <-sendDone:
			sending, sendDone = false, nil
		case <-ctx.Done():
			err = fmt.Errorf("%w: %d of %d settled", errLoadTimeout, settled, len(specs))
			break loop
		}
		if !sending {
			refused := 0
			for i := range res.jobs {
				if res.jobs[i].submitErr != nil {
					refused++
				}
			}
			if settled+refused == len(specs) {
				break loop
			}
		}
	}
	stopWatch()
	res.sse = <-watched
	if sendDone != nil {
		<-sendDone
	}
	return res, err
}

// sseStats is what the serial SSE watcher saw.
type sseStats struct {
	events int
	doneAt map[string]time.Time // job → its done event's arrival
	errs   int
}

// watchSerially follows one query's SSE feed at a time to its done
// event, always picking the most recently submitted job.
func watchSerially(ctx context.Context, base string, latest <-chan string) sseStats {
	c, closeConns := newClient(base, false)
	defer closeConns()
	st := sseStats{doneAt: make(map[string]time.Time)}
	for {
		var name string
		select {
		case name = <-latest:
		case <-ctx.Done():
			return st
		}
		events, err := c.WatchQuery(ctx, name)
		if err != nil {
			if ctx.Err() == nil {
				st.errs++
			}
			continue
		}
		for ev := range events {
			if ev.Err != nil {
				if ctx.Err() == nil {
					st.errs++
				}
				continue
			}
			st.events++
			if ev.Type == api.EventDone {
				st.doneAt[name] = time.Now()
			}
		}
	}
}
