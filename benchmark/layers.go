package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"cdas/api"
	imetrics "cdas/internal/metrics"
)

// runtimeSample reads the runtime's cumulative CPU and contention
// counters.
type runtimeSample struct {
	gcCPU, totalCPU, mutexWait float64 // seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(s[0].Value), totalCPU: f(s[1].Value), mutexWait: f(s[2].Value)}
}

// heapSampler tracks the peak of live heap objects during the timed
// phase without stopping the world.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// layerInputs is everything the per-layer report is computed from.
type layerInputs struct {
	in          *inputs
	st          *stack
	res         *loadResult
	load        loadSummary
	out         *outputs
	base, after baseline
	spans       []span
	reads       readResult
	restartMS   float64
	dirBytes    int64
	heapPeak    float64
	elapsed     float64
	readErrs    int64
}

// spanCost measures what recording one span costs, to express the traced
// run's own overhead.
func spanCost() time.Duration {
	t := newTracer()
	const n = 50000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", "job", 0))
	}
	return time.Since(t0) / n
}

// layerMetrics fills rep.layers: per-layer counts, busy times and waits
// from the spans and counters of the traced run, plus direct
// measurements of single layers.
func layerMetrics(ctx context.Context, li layerInputs, tmp *tempDirs, rep *report) error {
	m := rep.layers
	names := byName(li.spans)
	self := selfTimes(li.spans)
	d := func(name string) dist { return summarize(names[name]) }
	delta := func(counter string) float64 { return float64(li.after.counters[counter] - li.base.counters[counter]) }

	// Group the per-job spans the derived figures need.
	type jobSpans struct {
		client, handler time.Duration
		runner          span
	}
	perJob := make(map[string]*jobSpans)
	get := func(job string) *jobSpans {
		js := perJob[job]
		if js == nil {
			js = &jobSpans{}
			perJob[job] = js
		}
		return js
	}
	var handlerSelf, charges []float64
	var chargeSpans []span
	for _, s := range li.spans {
		switch s.Name {
		case "client.submit":
			get(s.Job).client = s.dur()
		case "httpapi.submit":
			get(s.Job).handler = s.dur()
			handlerSelf = append(handlerSelf, ms(self[s.ID]))
		case "runner.tsa":
			get(s.Job).runner = s
		case "jobs.charge":
			chargeSpans = append(chargeSpans, s)
		}
	}
	sort.Slice(chargeSpans, func(i, j int) bool { return chargeSpans[i].Start < chargeSpans[j].Start })
	for _, s := range chargeSpans {
		charges = append(charges, ms(s.dur()))
	}

	// client and httpapi
	var overhead []float64
	for _, js := range perJob {
		if js.client > 0 && js.handler > 0 {
			overhead = append(overhead, ms(js.client-js.handler))
		}
	}
	m["client.submit.overhead_ms_p50"] = median(overhead)
	m["client.submit_ms_p50"], m["client.submit_ms_tail"] = li.load.submit.P50, li.load.submit.Tail
	m["client.e2e_ms_tail"] = li.load.e2e.Tail
	m["client.list_page_ms_tail"] = li.reads.list.Tail
	m["client.get_ms_p50"], m["client.get_ms_tail"] = li.reads.get.P50, li.reads.get.Tail
	hs := summarize(handlerSelf)
	m["httpapi.submit.self_ms_p50"], m["httpapi.submit.self_ms_p99"] = hs.P50, hs.Tail
	m["httpapi.list.busy_ms_p50"] = d("httpapi.list").P50
	m["httpapi.get.busy_ms_p50"], m["httpapi.get.busy_ms_p99"] = d("httpapi.get").P50, d("httpapi.get").Tail
	m["httpapi.publish.count"] = float64(d("httpapi.publish").N)
	m["httpapi.publish.busy_ms_p50"] = d("httpapi.publish").P50
	var lag []float64
	for i, spec := range li.in.Jobs {
		if at, ok := li.res.sse.doneAt[spec.Sub.Name]; ok && !li.res.jobs[i].runEnd.IsZero() {
			lag = append(lag, ms(at.Sub(li.res.jobs[i].runEnd)))
		}
	}
	m["httpapi.sse.done_lag_ms_p50"] = median(lag)
	m["httpapi.sse.events"] = float64(li.res.sse.events)
	m["httpapi.errors"] = float64(li.st.httpErrs.Load() + li.readErrs + int64(li.res.sse.errs))

	// jobs
	m["jobs.submit.busy_ms_p50"], m["jobs.submit.busy_ms_p99"] = d("jobs.submit").P50, d("jobs.submit").Tail
	var claimWait, settle []float64
	for _, o := range li.res.jobs {
		if o.submitErr != nil || o.settled.IsZero() {
			continue
		}
		claimWait = append(claimWait, ms(max(o.runStart.Sub(o.acked), 0)))
		settle = append(settle, ms(o.settled.Sub(o.runEnd)))
	}
	cw, se := summarize(claimWait), summarize(settle)
	m["jobs.claim_wait_ms_p50"], m["jobs.claim_wait_ms_p99"] = cw.P50, cw.Tail
	m["jobs.settle_ms_p50"], m["jobs.settle_ms_p99"] = se.P50, se.Tail
	cs := summarize(charges)
	m["jobs.charge.count"] = float64(cs.N)
	m["jobs.charge.busy_ms_p50"], m["jobs.charge.busy_ms_p99"] = cs.P50, cs.Tail
	m["jobs.charge.growth"] = growth(charges)
	m["jobs.progress.busy_ms_p50"] = d("jobs.progress").P50
	m["jobs.mark.count"] = float64(d("jobs.mark").N)
	m["jobs.mark.busy_ms_p50"] = d("jobs.mark").P50
	m["jobs.commits_per_job"] = ratio(delta(imetrics.CounterWALAppends), float64(li.load.settled))

	// jobstore
	m["jobstore.checkpoints"] = delta(imetrics.CounterWALSnapshots)
	m["jobstore.dir_bytes_per_job"] = ratio(float64(li.dirBytes), float64(len(li.in.Jobs)+len(li.in.Warm)))
	open, err := openLSM(li.st.dir)
	if err != nil {
		return fmt.Errorf("direct OpenLSM: %w", err)
	}
	m["jobstore.open_ms"] = open
	m["jobs.index_rebuild_ms"] = max(li.restartMS-open, 0)

	// tsa, scheduler, crowd
	sample := tsaSample(li.in, 200)
	match := summarize(matchReplay(li.in, sample))
	tsaJobs := 0
	for _, j := range li.in.Jobs {
		if j.Sub.Kind == api.KindTSA {
			tsaJobs++
		}
	}
	m["tsa.match.ms_p50"] = match.P50
	m["tsa.match.cpu_s"] = match.P50 * float64(tsaJobs) / 1000
	m["tsa.runner.busy_ms_p50"], m["tsa.runner.busy_ms_p99"] = d("runner.tsa").P50, d("runner.tsa").Tail
	var ticketWait []float64
	for _, js := range perJob {
		if js.runner.ID != 0 {
			ticketWait = append(ticketWait, max(ms(self[js.runner.ID])-match.P50, 0))
		}
	}
	m["scheduler.ticket_wait_ms_p50"] = median(ticketWait)
	sb, sa := li.base.sched, li.after.sched
	enq := float64(sa.QuestionsEnqueued - sb.QuestionsEnqueued)
	m["scheduler.generations"] = float64(sa.Generations - sb.Generations)
	m["scheduler.questions_enqueued"] = enq
	m["scheduler.questions_published"] = float64(sa.QuestionsPublished - sb.QuestionsPublished)
	m["scheduler.cache_hit_share"] = ratio(float64(sa.CacheHits-sb.CacheHits), enq)
	m["scheduler.dedup_share"] = ratio(float64(sa.QuestionsDeduped-sb.QuestionsDeduped), enq)
	m["scheduler.batches"] = float64(sa.BatchesPublished - sb.BatchesPublished)
	m["crowd.publish.count"] = float64(d("crowd.publish").N)
	m["crowd.publish.busy_ms_p50"] = d("crowd.publish").P50
	m["crowd.assignments"] = float64(li.st.crowd.next.n.Load())
	m["crowd.next.busy_s"] = time.Duration(li.st.crowd.next.busy.Load()).Seconds()
	m["crowd.votes_per_question"] = ratio(float64(li.st.crowd.answer.Load()), float64(li.st.crowd.hitQuestions.Load()))
	m["crowd.spend"] = li.after.platform - li.base.platform
	m["engine.label_error_pp"] = li.out.labelErrorPP
	m["questions_per_s"] = ratio(enq, li.elapsed)

	// standing and enum
	m["standing.runner.busy_ms_p50"], m["standing.runner.busy_ms_p99"] = d("runner.continuous").P50, d("runner.continuous").Tail
	m["standing.windows_closed"] = delta(imetrics.CounterStreamWindowsClosed)
	m["standing.degraded_share"] = ratio(delta(imetrics.CounterStreamDegradedVerdicts), delta(imetrics.CounterStreamItemsMatched))
	m["standing.dropped_share"] = ratio(delta(imetrics.CounterStreamItemsDropped), delta(imetrics.CounterStreamItemsSeen))
	m["enum.runner.busy_ms_p50"], m["enum.runner.busy_ms_p99"] = d("runner.enumeration").P50, d("runner.enumeration").Tail
	m["enum.batches"] = delta("enum_batches")
	m["enum.contributions"] = delta("enum_contributions")
	m["enum.discovered"] = delta("enum_items_discovered")

	// process and generator
	cpu := (li.after.cpu - li.base.cpu).Seconds()
	m["proc.cpu_s"] = cpu
	m["proc.gc_cpu_share"] = ratio(li.after.rt.gcCPU-li.base.rt.gcCPU, li.after.rt.totalCPU-li.base.rt.totalCPU)
	m["proc.mutex_wait_s"] = li.after.rt.mutexWait - li.base.rt.mutexWait
	m["proc.heap_peak_mb"] = li.heapPeak
	m["gen.late_ms_max"] = ms(li.res.late.max)
	m["gen.late_share"] = li.res.late.share()
	m["trace.spans"] = float64(len(li.spans))
	m["trace.overhead_pct"] = 100 * ratio(spanCost().Seconds()*float64(len(li.spans)), cpu)
	m["trace.e2e_coverage_pct"] = e2eCoverage(li.spans, self)

	// Direct measurements, each on a fresh directory.
	fresh := func(label string) (string, error) { return tmp.make("direct-" + label) }
	dir, err := fresh("fsync")
	if err != nil {
		return err
	}
	if m["jobstore.fsync_floor_ms_p50"], err = fsyncFloor(dir); err != nil {
		return fmt.Errorf("fsync floor: %w", err)
	}
	tmp.remove(dir)
	k := generators()
	for _, c := range []struct {
		label      string
		workers    int
		compacting bool
	}{{"c1", 1, false}, {"cK", k, false}, {"compacting", k, true}} {
		if dir, err = fresh("apply"); err != nil {
			return err
		}
		r, err := lsmApply(dir, c.workers, c.compacting)
		if err != nil {
			return fmt.Errorf("direct LSM.Apply (%s): %w", c.label, err)
		}
		tmp.remove(dir)
		if c.compacting {
			m["jobstore.apply.ms_max.compacting"] = r.maxMS
			continue
		}
		m["jobstore.apply.per_s."+c.label] = r.perSec
		if c.workers > 1 {
			m["jobstore.apply.ms_p99.cK"] = r.p99MS
		}
	}
	for _, c := range []struct {
		label   string
		workers int
	}{{"c1", 1}, {"cK", k}} {
		if dir, err = fresh("lifecycle"); err != nil {
			return err
		}
		if m["jobs.direct.lifecycle_per_s."+c.label], err = directLifecycle(dir, c.workers); err != nil {
			return fmt.Errorf("direct lifecycle (%s): %w", c.label, err)
		}
		tmp.remove(dir)
	}
	if m["scheduler.direct.q_per_s"], err = directScheduler(ctx, li.in, sample); err != nil {
		return fmt.Errorf("direct scheduler: %w", err)
	}
	if m["engine.direct.q_per_s"], m["engine.direct.label_error_pp"], err = directEngine(li.in); err != nil {
		return fmt.Errorf("direct engine: %w", err)
	}
	if m["aggregate.direct.votes_per_s"], err = directAggregate(); err != nil {
		return fmt.Errorf("direct aggregate: %w", err)
	}
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	return nil
}

// growth is the median of the last tenth of samples over the median of
// the first tenth (1.0 is flat; 0 when there are too few to tell).
func growth(inOrder []float64) float64 {
	tenth := len(inOrder) / 10
	if tenth < 5 {
		return 0
	}
	return ratio(median(inOrder[len(inOrder)-tenth:]), median(inOrder[:tenth]))
}

// e2eCoverage is the median, over tsa jobs, of the share of the e2e span
// its stage spans (client.submit, jobs.claim_wait, runner, jobs.settle)
// cover, in percent. Stages may overlap — a job can be claimed before its
// submitter has read the acknowledgement — so the share is of covered
// time, not a sum of durations.
func e2eCoverage(spans []span, self map[spanID]time.Duration) float64 {
	isTSA := make(map[spanID]bool)
	for _, s := range spans {
		if s.Name == "runner.tsa" {
			isTSA[s.Parent] = true
		}
	}
	var shares []float64
	for _, s := range spans {
		if s.Name == "e2e" && isTSA[s.ID] && s.dur() > 0 {
			shares = append(shares, 100*(1-float64(self[s.ID])/float64(s.dur())))
		}
	}
	return median(shares)
}
