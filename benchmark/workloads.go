package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
)

// workload is one set of inputs and the driver that submits them. Job
// counts scale with -seconds (rate × seconds); shapes never change.
type workload struct {
	name string
	why  string
	// rate is jobs per second of -seconds: for the closed loops it is
	// sized so the timed phase lasts about -seconds on the reference
	// sandbox, for the open loop it is the send rate itself.
	rate   float64
	inputs func(seed uint64, n int) (*inputs, error)
	drive  func(ctx context.Context, st *stack, in *inputs, tr *tracer) (*loadResult, error)
	// maxLabelErrorPP, when set, bounds the mean distance between reported
	// and true label shares: only jobs of thousands of questions report
	// shares close enough to the truth for the check to mean anything.
	maxLabelErrorPP float64
}

// maxLateShare is the share of open-loop sends that may be more than
// lateAfter behind schedule before the run no longer is an open loop. A
// healthy run reads 0.5–3.5 %, and one sandbox stall of 120 ms puts the
// next nine sends behind (5.3 % measured): the check is for a generator
// that is behind throughout, so it sits far from both.
const maxLateShare = 0.25

const (
	// pacedRate is well below sustained_mix's capacity, and its period
	// (12.99 ms) shares no multiple with the scheduler's 25 ms flush tick: at
	// 80 jobs/s every send would meet the tick at one of two fixed phases,
	// and the median wait would depend on when the run happened to start.
	pacedRate = 77
	// fanoutTweets is the number of tweets (crowd questions) per
	// fanout_crowd job.
	fanoutTweets = 4096
	// fanoutClients submit-and-wait: wider concurrency makes generation
	// composition, and the wall time, erratic.
	fanoutClients = 2
)

var workloads = []workload{
	{
		name: "sustained_mix",
		why:  "closed loop at capacity over 8 tsa : 1 continuous : 1 enumeration with Zipf keywords: every layer (filter, commit, ledger, scheduler, crowd, marks, publish) works at once",
		rate: 260,
		inputs: func(seed uint64, n int) (*inputs, error) {
			return mixInputs(seed, n, "sm")
		},
		drive: func(ctx context.Context, st *stack, in *inputs, tr *tracer) (*loadResult, error) {
			return closedLoop(ctx, st, in.Jobs, generators(), maxUnsettled, tr)
		},
	},
	{
		name: "paced_mix",
		why:  "open loop at 77 jobs/s over the same mix, timed from each job's due time: below saturation latency is service time plus flush wait, so a faster commit or claim path shows as milliseconds",
		rate: pacedRate,
		inputs: func(seed uint64, n int) (*inputs, error) {
			return mixInputs(seed+1, n, "pm")
		},
		drive: func(ctx context.Context, st *stack, in *inputs, tr *tracer) (*loadResult, error) {
			return openLoop(ctx, st, in.Jobs, pacedRate, tr)
		},
	},
	{
		name:   "commit_restart",
		why:    "closed loop of cache-hit jobs (no crowd work, four commits each, 1 % parked), then restart and reads: jobs, jobstore and httpapi do nearly all the work; tsa, engine and crowd almost none",
		rate:   750,
		inputs: commitInputs,
		drive: func(ctx context.Context, st *stack, in *inputs, tr *tracer) (*loadResult, error) {
			return closedLoop(ctx, st, in.Jobs, generators(), maxUnsettled, tr)
		},
	},
	{
		name:            "fanout_crowd",
		why:             "two submit-and-wait clients over large one-keyword jobs made fresh by domain variants: scheduler, engine, aggregate and crowd dominate and the store is idle, the mirror image of commit_restart",
		rate:            19,
		maxLabelErrorPP: 5,
		inputs: func(seed uint64, n int) (*inputs, error) {
			return fanoutInputs(seed, n, fanoutTweets)
		},
		drive: func(ctx context.Context, st *stack, in *inputs, tr *tracer) (*loadResult, error) {
			return closedLoop(ctx, st, in.Jobs, fanoutClients, fanoutClients, tr)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options selects one run.
type options struct {
	seed       uint64
	seconds    int
	traced     bool
	outDir     string
	allowTmpfs bool
}

const (
	// setupReps set-ups are timed per run and the median reported; only
	// the last one's stack is used.
	setupReps = 9
	// At least restartReps reopenings of the store are timed per run, and
	// more — up to maxRestartReps — while they fit in restartBudget.
	restartReps    = 10
	maxRestartReps = 40
	restartBudget  = time.Second
	// listPages and pointGets size the read phase on the reopened store.
	listPages = 400
	pointGets = 2000
)

// report is everything one run measured.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	inputHash string
	sizes     string
	host      string
	spanFile  string
	checks    checker
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string
}

// run executes one workload once: set-up (setupReps times), the timed
// load phase, verification, restart, reads and — traced — the direct
// layer measurements.
func (w *workload) run(ctx context.Context, opt options, tmp *tempDirs) (*report, error) {
	rep := &report{workload: w.name, seed: opt.seed, traced: opt.traced,
		e2e: make(map[string]float64), layers: make(map[string]float64)}
	n := max(int(math.Round(w.rate*float64(opt.seconds))), 1)

	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	var (
		in     *inputs
		st     *stack
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if in, err = w.inputs(opt.seed, n); err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		dir, err := tmp.make("store")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			fs := fsType(dir)
			rep.host = hostLine(fs)
			if memoryBacked(fs) && !opt.allowTmpfs {
				return nil, fmt.Errorf("store directory %s is on %s: an fsync that costs nothing measures a different program (pass -allow-tmpfs to run anyway)", dir, fs)
			}
		}
		var useTr *tracer
		if i == setupReps-1 {
			useTr = tr
		}
		if st, err = startStack(dir, in, useTr); err != nil {
			return nil, fmt.Errorf("starting the stack: %w", err)
		}
		if err := warm(ctx, st, in); err != nil {
			st.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := st.Close(); err != nil {
				return nil, fmt.Errorf("closing a set-up stack: %w", err)
			}
			tmp.remove(dir)
		}
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	rep.inputHash = in.Hash
	rep.sizes = fmt.Sprintf("jobs=%d warm=%d stream_tweets=%d generators=%d", len(in.Jobs), len(in.Warm), len(in.Stream), generators())
	rep.e2e["setup_s"] = median(setups)

	// The set-up's work is not the timed phase's: every counter the
	// report reads is a delta from here.
	if tr != nil {
		tr.reset()
	}
	base := takeBaseline(st)
	var sampler *heapSampler
	if tr != nil {
		sampler = startHeapSampler()
	}

	// The deadline only bounds a hung run; a healthy one drains long
	// before it.
	loadCtx, cancel := context.WithTimeout(ctx, time.Duration(opt.seconds)*4*time.Second+60*time.Second)
	res, err := w.drive(loadCtx, st, in, tr)
	cancel()
	if err != nil {
		return nil, err
	}
	after := takeBaseline(st)
	heapPeak := 0.0
	if sampler != nil {
		heapPeak = sampler.stop()
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	elapsed := res.end.Sub(res.start).Seconds()
	ls := summarizeLoad(in.Jobs, res, &rep.checks)
	if res.late.sends > 0 {
		rep.checks.check(res.late.share() <= maxLateShare, "the generator sent %.1f %% of jobs more than %v late (worst %v): not an open loop", 100*res.late.share(), lateAfter, res.late.max)
		rep.notes = append(rep.notes, fmt.Sprintf("generator: %d sends, %.2f %% more than %v late, worst %v", res.late.sends, 100*res.late.share(), lateAfter, res.late.max))
	}
	rep.e2e["jobs_per_s"] = ratio(float64(ls.settled), elapsed)
	rep.e2e["e2e_p50_ms"] = ls.e2eP50
	rep.e2e["e2e_p90_ms"] = ls.e2eP90
	rep.e2e["cpu_ms_per_job"] = ratio(ms(after.cpu-base.cpu), float64(ls.settled))
	rep.e2e["heap_after_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	rep.notes = append(rep.notes,
		fmt.Sprintf("timed phase %.2fs, %d jobs settled", elapsed, ls.settled),
		fmt.Sprintf("submit: n=%d tail=p%g; e2e: n=%d whole-run p50=%.2f ms tail=p%g %.2f ms", ls.submit.N, ls.submit.TailP*100, ls.e2e.N, ls.e2e.P50, ls.e2e.TailP*100, ls.e2e.Tail))

	// Outputs against the benchmark's own reference computation, while
	// the live results are still in memory.
	out, err := verifyOutputs(ctx, st, in, &rep.checks)
	if err != nil {
		return nil, err
	}
	rep.e2e["cost_per_question"] = ratio(out.ledgerSpent, float64(out.workItems))
	if w.maxLabelErrorPP > 0 {
		rep.checks.check(out.labelErrorPP <= w.maxLabelErrorPP, "reported label shares are %.2f pp from the truth on average, want <= %.0f", out.labelErrorPP, w.maxLabelErrorPP)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("work items answered %d, ledger spend %.4f", out.workItems, out.ledgerSpent))

	// Restart on the store just written, then read from it.
	before := snapshotService(st.svc, in)
	dirBytes := dirSize(st.dir)
	closed = true
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("closing the stack: %w", err)
	}
	rs, restarts, fillers, err := restart(st.dir, in, before, tr, &rep.checks)
	if err != nil {
		return nil, err
	}
	reads, err := readPhase(ctx, rs, in, fillers, opt.seed, &rep.checks)
	if cerr := rs.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the reopened store: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	rep.e2e["restart_ms"] = median(restarts)
	rep.e2e["list_page_p50_ms"] = reads.list.P50
	rep.notes = append(rep.notes, fmt.Sprintf("restart: n=%d after %d filler jobs; list pages: n=%d tail=p%g; gets: n=%d tail=p%g",
		len(restarts), fillers, reads.list.N, reads.list.TailP*100, reads.get.N, reads.get.TailP*100))
	if reads.kindListShort > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("KNOWN DEFECT: GET /v1/jobs?kind=tsa left out %d jobs", reads.kindListShort))
	}
	rep.checks.check(st.chargeErrs.Load() == 0, "%d budget charges failed to commit", st.chargeErrs.Load())

	if tr != nil {
		spans := tr.snapshot()
		lm := layerInputs{in: in, st: st, res: res, load: ls, out: out, base: base, after: after,
			spans: spans, reads: reads, restartMS: median(restarts), dirBytes: dirBytes, heapPeak: heapPeak,
			elapsed: elapsed, readErrs: rs.errs.Load()}
		if err := layerMetrics(ctx, lm, tmp, rep); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, opt.seed)
		if rep.spanFile, err = writeSpans(opt.outDir, name, spans); err != nil {
			return nil, err
		}
	}
	tmp.remove(st.dir)
	return rep, nil
}

// warm runs the set-up's submissions to completion (commit_restart's
// cache warm-up; empty elsewhere).
func warm(ctx context.Context, st *stack, in *inputs) error {
	if len(in.Warm) == 0 {
		return nil
	}
	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	res, err := closedLoop(wctx, st, in.Warm, 1, len(in.Warm), nil)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i, o := range res.jobs {
		if o.submitErr != nil || o.state != jobs.StateDone {
			return fmt.Errorf("warm-up job %s ended %q (submit error: %v)", in.Warm[i].Sub.Name, o.state, o.submitErr)
		}
	}
	return nil
}

// baseline is a point-in-time reading of every cumulative counter the
// report differences.
type baseline struct {
	cpu      time.Duration
	counters map[string]int64
	sched    scheduler.State
	platform float64
	rt       runtimeSample
}

func takeBaseline(st *stack) baseline {
	return baseline{
		cpu:      cpuTime(),
		counters: st.counters.Snapshot(),
		sched:    st.sched.State(),
		platform: st.platform.TotalSpent(),
		rt:       readRuntime(),
	}
}

// loadSummary condenses a timed phase.
type loadSummary struct {
	settled     int
	submit, e2e dist
	// e2eP50 and e2eP90 are the gated figures: medians over consecutive
	// slices of the run (slicedPercentile).
	e2eP50, e2eP90 float64
}

// summarizeLoad checks every job's end state and summarises the
// latencies of the ones that settled.
func summarizeLoad(specs []jobSpec, res *loadResult, ck *checker) loadSummary {
	var ls loadSummary
	var submitMS, e2eMS []float64
	for i, o := range res.jobs {
		name := specs[i].Sub.Name
		if !ck.check(o.submitErr == nil, "submit %s refused: %v", name, o.submitErr) {
			continue
		}
		submitMS = append(submitMS, ms(o.acked.Sub(o.sent)))
		if !ck.check(!o.settled.IsZero(), "job %s never settled", name) {
			continue
		}
		ls.settled++
		// End-to-end latency is the one-shot query's: a standing query or
		// an enumeration runs for as long as its source and its stopping
		// rule say, which is not a wait a tenant sits through.
		if specs[i].Sub.Kind == api.KindTSA {
			e2eMS = append(e2eMS, ms(o.settled.Sub(o.due)))
		}
		ck.check(string(o.state) == string(specs[i].Expect), "job %s ended %q, want %q", name, o.state, specs[i].Expect)
	}
	ls.submit, ls.e2e = summarize(submitMS), summarize(e2eMS)
	ls.e2eP50, ls.e2eP90 = slicedPercentile(e2eMS, 500), slicedPercentile(e2eMS, 900)
	return ls
}

// dirSize sums the regular files under dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

func hostLine(fs string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q store_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fs)
}
