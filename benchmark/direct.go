package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cdas/api"
	"cdas/internal/core/aggregate"
	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/jobs"
	"cdas/internal/jobstore"
	"cdas/internal/scheduler"
	"cdas/internal/tsa"
)

// Direct measurements call one layer's public functions with the
// workload's own inputs, outside the assembled stack. Each runs for
// directBudget: long enough for hundreds of fsyncs, short enough that
// the traced run stays inside the run-time contract.
const directBudget = 400 * time.Millisecond

// fsyncFloor is the median cost of a raw 600-byte append plus Sync in
// dir: the sandbox's share of every commit, not the program's.
func fsyncFloor(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-floor"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 600)
	var samples []float64
	for deadline := time.Now().Add(directBudget / 2); time.Now().Before(deadline); {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), nil
}

// applyBatch is a commit-shaped LSM batch: one ~500-byte record and
// three empty index entries, ≈ 600 bytes with keys.
func applyBatch(worker, i int) []jobstore.Op {
	name := fmt.Sprintf("direct-%02d-%08d", worker, i)
	return []jobstore.Op{
		{Key: "j/" + name, Value: make([]byte, 500)},
		{Key: "xs/pending/" + name},
		{Key: "xp/0/" + name},
		{Key: "xt/bench/" + name},
	}
}

type applyResult struct {
	perSec       float64
	p99MS, maxMS float64
}

// lsmApply drives LSM.Apply from workers goroutines for directBudget,
// fsync on. With compacting set, the calling goroutine checkpoints and
// compacts the store the whole time.
func lsmApply(dir string, workers int, compacting bool) (applyResult, error) {
	l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir, OnlineCheckpoint: true})
	if err != nil {
		return applyResult{}, err
	}
	var (
		mu      sync.Mutex
		samples []float64
		firstEr error
		wg      sync.WaitGroup
		stop    atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		mu.Unlock()
	}
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for i := 0; !stop.Load(); i++ {
				s := time.Now()
				err := l.Apply(applyBatch(w, i))
				mine = append(mine, ms(time.Since(s)))
				if err != nil {
					fail(err)
					break
				}
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	for time.Since(t0) < directBudget {
		if !compacting {
			time.Sleep(directBudget - time.Since(t0))
			continue
		}
		err := l.Checkpoint()
		if err == nil {
			err = l.Compact()
		}
		if err != nil {
			fail(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err := l.Close(); err != nil {
		fail(err)
	}
	if firstEr != nil {
		return applyResult{}, firstEr
	}
	sort.Float64s(samples)
	return applyResult{perSec: float64(len(samples)) / elapsed, p99MS: percentile(samples, 990), maxMS: samples[len(samples)-1]}, nil
}

// directLifecycle runs Submit→Claim→Progress→Complete on a fresh durable
// Service from workers goroutines — no HTTP, no runner: the ceiling for
// jobs_per_s on commit_restart.
func directLifecycle(dir string, workers int) (float64, error) {
	svc, err := jobs.OpenService(jobs.ServiceConfig{Dir: dir, Engine: storeEngine})
	if err != nil {
		return 0, err
	}
	var done atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(directBudget)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				sub := tsaSub(fmt.Sprintf("direct-%02d-%07d", w, i), []string{"Reel 0000"}, domainVariant(0))
				if _, err := svc.Submit(jobs.Job{Name: sub.Name, Kind: jobs.KindTSA, Query: internalQuery(sub)}); err != nil {
					firstErr.Store(err)
					return
				}
				st, ok := svc.Claim()
				if !ok {
					continue // another worker claimed ours; it will finish it
				}
				err := svc.Progress(st.Job.Name, 1, 0)
				if err == nil {
					err = svc.Complete(st.Job.Name, 0)
				}
				if err != nil {
					firstErr.Store(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err := svc.Close(); err != nil {
		return 0, err
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return float64(done.Load()) / elapsed, nil
}

// openLSM times jobstore.OpenLSM on a closed store: restart_ms minus
// this is the index rebuild in jobs.
func openLSM(dir string) (float64, error) {
	var samples []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		l, err := jobstore.OpenLSM(jobstore.LSMConfig{Dir: dir, OnlineCheckpoint: true})
		if err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
		if err := l.Close(); err != nil {
			return 0, err
		}
	}
	return median(samples), nil
}

// tsaSample returns up to limit tsa submissions of the timed phase as
// internal queries, evenly spaced.
func tsaSample(in *inputs, limit int) []jobs.Query {
	var subs []api.JobSubmission
	for _, j := range in.Jobs {
		if j.Sub.Kind == api.KindTSA {
			subs = append(subs, j.Sub)
		}
	}
	step := max(len(subs)/limit, 1)
	var out []jobs.Query
	for i := 0; i < len(subs) && len(out) < limit; i += step {
		out = append(out, internalQuery(subs[i]))
	}
	return out
}

// matchReplay replays tsa.Match over a sample of the workload's queries
// and returns the per-call durations in ms.
func matchReplay(in *inputs, sample []jobs.Query) []float64 {
	var out []float64
	deadline := time.Now().Add(directBudget)
	for _, q := range sample {
		t0 := time.Now()
		m := tsa.Match(q, in.Stream)
		out = append(out, ms(time.Since(t0)))
		sink.Add(int64(len(m.Tweets)))
		if time.Now().After(deadline) && len(out) >= 20 {
			break
		}
	}
	return out
}

// sink keeps measured results alive.
var sink atomic.Int64

// directScheduler enqueues and flushes the workload's tsa jobs one at a
// time on a fresh scheduler and platform: verdicts per second through
// scheduler, engine, aggregate and crowd with no store and no HTTP.
func directScheduler(ctx context.Context, in *inputs, sample []jobs.Query) (float64, error) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(deploymentSeed))
	if err != nil {
		return 0, err
	}
	sched, err := scheduler.New(scheduler.Config{
		Platform: engine.CrowdPlatform{Platform: platform},
		Engine:   engineTemplate(),
		Golden:   tsa.GoldenQuestions(in.Golden),
	})
	if err != nil {
		return 0, err
	}
	defer sched.Close()
	questions := 0
	t0 := time.Now()
	for i, q := range sample {
		m := tsa.Match(q, in.Stream)
		ticket, err := sched.Enqueue(scheduler.Request{Job: fmt.Sprintf("direct-%d", i), Questions: tsa.QuestionsInDomain(m.Tweets, q.Domain)})
		if err != nil {
			return 0, err
		}
		if err := sched.Flush(ctx); err != nil {
			return 0, err
		}
		res, err := ticket.Wait(ctx)
		if err != nil {
			return 0, err
		}
		questions += len(res.Results)
		if time.Since(t0) > directBudget {
			break
		}
	}
	return float64(questions) / time.Since(t0).Seconds(), nil
}

// directEngine processes single HITs of the workload's questions on a
// fresh engine: verdicts per second and their label error.
func directEngine(in *inputs) (perSec, labelErrorPP float64, err error) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(deploymentSeed))
	if err != nil {
		return 0, 0, err
	}
	eng, err := engine.New(engine.CrowdPlatform{Platform: platform}, nil, engineTemplate())
	if err != nil {
		return 0, 0, err
	}
	gold := tsa.GoldenQuestions(in.Golden)
	slots := eng.RealSlots()
	reported, truth := make(map[string]float64), make(map[string]float64)
	questions := 0
	t0 := time.Now()
	for lo := 0; lo+slots <= len(in.Stream) && time.Since(t0) < directBudget; lo += slots {
		br, err := eng.ProcessBatch(tsa.Questions(in.Stream[lo:lo+slots]), gold)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range br.Results {
			reported[r.Answer]++
			truth[r.Question.Truth]++
			questions++
		}
	}
	if questions == 0 {
		return 0, 0, fmt.Errorf("direct engine run processed no questions")
	}
	elapsed := time.Since(t0).Seconds()
	tv := 0.0
	for _, label := range domainVariant(0) {
		d := reported[label] - truth[label]
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return float64(questions) / elapsed, 100 * tv / 2 / float64(questions), nil
}

// directAggregate runs the default aggregator over one HIT-shaped batch
// repeatedly: votes per second.
func directAggregate() (float64, error) {
	agg, ok := aggregate.Get(aggregate.DefaultName)
	if !ok {
		return 0, fmt.Errorf("default aggregator %q is not registered", aggregate.DefaultName)
	}
	const questions, workers = 16, 11
	labels := domainVariant(0)
	b := aggregate.Batch{Votes: make(map[string][]aggregate.Vote), MeanAccuracy: 0.75}
	for q := 0; q < questions; q++ {
		id := fmt.Sprintf("q%02d", q)
		b.Questions = append(b.Questions, aggregate.Question{ID: id, M: len(labels)})
		for w := 0; w < workers; w++ {
			// Two workers in three agree on the question's label.
			answer := labels[q%len(labels)]
			if w%3 == 2 {
				answer = labels[(q+w)%len(labels)]
			}
			b.Votes[id] = append(b.Votes[id], aggregate.Vote{Worker: fmt.Sprintf("w%02d", w), Answer: answer, Accuracy: 0.6 + 0.03*float64(w)})
		}
	}
	votes := 0
	t0 := time.Now()
	for time.Since(t0) < directBudget/2 {
		res, err := agg.Aggregate(b)
		if err != nil {
			return 0, err
		}
		sink.Add(int64(len(res.Verdicts)))
		votes += questions * workers
	}
	return float64(votes) / time.Since(t0).Seconds(), nil
}
