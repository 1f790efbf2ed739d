package scheduler

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cdas/internal/crowd"
	"cdas/internal/engine"
)

// benchScheduler builds a fresh platform + scheduler pair.
func benchScheduler(b *testing.B, seed uint64, dedup bool) *Scheduler {
	b.Helper()
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(seed))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Platform:     engine.CrowdPlatform{Platform: platform},
		Engine:       engine.Config{HITSize: 20, MaxInflightHITs: 4, Seed: seed},
		Golden:       goldenPool(12),
		DisableDedup: !dedup,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchRun pushes an nJobs-tenant workload through one generation, each
// job enqueued from its own goroutine, and returns the crowd spend.
func benchRun(b *testing.B, s *Scheduler, w map[string][]crowd.Question) float64 {
	b.Helper()
	tickets := make(chan *Ticket, len(w))
	var wg sync.WaitGroup
	for job, qs := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := s.Enqueue(Request{Job: job, Questions: qs})
			if err != nil {
				b.Error(err)
				return
			}
			tickets <- t
		}()
	}
	wg.Wait()
	close(tickets)
	if err := s.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}
	for t := range tickets {
		if _, err := t.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	return s.Ledger().Spent()
}

// BenchmarkSchedulerDedup measures one full shared generation at 1, 8
// and 64 concurrent jobs across the 30–70% overlap band, and reports
// the crowd-spend saving against the same workload with dedup off
// (benchmark/ carries the end-to-end figures).
func BenchmarkSchedulerDedup(b *testing.B) {
	const perJob = 16
	for _, nJobs := range []int{1, 8, 64} {
		for _, overlap := range []float64{0.3, 0.5, 0.7} {
			b.Run(fmt.Sprintf("jobs=%d/overlap=%.0f%%", nJobs, overlap*100), func(b *testing.B) {
				w := workload(nJobs, perJob, overlap)
				naive := benchRun(b, benchScheduler(b, 1, false), w)
				var spend float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spend = benchRun(b, benchScheduler(b, 1, true), w)
				}
				b.StopTimer()
				if naive > 0 {
					b.ReportMetric(100*(1-spend/naive), "%spend_saved")
				}
				b.ReportMetric(float64(nJobs*perJob)/b.Elapsed().Seconds()*float64(b.N), "questions/s")
			})
		}
	}
}

// BenchmarkSchedulerContention measures the enqueue path under
// goroutine contention: n jobs hammering Enqueue concurrently while a
// generation flushes their shared 50%-overlap workload.
func BenchmarkSchedulerContention(b *testing.B) {
	const perJob = 16
	for _, nJobs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("jobs=%d", nJobs), func(b *testing.B) {
			w := workload(nJobs, perJob, 0.5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRun(b, benchScheduler(b, 1, true), w)
			}
		})
	}
}

// BenchmarkSchedulerEnqueue measures the identity work of one large
// request — the benchmark's fan-out job: 4 096 questions, every one
// carrying its own copy of the same answer set.
func BenchmarkSchedulerEnqueue(b *testing.B) {
	qs := make([]crowd.Question, 4096)
	for i := range qs {
		qs[i] = uniqueQuestion("fanout", i)
		qs[i].Domain = append([]string(nil), testDomain...)
	}
	s := benchScheduler(b, 1, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Enqueue(Request{Job: "fanout", Questions: qs}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(qs))/b.Elapsed().Seconds()*float64(b.N), "questions/s")
}
