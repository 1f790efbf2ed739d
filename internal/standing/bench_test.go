package standing

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
	"cdas/internal/stats"
	"cdas/internal/textgen"
)

// BenchmarkStanding measures the continuous-query pipeline end to end:
// a full stream offered through a Processor against the real scheduler
// and simulated crowd. It reports stream throughput (items/s) and the
// window-close tail (window_p99_ms); benchmark/ carries the end-to-end
// figures.
func BenchmarkStanding(b *testing.B) {
	const nItems = 240
	items := make([]exec.Item, nItems)
	for i := range items {
		// One item per second of event time: 60 per one-minute window.
		items[i] = testItem(i, base.Add(time.Duration(i)*time.Second))
	}
	job := continuousJob("bench/thor", jobs.StreamSpec{Items: nItems})

	var closeMS []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched := newBenchScheduler(b)
		proc, err := NewProcessor(Config{
			Job:      job,
			Sched:    sched,
			Tick:     func(ctx context.Context) error { return sched.Flush(ctx) },
			Convert:  testConvert,
			OnWindow: func(WindowResult) error { return nil },
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.StartTimer()
		prev := proc.Mark().Window
		for _, it := range items {
			t0 := time.Now()
			if err := proc.Offer(ctx, it); err != nil {
				b.Fatal(err)
			}
			if w := proc.Mark().Window; w > prev {
				// This offer crossed the watermark: its latency is the
				// cost of closing the window(s) it triggered.
				closeMS = append(closeMS, float64(time.Since(t0))/float64(time.Millisecond))
				prev = w
			}
		}
		t0 := time.Now()
		if err := proc.Drain(ctx); err != nil {
			b.Fatal(err)
		}
		if w := proc.Mark().Window; w > prev {
			closeMS = append(closeMS, float64(time.Since(t0))/float64(time.Millisecond))
		}
		b.StopTimer()
		sched.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(nItems*b.N)/b.Elapsed().Seconds(), "items/s")
	b.ReportMetric(stats.Quantile(closeMS, 0.99), "window_p99_ms")
}

// newBenchScheduler mirrors newTestScheduler without the testing.T
// plumbing (benchmarks manage Close themselves to keep teardown out of
// the timed region).
func newBenchScheduler(b *testing.B) *scheduler.Scheduler {
	b.Helper()
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	golden := make([]crowd.Question, 12)
	for i := range golden {
		golden[i] = crowd.Question{
			ID:     fmt.Sprintf("golden/g%03d", i),
			Text:   fmt.Sprintf("Calibration tweet #%d", i),
			Domain: append([]string(nil), textgen.Labels...),
			Truth:  textgen.LabelNeutral,
		}
	}
	s, err := scheduler.New(scheduler.Config{
		Platform: engine.CrowdPlatform{Platform: platform},
		Engine:   engine.Config{HITSize: 20, MaxInflightHITs: 4, Seed: 9},
		Golden:   golden,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}
