// Job-service runner: adapts a TSA query to the dispatcher's Runner
// contract, so submitted jobs execute through the engine's concurrent
// HIT pipeline with per-job cancellation, live progress reporting and
// dashboard publication.
package tsa

import (
	"context"
	"fmt"
	"hash/fnv"

	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/metrics"
	"cdas/internal/textgen"
)

// ResultSink receives a running job's live results — the Figure 4
// dashboard feed, which the API server fans out to its SSE
// subscribers. *httpapi.Server satisfies it; the runners only need this
// slice, so tsa stays decoupled from the HTTP layer.
type ResultSink interface {
	// UpdateFromSummary publishes one query-state revision.
	UpdateFromSummary(name string, sum exec.Summary, progress float64, done bool)
	// Follow consumes a pipeline stream into fold, publishing a
	// revision per finished HIT; it blocks until the stream closes.
	Follow(name string, fold *exec.Fold, tokens func(itemID string) ([]uint32, bool), totalItems int, ch <-chan engine.StreamResult) ([]engine.BatchResult, error)
}

// RunnerConfig wires NewJobRunner.
type RunnerConfig struct {
	// Platform hosts the published HITs.
	Platform engine.Platform
	// Stream is the tweet stream jobs filter against; Golden the
	// ground-truth pool for accuracy sampling.
	Stream []textgen.Tweet
	Golden []textgen.Tweet
	// Engine is the per-job engine template. JobName, RequiredAccuracy
	// and Seed are overridden per job; everything else is taken as-is.
	Engine engine.Config
	// API, when set, receives live summaries after every finished HIT
	// (the Figure 4 dashboard).
	API ResultSink
	// Counters, when set, receives per-HIT counters.
	Counters *metrics.Registry
}

// NewJobRunner builds a jobs.Runner executing TSA queries: filter the
// stream, fan the matches through Engine.Stream, and report progress
// and cost after every finished HIT. Each job gets its own engine
// seeded from the job name, so worker draws are independent across
// jobs and reproducible across restarts — a job re-run after a crash
// replays the same simulation.
func NewJobRunner(cfg RunnerConfig) jobs.Runner {
	stream := NewStream(cfg.Stream)
	return func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		ecfg := cfg.Engine
		ecfg.JobName = job.Name
		ecfg.RequiredAccuracy = job.Query.RequiredAccuracy
		if job.Aggregator != "" {
			ecfg.Aggregator = job.Aggregator
		}
		ecfg.Seed ^= nameSeed(job.Name)
		eng, err := engine.New(cfg.Platform, nil, ecfg)
		if err != nil {
			// Bad configuration replays identically: don't retry.
			return fmt.Errorf("%w: %w", jobs.ErrPermanent, err)
		}
		if derr := ValidateDomain(job.Query.Domain); derr != nil {
			// The platform would reject every HIT (truth not in domain);
			// deterministic, so don't burn retries on it.
			return fmt.Errorf("%w: %w", jobs.ErrPermanent, derr)
		}
		m := stream.Match(job.Query)
		if m.Len() == 0 {
			// A keyword filter matching nothing is deterministic too.
			return fmt.Errorf("%w: tsa: no tweets matched query %v", jobs.ErrPermanent, job.Query.Keywords)
		}
		ch, err := eng.Stream(ctx, m.Questions(job.Query.Domain), GoldenQuestions(cfg.Golden))
		if err != nil {
			return err
		}

		// Tee the pipeline: report lifecycle progress per finished HIT
		// while the dashboard's Follow consumes the same results.
		var fwd chan engine.StreamResult
		followed := make(chan struct{})
		if cfg.API != nil {
			fwd = make(chan engine.StreamResult, 1)
			go func() {
				defer close(followed)
				cfg.API.Follow(job.Name, m.Fold(job.Query.Domain, job.Query.Keywords...), m.Tokens(), m.Len(), fwd)
			}()
		} else {
			close(followed)
		}
		total := m.Len()
		answered := 0
		var cost float64
		var firstErr error
		for sr := range ch {
			if sr.Err != nil {
				if firstErr == nil {
					firstErr = sr.Err
				}
			} else {
				answered += len(sr.Batch.Results)
				cost += sr.Batch.Cost
				cfg.Counters.Inc(metrics.CounterHITsFinished)
				report(float64(answered)/float64(total), cost)
			}
			if fwd != nil {
				fwd <- sr
			}
		}
		if fwd != nil {
			close(fwd)
		}
		<-followed
		return firstErr
	}
}

// nameSeed hashes a job name into a seed component, keeping per-job
// worker draws independent and restart-stable.
func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}
