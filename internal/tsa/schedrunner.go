// Scheduled job runner: adapts a TSA query to the dispatcher's Runner
// contract through the cross-query crowd scheduler, so concurrent jobs
// share HIT batches, reuse cached verified answers and draw on one
// budget — instead of each dispatcher worker driving a private engine.
package tsa

import (
	"context"
	"errors"
	"fmt"

	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
)

// ScheduledRunnerConfig wires NewScheduledJobRunner. Operational
// counters (cache hits, dedup, batches) live on the scheduler itself.
type ScheduledRunnerConfig struct {
	// Scheduler coalesces this runner's questions with every other
	// job's. Required.
	Scheduler *scheduler.Scheduler
	// Stream is the tweet stream jobs filter against.
	Stream []textgen.Tweet
	// API, when set, receives the job's summary when its generation
	// flushes (the Figure 4 dashboard).
	API ResultSink
}

// NewScheduledJobRunner builds a jobs.Runner that routes TSA queries
// through the cross-query scheduler: filter the stream, enqueue the
// matched questions with the job's priority and budget, and wait for
// the scheduler's generation to flush. Questions shared with other
// jobs are bought once; answers the cache already holds are free. A
// budget-refused run surfaces jobs.ErrParked, which the dispatcher
// turns into the resumable Parked state; a cancelled run abandons its
// ticket so the scheduler never purchases answers nobody will read.
//
// Progress and cost land when the generation flushes (results arrive
// per generation, not per HIT — the direct-engine tsa.NewJobRunner
// remains the choice when per-batch streaming matters more than
// cross-query sharing), including the partial spend of a run that
// failed mid-generation. A run cancelled mid-flush cannot report (its
// terminal record rejects late progress by design); its spend stays
// visible in the durable budget ledger (jobs.Service.Budget and
// GET /api/scheduler).
func NewScheduledJobRunner(cfg ScheduledRunnerConfig) jobs.Runner {
	// The gate derives from the scheduler itself — a second accuracy
	// knob here would be one flag-sync bug away from silently
	// under-verifying.
	serviceAcc := cfg.Scheduler.ServiceAccuracy()
	stream := NewStream(cfg.Stream)
	return func(ctx context.Context, job jobs.Job, report func(progress, cost float64)) error {
		if job.Query.RequiredAccuracy > serviceAcc+1e-9 {
			// The shared engine verifies every question to the service
			// level; a stricter guarantee cannot be honoured, and
			// pretending otherwise would be a silent regression.
			return fmt.Errorf("%w: tsa: job requires accuracy %v above the service level %v",
				jobs.ErrPermanent, job.Query.RequiredAccuracy, serviceAcc)
		}
		if derr := ValidateDomain(job.Query.Domain); derr != nil {
			// The platform would reject every HIT (truth not in domain);
			// deterministic, so don't burn retries on it.
			return fmt.Errorf("%w: %w", jobs.ErrPermanent, derr)
		}
		m := stream.Match(job.Query)
		if len(m.Tweets) == 0 {
			// A keyword filter matching nothing is deterministic: retrying
			// replays the same outcome.
			return fmt.Errorf("%w: tsa: no tweets matched query %v", jobs.ErrPermanent, job.Query.Keywords)
		}
		ticket, err := cfg.Scheduler.Enqueue(scheduler.Request{
			Job:        job.Name,
			Priority:   job.Priority,
			Budget:     job.Budget,
			Aggregator: job.Aggregator,
			Questions:  QuestionsInDomain(m.Tweets, job.Query.Domain),
		})
		if err != nil {
			return fmt.Errorf("%w: tsa: %w", jobs.ErrPermanent, err)
		}
		res, err := ticket.Wait(ctx)
		switch {
		case errors.Is(err, scheduler.ErrParked):
			return fmt.Errorf("%w: %w", jobs.ErrParked, err)
		case errors.Is(err, ctx.Err()) && ctx.Err() != nil:
			// Cancelled while queued or flushing: withdraw the ticket so
			// an unflushed generation doesn't publish for a dead job.
			ticket.Abandon()
			return err
		case err != nil:
			// A generation that died mid-flight may still have charged
			// for its surviving domain groups; record that spend before
			// surfacing the failure.
			if res.Cost > 0 {
				report(float64(len(res.Results))/float64(len(m.Tweets)), res.Cost)
			}
			return err
		}
		report(1, res.Cost)
		if cfg.API != nil {
			fold := exec.NewFold(job.Query.Domain, job.Query.Keywords...)
			fold.ObserveResults(res.Results, m.Texts)
			cfg.API.UpdateFromSummary(job.Name, fold.Summary(), 1, true)
		}
		return nil
	}
}
