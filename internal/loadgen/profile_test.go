// Package loadgen is the closed-loop determinism oracle, kept as test
// code only: it boots the complete CDAS stack in-process, drives it
// purely through the cdas/client SDK with a seeded multi-tenant
// workload, and fingerprints what the stack settled.
//
// Every tenant of a round is submitted back to back, the harness
// flushes the scheduler once the whole wave is enqueued, and the next
// round starts when the previous one settled. Generation composition
// is then a pure function of the profile, so a run's spend, job
// outcomes and results hash are bit-equal across repeats and across
// dispatcher counts; the tests pin them.
package loadgen

import (
	"fmt"
	"time"

	"cdas/internal/core/aggregate"
)

// BlockSize is the workload's question granularity: tenant question
// sets are composed of blocks of this many questions (one synthetic
// "movie" per block), and Overlap rounds to block boundaries.
const BlockSize = 8

// Profile is one workload shape. The zero value is not runnable;
// construct from Named or fill every field and Validate.
type Profile struct {
	// Name labels the profile in test output.
	Name string
	// Seed drives every random choice in the run: the crowd population,
	// the tweet stream and the source seeds.
	Seed uint64
	// Tenants is the number of concurrent jobs per round.
	Tenants int
	// QuestionsPerTenant is each tenant's question-set size; it must be
	// a multiple of BlockSize.
	QuestionsPerTenant int
	// Overlap is the fraction of each tenant's questions drawn from its
	// domain group's shared pool (identical across the group's tenants);
	// the rest are private. Rounded to block granularity.
	Overlap float64
	// Domains spreads tenants round-robin over this many distinct
	// answer-domain variants; questions only coalesce within a variant,
	// and each variant runs its own engine, so Domains > 1 exercises the
	// scheduler's concurrent domain groups.
	Domains int
	// Rounds repeats the workload: round r re-asks round r-1's questions
	// under fresh job names, so rounds beyond the first measure the
	// verified-answer cache.
	Rounds int
	// PriorityLevels cycles tenants through 0..PriorityLevels-1 budget
	// admission priorities (0 = all default priority).
	PriorityLevels int
	// TenantBudget caps each job's crowd spend (0 = unlimited); jobs the
	// budget cannot cover are parked, and the harness counts them.
	TenantBudget float64
	// GlobalBudget caps the service-wide spend (0 = unlimited).
	GlobalBudget float64
	// WatcherFraction attaches an SSE watcher to this fraction of
	// tenants (by index), consuming the live event stream end to end.
	WatcherFraction float64
	// Dispatchers sizes the server's dispatcher pool. The effective
	// pool is max(Dispatchers, Tenants) so a whole wave can block in one
	// generation: the count then changes only goroutine scheduling,
	// never batch composition or results.
	Dispatchers int
	// RequiredAccuracy is every job's C (and the service verification
	// level).
	RequiredAccuracy float64
	// HITSize and Inflight configure the engine template.
	HITSize  int
	Inflight int
	// Aggregator names the answer-aggregation method every submitted
	// job runs with (empty = the server default, "cdas").
	Aggregator string
	// Stream switches the workload to standing queries: each tenant
	// submits one continuous query over the server's built-in
	// deterministic source (open-loop seeded exponential event-time
	// arrivals) instead of a batch TSA job. The window coordinator
	// synchronises every stream's window closes into shared scheduler
	// generations, so the windowed results hash is bit-reproducible
	// across repeats and dispatcher counts.
	Stream bool
	// StreamItems is each stream's source length (0 = 48).
	StreamItems int
	// StreamRate is the source's mean event-time arrival rate in items
	// per second (0 = 0.5).
	StreamRate float64
	// StreamWindow is the tumbling window width (0 = 1 minute of event
	// time).
	StreamWindow time.Duration
	// StreamCapacity caps crowd questions per window (0 = 5), small
	// enough that the degrade ladder engages under the default rate.
	StreamCapacity int
	// Enum switches the workload to enumeration queries: each tenant
	// submits one open-ended "list all X" job against the built-in
	// deterministic simulated crowd. The enumeration runner buys HIT
	// batches on its own (no scheduler generations), and every batch is
	// a pure function of the per-tenant source seed — so enum runs
	// reproduce the same result sets, completeness estimates and spend
	// bit for bit across repeats and dispatcher counts.
	Enum bool
	// EnumItemValue is each job's worth of one newly discovered member,
	// in HIT-price currency (0 = 0.05). Marginal-value admission stops
	// buying batches once E[new items per batch] x EnumItemValue falls
	// below the HIT price.
	EnumItemValue float64
	// EnumUniverse is each hidden set's true size (0 = 30) — the figure
	// the Chao92 completeness estimate should converge toward.
	EnumUniverse int
}

// Validate normalises and checks the profile, returning the effective
// copy. QuestionsPerTenant is rounded up to a BlockSize multiple.
func (p Profile) Validate() (Profile, error) {
	if p.Name == "" {
		p.Name = "custom"
	}
	if p.Tenants < 1 {
		return p, fmt.Errorf("loadgen: tenants must be >= 1, got %d", p.Tenants)
	}
	if p.QuestionsPerTenant < 1 {
		return p, fmt.Errorf("loadgen: questions per tenant must be >= 1, got %d", p.QuestionsPerTenant)
	}
	if rem := p.QuestionsPerTenant % BlockSize; rem != 0 {
		p.QuestionsPerTenant += BlockSize - rem
	}
	if p.Overlap < 0 || p.Overlap > 1 {
		return p, fmt.Errorf("loadgen: overlap %v outside [0,1]", p.Overlap)
	}
	if p.Domains < 1 {
		p.Domains = 1
	}
	if p.Domains > p.Tenants {
		p.Domains = p.Tenants
	}
	if p.Rounds < 1 {
		p.Rounds = 1
	}
	if p.PriorityLevels < 0 {
		return p, fmt.Errorf("loadgen: priority levels must be >= 0, got %d", p.PriorityLevels)
	}
	if p.TenantBudget < 0 || p.GlobalBudget < 0 {
		return p, fmt.Errorf("loadgen: budgets must be >= 0")
	}
	if p.WatcherFraction < 0 || p.WatcherFraction > 1 {
		return p, fmt.Errorf("loadgen: watcher fraction %v outside [0,1]", p.WatcherFraction)
	}
	if p.Dispatchers < 1 {
		p.Dispatchers = 2
	}
	if p.RequiredAccuracy == 0 {
		p.RequiredAccuracy = 0.85
	}
	if p.RequiredAccuracy <= 0 || p.RequiredAccuracy >= 1 {
		return p, fmt.Errorf("loadgen: required accuracy %v outside (0,1)", p.RequiredAccuracy)
	}
	if p.HITSize == 0 {
		p.HITSize = 20
	}
	if p.HITSize < 2 {
		return p, fmt.Errorf("loadgen: HIT size must be >= 2, got %d", p.HITSize)
	}
	if p.Inflight < 1 {
		p.Inflight = 2
	}
	if err := aggregate.Validate(p.Aggregator); err != nil {
		return p, fmt.Errorf("loadgen: %w", err)
	}
	if p.Stream {
		if p.StreamItems == 0 {
			p.StreamItems = 48
		}
		if p.StreamItems < 1 {
			return p, fmt.Errorf("loadgen: stream items must be >= 1, got %d", p.StreamItems)
		}
		if p.StreamRate == 0 {
			p.StreamRate = 0.5
		}
		if p.StreamRate < 0 {
			return p, fmt.Errorf("loadgen: stream rate must be >= 0, got %v", p.StreamRate)
		}
		if p.StreamWindow == 0 {
			p.StreamWindow = time.Minute
		}
		if p.StreamWindow < 0 {
			return p, fmt.Errorf("loadgen: stream window must be > 0, got %v", p.StreamWindow)
		}
		if p.StreamCapacity == 0 {
			p.StreamCapacity = 5
		}
		// Stream marks are per job name and the cache rounds of the batch
		// workload have no standing-query analogue.
		p.Rounds = 1
	}
	if p.Enum {
		if p.Stream {
			return p, fmt.Errorf("loadgen: stream and enum modes are mutually exclusive")
		}
		if p.EnumItemValue == 0 {
			p.EnumItemValue = 0.05
		}
		if p.EnumItemValue < 0 {
			return p, fmt.Errorf("loadgen: enum item value must be > 0, got %v", p.EnumItemValue)
		}
		if p.EnumUniverse == 0 {
			p.EnumUniverse = 30
		}
		if p.EnumUniverse < 1 {
			return p, fmt.Errorf("loadgen: enum universe must be >= 1, got %d", p.EnumUniverse)
		}
		// Enumeration marks are per job name; the cache rounds of the
		// batch workload have no enumeration analogue either.
		p.Rounds = 1
	}
	return p, nil
}

// Named returns a predefined profile by name. Callers may override
// fields before Validate.
func Named(name string) (Profile, bool) {
	switch name {
	case "smoke":
		// 4 tenants over 2 domain variants, one cache round, watchers on
		// half the tenants.
		return Profile{
			Name:               "smoke",
			Seed:               1,
			Tenants:            4,
			QuestionsPerTenant: 16,
			Overlap:            0.5,
			Domains:            2,
			Rounds:             2,
			WatcherFraction:    0.5,
			Dispatchers:        4,
			RequiredAccuracy:   0.85,
			HITSize:            20,
			Inflight:           2,
		}, true
	case "stream":
		// Standing queries: 4 continuous queries over 2 domain groups,
		// arrivals fast enough for the tiny window capacity that the
		// degrade ladder (shed, degraded verdicts, accounted drops)
		// engages.
		return Profile{
			Name:               "stream",
			Seed:               1,
			Tenants:            4,
			QuestionsPerTenant: 8,
			Domains:            2,
			Rounds:             1,
			WatcherFraction:    0.5,
			Dispatchers:        4,
			RequiredAccuracy:   0.85,
			HITSize:            20,
			Inflight:           2,
			Stream:             true,
			StreamItems:        48,
			StreamRate:         0.5,
			StreamWindow:       time.Minute,
			StreamCapacity:     5,
		}, true
	case "enum":
		// Enumeration queries: 4 open-ended jobs over independent hidden
		// sets, budgets generous enough that the marginal-value rule (not
		// the budget) is what stops the spend.
		return Profile{
			Name:               "enum",
			Seed:               1,
			Tenants:            4,
			QuestionsPerTenant: 8,
			Domains:            1,
			Rounds:             1,
			TenantBudget:       2,
			WatcherFraction:    0.5,
			Dispatchers:        4,
			RequiredAccuracy:   0.85,
			HITSize:            20,
			Inflight:           2,
			Enum:               true,
			EnumItemValue:      0.05,
			EnumUniverse:       30,
		}, true
	case "budget":
		// Scarce budgets with priority tiers: exercises parking.
		return Profile{
			Name:               "budget",
			Seed:               1,
			Tenants:            12,
			QuestionsPerTenant: 16,
			Overlap:            0.5,
			Domains:            2,
			Rounds:             1,
			PriorityLevels:     3,
			TenantBudget:       0.3,
			GlobalBudget:       0.8,
			WatcherFraction:    0.25,
			Dispatchers:        6,
			RequiredAccuracy:   0.85,
			HITSize:            20,
			Inflight:           2,
		}, true
	}
	return Profile{}, false
}
