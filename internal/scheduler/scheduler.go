// Package scheduler implements the cross-query crowd scheduler: the
// layer between the job dispatcher and the crowdsourcing engine that
// makes many concurrent analytics queries share one crowd.
//
// CDAS batches questions into HITs to amortise cost for a single query
// (Section 3.1); at service scale the dominant levers are cross-query —
// identical questions asked by different tenants should be purchased
// once, and the crowd's capacity and the operator's money are global
// resources. The scheduler therefore:
//
//   - coalesces questions from concurrently enqueued jobs into shared
//     HIT batches, grouped by canonical answer-domain and published
//     under content-derived canonical IDs, with every verified answer
//     fanned back out to all subscribing jobs;
//   - consults a verified-answer cache (confidence + TTL) before
//     publishing anything, so repeated questions across time are free —
//     a request whose every question is a live hit resolves inside
//     Enqueue, without waiting for a flush generation it would add
//     nothing to;
//   - enforces per-job and global budget limits with priority-aware
//     admission: a job that doesn't fit the remaining budget is parked
//     (ErrParked), not failed — the jobs layer keeps it in a resumable
//     Parked state.
//
// Determinism: a flush generation's batch composition is a pure function
// of the set of enqueued questions — tickets are admitted in (priority,
// job name) order and each domain group's unique questions are sorted by
// canonical key before chunking — and each domain group runs on its own
// engine whose HIT IDs and seeds derive from the domain key, never from
// arrival order. For a fixed seed, a generation's results are bit-equal
// across runs and across however many goroutines enqueued the work.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdas/internal/core/aggregate"
	"cdas/internal/core/prediction"
	"cdas/internal/core/verification"
	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/metrics"
	"cdas/internal/profile"
)

// ErrParked reports that admission denied a job for budget reasons; the
// job should be parked (kept, resumable) rather than failed.
var ErrParked = errors.New("scheduler: job parked: budget exhausted")

// ErrClosed reports an enqueue or flush on a closed scheduler.
var ErrClosed = errors.New("scheduler: closed")

// ErrAbandoned reports a ticket whose job withdrew (Ticket.Abandon)
// before its generation flushed — typically a cancelled job.
var ErrAbandoned = errors.New("scheduler: ticket abandoned")

// Config wires a Scheduler.
type Config struct {
	// Platform hosts the published shared HITs. Required.
	Platform engine.Platform
	// Engine is the per-domain engine template. JobName and Seed are
	// overridden per domain group; everything else is taken as-is. In
	// particular RequiredAccuracy is the service-level guarantee every
	// shared question is verified to — cross-query sharing means one
	// verification standard per deployment, not per job.
	Engine engine.Config
	// Golden is the ground-truth pool injected into shared HITs for
	// accuracy sampling. Required unless Engine.DisableSampling.
	Golden []crowd.Question
	// GlobalBudget caps total crowd spend across all jobs (0 =
	// unlimited). Per-job caps arrive with each Request.
	GlobalBudget float64
	// Economics prices the admission estimate (default the paper's fee
	// schedule). Actual charges always come from the platform.
	Economics prediction.Economics
	// DisableDedup turns off cross-query coalescing and the answer
	// cache: every job's questions are published separately, as if each
	// job drove its own engine. Budget accounting still applies.
	DisableDedup bool
	// CacheTTL expires cached answers (0 = never — the deterministic
	// setting for simulations).
	CacheTTL time.Duration
	// Now is the cache clock (default time.Now); inject a fixed clock
	// for deterministic runs.
	Now func() time.Time
	// FlushInterval, when positive, starts a background loop flushing
	// pending work every interval — the setting for a live server.
	// Leave zero for deterministic manual flushing.
	FlushInterval time.Duration
	// OnCharge, when set, is called once per job per generation with
	// the job's attributed crowd spend — the persistence hook
	// (jobs.Service.ChargeBudget) that makes budget state survive WAL
	// replay.
	OnCharge func(job string, amount float64)
	// Counters, when set, receives cache hit/miss, dedup, batch and
	// parking counters.
	Counters *metrics.Registry
}

// Request is one job's unit of scheduling: its full question set plus
// admission parameters.
type Request struct {
	// Job names the submitting job; charges and parking decisions are
	// recorded against it.
	Job string
	// Priority orders admission when budget is scarce: higher admits
	// first; ties break by job name.
	Priority int
	// Budget caps this job's total crowd spend (0 = unlimited).
	Budget float64
	// Aggregator names the answer-aggregation method (aggregate
	// registry) this job's questions are verified with. Empty or
	// aggregate.DefaultName selects the engine template's default, the
	// CDAS probability model. Non-default methods schedule under
	// aggregator-qualified dedup keys: their questions never coalesce
	// with — and their cached verdicts are never served to — jobs using
	// a different method.
	Aggregator string
	// Questions is the job's question set. IDs must be unique within
	// the request.
	Questions []crowd.Question
}

// JobResult is the scheduler's answer to one request.
type JobResult struct {
	// Results holds one verdict per submitted question, sorted by the
	// submitted question ID, with the job's original Question restored
	// (the crowd saw the canonical form).
	Results []engine.QuestionResult
	// Cost is the job's attributed share of crowd spend: each published
	// question's cost is split evenly across its subscribing jobs;
	// cache hits are free.
	Cost float64
	// CacheHits counts questions answered from the cache.
	CacheHits int
	// Shared counts questions that rode a slot with at least one other
	// subscriber (dedup wins beyond the cache).
	Shared int
	// Published counts questions this job was first subscriber for.
	Published int
}

// slotRef is a question's precomputed identity: dedup key, domain key
// and the slot key it schedules under. Computed once at Enqueue — the
// SHA-256 canonicalisation is the flush path's hottest work and must
// not be repeated across the dry-run and real planning passes.
type slotRef struct {
	key, dk, slotKey string
}

// Ticket is a job's handle on in-flight scheduling. Wait blocks until
// the request resolves: at Enqueue when every question was a cache hit,
// otherwise when the request's generation flushes.
type Ticket struct {
	req       Request
	keys      []slotRef // parallel to req.Questions
	done      chan struct{}
	abandoned atomic.Bool

	// accumulated by whichever path resolves the ticket — Enqueue's
	// cache path or the owning scheduler's flush, never both; immutable
	// after done closes.
	res JobResult
	err error
	// spell translates verdicts into the domain spelling of the question
	// last fanned out to this ticket; only the resolving path touches it.
	spell *spelling
}

// spelling returns the ticket's MapAnswer table for domain, rebuilt only
// when domain differs from the previous call's.
func (t *Ticket) spelling(domain []string) *spelling {
	if t.spell == nil || !slices.Equal(domain, t.spell.domain) {
		t.spell = newSpelling(domain)
	}
	return t.spell
}

// answerFromCache records q as answered by the cache entry hit, spelled
// in q's own domain. It is the only place a cache hit becomes a result,
// whether the ticket resolves at Enqueue or in its generation's plan.
func (t *Ticket) answerFromCache(q crowd.Question, hit CachedAnswer) {
	t.res.CacheHits++
	t.res.Results = append(t.res.Results, engine.QuestionResult{
		Question:   q,
		Answer:     t.spelling(q.Domain).of(hit.Answer),
		Confidence: hit.Confidence,
		Votes:      hit.Votes,
	})
}

// Wait blocks until the request resolves or ctx is done; a ticket
// answered entirely from the cache is resolved when Enqueue returns, so
// Wait returns at once. A parked job surfaces ErrParked. On an engine
// failure the partial result (cache hits and surviving domain groups,
// with their attributed cost) is returned alongside the error.
func (t *Ticket) Wait(ctx context.Context) (JobResult, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return JobResult{}, ctx.Err()
	}
}

// Abandon withdraws the ticket: a still-queued ticket is skipped (and
// resolved with ErrAbandoned) at its generation's flush instead of
// publishing — and paying for — questions its job will never read.
// The cancellation path for jobs whose runner has already enqueued.
// Abandoning an admitted or resolved ticket has no effect.
func (t *Ticket) Abandon() { t.abandoned.Store(true) }

// State is the scheduler's reportable state (GET /api/scheduler).
type State struct {
	Generations        int            `json:"generations"`
	PendingJobs        int            `json:"pending_jobs"`
	DedupEnabled       bool           `json:"dedup_enabled"`
	CacheEntries       int            `json:"cache_entries"`
	CacheHits          int64          `json:"cache_hits"`
	CacheMisses        int64          `json:"cache_misses"`
	QuestionsEnqueued  int64          `json:"questions_enqueued"`
	QuestionsPublished int64          `json:"questions_published"`
	QuestionsDeduped   int64          `json:"questions_deduped"`
	BatchesPublished   int64          `json:"batches_published"`
	JobsAdmitted       int64          `json:"jobs_admitted"`
	JobsParked         int64          `json:"jobs_parked"`
	Budget             BudgetSnapshot `json:"budget"`
}

// Scheduler is the cross-query crowd scheduler. It is safe for
// concurrent use.
type Scheduler struct {
	cfg    Config
	store  *profile.Store
	cache  *AnswerCache
	ledger *Ledger

	// estHITCost and estSlots price admission estimates: one planned
	// HIT's worker fees and the real questions it carries, fixed at
	// construction from the engine template. serviceAccuracy is the
	// template's effective RequiredAccuracy.
	estHITCost      float64
	estSlots        int
	serviceAccuracy float64

	// flushMu serialises generations; mu guards the queue and stats
	// underneath it. The domain-engine map lives behind its own lock
	// (enginesMu) so building an engine mid-flush — prediction-model
	// planning included — never blocks Enqueue or State callers, which
	// only need mu.
	flushMu   sync.Mutex
	mu        sync.Mutex
	pending   []*Ticket
	stats     State
	closed    bool
	enginesMu sync.Mutex
	engines   map[string]*engine.Engine
	stopBg    context.CancelFunc
	bgDone    chan struct{}
}

// New builds a Scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Platform == nil {
		return nil, errors.New("scheduler: platform is required")
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Engine.DisableSampling && len(cfg.Golden) == 0 {
		return nil, errors.New("scheduler: golden pool required unless sampling is disabled")
	}
	if cfg.GlobalBudget < 0 {
		return nil, fmt.Errorf("scheduler: global budget must be >= 0, got %v", cfg.GlobalBudget)
	}
	if cfg.Economics == (prediction.Economics{}) {
		cfg.Economics = prediction.DefaultEconomics
	}
	if err := cfg.Economics.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:     cfg,
		store:   profile.NewStore(),
		cache:   NewAnswerCache(cfg.CacheTTL, cfg.Now),
		ledger:  NewLedger(cfg.GlobalBudget),
		engines: make(map[string]*engine.Engine),
	}
	s.stats.DedupEnabled = !cfg.DisableDedup
	// Price the admission estimate once: a planned HIT's fees and
	// capacity are fixed by the template (the prediction model's n at
	// the fallback population mean).
	probe, err := engine.New(cfg.Platform, s.store, cfg.Engine)
	if err != nil {
		return nil, err
	}
	workers, err := probe.PlanWorkers()
	if err != nil {
		workers = probe.Config().MaxWorkers
	}
	s.estHITCost = cfg.Economics.PerAssignment() * float64(workers)
	if s.estSlots = probe.RealSlots(); s.estSlots < 1 {
		s.estSlots = 1
	}
	s.serviceAccuracy = probe.Config().RequiredAccuracy
	if cfg.FlushInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopBg = cancel
		s.bgDone = make(chan struct{})
		go s.flushLoop(ctx, cfg.FlushInterval)
	}
	return s, nil
}

// Ledger exposes the budget ledger (e.g. to restore persisted spend).
func (s *Scheduler) Ledger() *Ledger { return s.ledger }

// SlotsPerHIT reports the engine template's real (non-golden) question
// slots per HIT — the natural batch quantum for callers sizing their
// enqueues, e.g. the standing-query adaptive batcher clamping to it.
func (s *Scheduler) SlotsPerHIT() int { return s.estSlots }

// HITPrice reports the configured economics' price of publishing one
// HIT (per-assignment price x planned workers): the batch cost the
// enumeration runner weighs against expected discovery yield in the
// ledger's marginal-value admission.
func (s *Scheduler) HITPrice() float64 { return s.estHITCost }

// ServiceAccuracy reports the verification level every shared question
// is held to: the engine template's effective RequiredAccuracy. Runners
// gate per-job accuracy demands against it — one verification standard
// per deployment is the price of cross-query sharing.
func (s *Scheduler) ServiceAccuracy() float64 { return s.serviceAccuracy }

// Enqueue registers a job's question set and returns its ticket. A
// request whose every question is a live cache hit, and whose job is
// admissible at a zero estimate, is resolved before Enqueue returns;
// every other request waits for the next flush generation. It never
// blocks on crowd work, nor on an in-flight generation.
func (s *Scheduler) Enqueue(req Request) (*Ticket, error) {
	if req.Job == "" {
		return nil, errors.New("scheduler: request needs a job name")
	}
	if req.Budget < 0 || math.IsNaN(req.Budget) {
		return nil, fmt.Errorf("scheduler: job budget must be >= 0, got %v", req.Budget)
	}
	if len(req.Questions) == 0 {
		return nil, errors.New("scheduler: request needs at least one question")
	}
	if err := aggregate.Validate(req.Aggregator); err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	// The default method keeps the bare canonical keys (bit-compatible
	// with every cached answer and seed derived before aggregators were
	// selectable); non-default methods get a qualified key space.
	aggPrefix := ""
	if agg := req.Aggregator; agg != "" && agg != aggregate.DefaultName {
		aggPrefix = "agg/" + agg + "/"
	}
	keys := make([]slotRef, len(req.Questions))
	ids := make(map[string]struct{}, len(req.Questions))
	// A request's questions usually share one answer set, each holding
	// its own copy: hash the set once per run of equal domains.
	var dk string
	var dkOf []string
	for i, q := range req.Questions {
		if q.ID == "" {
			return nil, errors.New("scheduler: question needs an ID")
		}
		if _, dup := ids[q.ID]; dup {
			return nil, fmt.Errorf("scheduler: duplicate question id %q in request", q.ID)
		}
		ids[q.ID] = struct{}{}
		if len(q.Domain) < 2 {
			return nil, fmt.Errorf("scheduler: question %q needs a domain of >= 2 answers", q.ID)
		}
		if i == 0 || !slices.Equal(q.Domain, dkOf) {
			dk, dkOf = aggPrefix+DomainKey(q.Domain), q.Domain
		}
		ref := slotRef{key: questionKey(dk, q.Text), dk: dk}
		ref.slotKey = ref.key
		if s.cfg.DisableDedup {
			// Job- and ID-qualified: no coalescing at all, neither
			// across jobs nor between same-content questions of one
			// request — each enqueued question is its own publish.
			ref.slotKey = ref.dk + "/" + hashStrings([]string{req.Job, q.ID, ref.key})
		}
		keys[i] = ref
	}
	t := &Ticket{req: req, keys: keys, done: make(chan struct{})}
	if s.resolveFromCache(t) {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.pending = append(s.pending, t)
	s.stats.PendingJobs = len(s.pending)
	s.stats.QuestionsEnqueued += int64(len(req.Questions))
	return t, nil
}

// resolveFromCache answers t at enqueue when every question is a live
// cache hit, doing the ledger work its generation would: SetJobLimit,
// then admission at a zero estimate (an all-hit ticket reserves nothing
// and opens no slot, so no peer's cost or admission can depend on it).
// It reports whether t resolved; on false t's result is still empty and
// t queues for the flush, which probes the cache again. It deliberately skips
// flushMu: an all-hit job must not wait out an in-flight generation.
func (s *Scheduler) resolveFromCache(t *Ticket) bool {
	if s.cfg.DisableDedup {
		return false
	}
	// Probe first, allocating nothing: the common miss stops here.
	for _, ref := range t.keys {
		if _, ok := s.cache.Get(ref.key); !ok {
			return false
		}
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false // Enqueue reports ErrClosed
	}
	s.ledger.SetJobLimit(t.req.Job, t.req.Budget)
	if !s.ledger.Admissible(t.req.Job, 0, 0, 0) {
		return false // parks at the flush, as it always has
	}
	t.res.Results = make([]engine.QuestionResult, 0, len(t.req.Questions))
	for i, q := range t.req.Questions {
		hit, ok := s.cache.Get(t.keys[i].key)
		if !ok {
			// Expired since the probe (CacheTTL > 0): the flush decides.
			t.res = JobResult{}
			return false
		}
		t.answerFromCache(q, hit)
	}
	sortResults(t.res.Results)
	n := int64(len(t.req.Questions))
	s.applyTally(genTally{enqueued: n, cacheHits: n, admitted: 1})
	close(t.done)
	return true
}

// sortResults orders a ticket's results by submitted question ID. It
// sorts indices, then moves each result once along the permutation's
// cycles: a QuestionResult is a couple of hundred bytes, and sorting the
// values themselves copies every one of them many times over.
func sortResults(rs []engine.QuestionResult) {
	order := make([]int, len(rs)) // order[i]: the result that belongs at i
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return strings.Compare(rs[a].Question.ID, rs[b].Question.ID)
	})
	for i := range order {
		if order[i] < 0 || order[i] == i {
			continue // placed by an earlier cycle, or already in place
		}
		moved := rs[i]
		for j := i; ; {
			k := order[j]
			order[j] = -1
			if k == i {
				rs[j] = moved
				break
			}
			rs[j] = rs[k]
			j = k
		}
	}
}

// slot is one unit of crowd work in a generation: a canonical question
// and the subscribers awaiting its answer.
type slot struct {
	key   string // dedup key (job-qualified when dedup is off)
	canon crowd.Question
	subs  []subscriber
}

type subscriber struct {
	ticket *Ticket
	orig   crowd.Question
}

// group is one domain's slots in a generation.
type group struct {
	domainKey string
	slots     map[string]*slot
}

// Flush runs one generation: admit pending jobs against the budget in
// priority order, resolve cache hits, coalesce the rest into shared
// per-domain batches, run them, and fan results out. Tickets enqueued
// during a flush wait for the next one. Flush returns the first engine
// error (affected tickets also carry it); budget parking is not an
// error.
func (s *Scheduler) Flush(ctx context.Context) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	tickets := s.pending
	s.pending = nil
	s.stats.PendingJobs = 0
	s.stats.Generations++
	s.mu.Unlock()
	// Abandoned tickets (cancelled jobs) resolve without publishing —
	// their questions must not be purchased for a reader that is gone.
	live := tickets[:0]
	for _, t := range tickets {
		if t.abandoned.Load() {
			t.err = ErrAbandoned
			close(t.done)
			continue
		}
		live = append(live, t)
	}
	tickets = live
	if len(tickets) == 0 {
		return nil
	}

	// Deterministic admission order: priority first, then job name.
	sort.SliceStable(tickets, func(i, j int) bool {
		if tickets[i].req.Priority != tickets[j].req.Priority {
			return tickets[i].req.Priority > tickets[j].req.Priority
		}
		return tickets[i].req.Job < tickets[j].req.Job
	})

	groups := make(map[string]*group)
	var tally genTally
	var admitted []*Ticket
	var reserved float64                    // budget promised to peers admitted this round
	jobReserved := make(map[string]float64) // ...and the per-job share of it
	for _, t := range tickets {
		// Unconditional: a Budget of 0 means unlimited and must clear
		// any cap a previous request set for this job name.
		s.ledger.SetJobLimit(t.req.Job, t.req.Budget)
		newWork, shared := s.plan(groups, t, true, &tally)
		est := s.estimate(newWork, shared)
		if !s.ledger.Admissible(t.req.Job, est, reserved, jobReserved[t.req.Job]) {
			tally.parked++
			t.err = fmt.Errorf("%w (job %q, estimated %.3f more)", ErrParked, t.req.Job, est)
			close(t.done)
			continue
		}
		// Sized once: every question resolves into exactly one result,
		// from the cache here or from the fan-out below.
		t.res.Results = make([]engine.QuestionResult, 0, len(t.req.Questions))
		s.plan(groups, t, false, &tally)
		reserved += est
		jobReserved[t.req.Job] += est
		admitted = append(admitted, t)
		tally.admitted++
	}

	firstErr := s.runGroups(ctx, groups, &tally)
	s.applyTally(tally)

	for _, t := range admitted {
		if t.err == nil && firstErr != nil && len(t.res.Results) < len(t.req.Questions) {
			// Safety net: runGroup attributes failures to the affected
			// subscribers precisely; this catches only a short-resulted
			// ticket that somehow escaped the per-batch marking.
			t.err = firstErr
		}
		sortResults(t.res.Results)
		if s.cfg.OnCharge != nil && t.res.Cost > 0 {
			s.cfg.OnCharge(t.req.Job, t.res.Cost)
		}
		s.ledger.Charge(t.req.Job, t.res.Cost)
		close(t.done)
	}
	return firstErr
}

// genTally accumulates one flush's statistics locally, applied to the
// shared stats and the counter registry in one pass at the end — the
// plan and fan-out loops must not take a lock per question.
type genTally struct {
	enqueued                    int64 // only the enqueue-time cache path sets it
	cacheHits, cacheMisses      int64
	published, deduped, batches int64
	admitted, parked            int64
}

// applyTally folds one generation's tally into the shared stats and
// the metrics registry.
func (s *Scheduler) applyTally(tl genTally) {
	s.mu.Lock()
	s.stats.QuestionsEnqueued += tl.enqueued
	s.stats.CacheHits += tl.cacheHits
	s.stats.CacheMisses += tl.cacheMisses
	s.stats.QuestionsPublished += tl.published
	s.stats.QuestionsDeduped += tl.deduped
	s.stats.BatchesPublished += tl.batches
	s.stats.JobsAdmitted += tl.admitted
	s.stats.JobsParked += tl.parked
	s.mu.Unlock()
	s.count(metrics.CounterSchedCacheHits, tl.cacheHits)
	s.count(metrics.CounterSchedCacheMisses, tl.cacheMisses)
	s.count(metrics.CounterSchedPublished, tl.published)
	s.count(metrics.CounterSchedDeduped, tl.deduped)
	s.count(metrics.CounterSchedBatches, tl.batches)
	s.count(metrics.CounterSchedParked, tl.parked)
}

// plan walks a ticket's questions against the cache and the generation's
// groups. In dryRun mode it only counts the work the ticket would add —
// fresh publishes per domain key, plus rides on slots peers already
// opened this generation (those carry a cost share too) — without
// touching any state; otherwise it records cache hits on the ticket and
// subscribes it to slots. Tickets must be planned in admission order
// for the dedup credit to be deterministic.
func (s *Scheduler) plan(groups map[string]*group, t *Ticket, dryRun bool, tl *genTally) (map[string]int, int) {
	newWork := make(map[string]int)
	shared := 0
	// planned de-duplicates within this request during the dry run,
	// when slots are not yet created: k same-keyed questions in one
	// request are one publish, and must be estimated as one.
	planned := make(map[string]struct{})
	for i, q := range t.req.Questions {
		ref := t.keys[i]
		if !s.cfg.DisableDedup {
			if hit, ok := s.cache.Get(ref.key); ok {
				if !dryRun {
					t.answerFromCache(q, hit)
					tl.cacheHits++
				}
				continue
			}
			if !dryRun {
				tl.cacheMisses++
			}
		}
		g := groups[ref.dk]
		if g == nil {
			g = &group{domainKey: ref.dk, slots: make(map[string]*slot)}
			groups[ref.dk] = g
		}
		sl, exists := g.slots[ref.slotKey]
		if !exists {
			if dryRun {
				if _, dup := planned[ref.slotKey]; !dup {
					planned[ref.slotKey] = struct{}{}
					newWork[ref.dk]++
				} else {
					shared++ // duplicate within the request rides its own first copy
				}
				continue
			}
			newWork[ref.dk]++
			canon := q
			canon.ID = CanonicalID(ref.slotKey)
			sl = &slot{key: ref.slotKey, canon: canon}
			g.slots[ref.slotKey] = sl
		} else {
			shared++ // rides a slot a peer opened this generation
		}
		if !dryRun {
			sl.subs = append(sl.subs, subscriber{ticket: t, orig: q})
		}
	}
	return newWork, shared
}

// estimate prices a ticket's admission: fresh questions are charged per
// whole HIT — ceil(n/slots) planned HITs per domain group — and rides
// on peers' already-opened slots at the full per-question rate (the
// actual charge is a share of that, but a deduplicated ride is charged
// real money and must not admit for free past a budget cap). A HIT's
// fees are per worker, not per question, so a batch far from full costs
// the same as a full one; pricing by the ceiling keeps the estimate an
// upper bound on the job's attributed spend when it ends up batching
// alone, which is exactly the case a budget cap must survive. Only
// cache hits are estimated (and charged) as free.
func (s *Scheduler) estimate(newWork map[string]int, shared int) float64 {
	est := s.estHITCost / float64(s.estSlots) * float64(shared)
	for _, n := range newWork {
		if n > 0 {
			est += s.estHITCost * float64((n+s.estSlots-1)/s.estSlots)
		}
	}
	return est
}

// groupOutcome is one domain group's drained crowd output, handed from
// the concurrent collection phase to the sequential fan-out phase.
type groupOutcome struct {
	g       *group
	ordered []*slot          // slots sorted by canonical key
	byID    map[string]*slot // canonical question ID -> slot
	perHIT  int              // real slots per HIT (chunking unit)
	results map[int]engine.StreamResult
	err     error // engine construction or stream-start failure
}

// runGroups executes every domain group and fans results out to
// subscribers, returning the first engine error (by sorted domain
// order). The crowd work — publishing HITs and draining assignments —
// runs concurrently across groups: each group owns a distinct engine,
// profile-store job and HIT namespace, so groups only meet at the
// lock-striped store and the platform's atomic accounting. Fan-out
// stays strictly sequential in sorted domain order because it mutates
// tickets shared across groups and accumulates floating-point cost,
// where order changes bits; collecting first and distributing second
// keeps results bit-equal to the old fully-serial path.
func (s *Scheduler) runGroups(ctx context.Context, groups map[string]*group, tl *genTally) error {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	outcomes := make([]*groupOutcome, len(keys))
	var wg sync.WaitGroup
	for i, dk := range keys {
		g := groups[dk]
		if len(g.slots) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			outcomes[i] = s.collectGroup(ctx, g)
		}(i, g)
	}
	wg.Wait()
	var firstErr error
	for _, oc := range outcomes {
		if oc == nil {
			continue
		}
		if err := s.distributeGroup(oc, tl); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// collectGroup publishes one domain group's unique questions (sorted by
// canonical key, so batch composition is arrival-order independent)
// through the domain's engine and drains the stream completely. It
// touches no cross-group state beyond the engine/platform/store layers,
// which are concurrency-safe, so collectGroup calls may run in
// parallel.
func (s *Scheduler) collectGroup(ctx context.Context, g *group) *groupOutcome {
	oc := &groupOutcome{g: g}
	oc.ordered = make([]*slot, 0, len(g.slots))
	for _, sl := range g.slots {
		oc.ordered = append(oc.ordered, sl)
	}
	slices.SortFunc(oc.ordered, func(a, b *slot) int { return strings.Compare(a.key, b.key) })
	questions := make([]crowd.Question, len(oc.ordered))
	oc.byID = make(map[string]*slot, len(oc.ordered))
	for i, sl := range oc.ordered {
		questions[i] = sl.canon
		oc.byID[sl.canon.ID] = sl
	}
	eng, err := s.engine(g.domainKey)
	if err != nil {
		oc.err = err
		return oc
	}
	oc.perHIT = eng.RealSlots()
	ch, err := eng.Stream(ctx, questions, s.cfg.Golden)
	if err != nil {
		oc.err = err
		return oc
	}
	// Drain completely; distribution happens later in batch-index order,
	// because completion order varies run to run and result fan-out must
	// not — floating-point cost accumulation is order-sensitive, and the
	// determinism guarantee covers every bit of a JobResult.
	oc.results = make(map[int]engine.StreamResult)
	for sr := range ch {
		oc.results[sr.Index] = sr
	}
	return oc
}

// distributeGroup fans one collected group's answers, cost shares and
// failures out to subscribers in batch-index order. A batch that failed
// marks exactly its own slots' subscribers with the error, while every
// completed batch's answers and spend are distributed regardless — the
// crowd was paid, so the ledger and the job records must say so.
// Callers invoke it sequentially, in sorted domain order.
func (s *Scheduler) distributeGroup(oc *groupOutcome, tl *genTally) error {
	failSlots := func(slots []*slot, err error) {
		for _, sl := range slots {
			for _, sub := range sl.subs {
				if sub.ticket.err == nil {
					sub.ticket.err = fmt.Errorf("scheduler: domain group %s: %w", oc.g.domainKey, err)
				}
			}
		}
	}
	if oc.err != nil {
		failSlots(oc.ordered, oc.err)
		return oc.err
	}
	ordered, byID := oc.ordered, oc.byID
	indices := make([]int, 0, len(oc.results))
	for i := range oc.results {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	perHIT := oc.perHIT
	var firstErr error
	for _, idx := range indices {
		sr := oc.results[idx]
		if sr.Err != nil {
			if firstErr == nil {
				firstErr = sr.Err
			}
			// Batch i covers the i-th chunk of the sorted slots: fail
			// exactly those subscribers, nobody else's.
			start := min(sr.Index*perHIT, len(ordered))
			end := min(start+perHIT, len(ordered))
			failSlots(ordered[start:end], sr.Err)
			continue
		}
		br := sr.Batch
		tl.batches++
		tl.published += int64(len(br.Results))
		share := 0.0
		if len(br.Results) > 0 {
			share = br.Cost / float64(len(br.Results))
		}
		for _, qr := range br.Results {
			sl, ok := byID[qr.Question.ID]
			if !ok {
				continue
			}
			if !s.cfg.DisableDedup {
				s.cache.Put(sl.key, qr.Answer, qr.Confidence, qr.Votes)
			}
			if n := len(sl.subs) - 1; n > 0 {
				tl.deduped += int64(n)
			}
			subShare := share / float64(len(sl.subs))
			for i, sub := range sl.subs {
				out := qr
				out.Question = sub.orig
				// Translate the verdict into the subscriber's own domain
				// spelling — the crowd saw the canonical form.
				spell := sub.ticket.spelling(sub.orig.Domain)
				out.Answer = spell.of(qr.Answer)
				if len(qr.Ranked) > 0 {
					ranked := make([]verification.Scored, len(qr.Ranked))
					for r, sc := range qr.Ranked {
						sc.Answer = spell.of(sc.Answer)
						ranked[r] = sc
					}
					out.Ranked = ranked
				}
				sub.ticket.res.Results = append(sub.ticket.res.Results, out)
				sub.ticket.res.Cost += subShare
				if i == 0 {
					sub.ticket.res.Published++
				} else {
					sub.ticket.res.Shared++
				}
			}
		}
	}
	return firstErr
}

// engine returns (creating if needed) the domain group's engine: named
// and seeded from the domain key alone, sharing the scheduler's profile
// store, so its HIT identities are independent of which jobs fed it.
// An aggregator-qualified domain key ("agg/<name>/<hash>") additionally
// selects that aggregation method on the group's engine — the template
// default otherwise. Engines live behind their own lock so concurrent
// group collection — and the prediction-model work inside engine.New —
// never contends with Enqueue or State.
func (s *Scheduler) engine(domainKey string) (*engine.Engine, error) {
	s.enginesMu.Lock()
	defer s.enginesMu.Unlock()
	if eng, ok := s.engines[domainKey]; ok {
		return eng, nil
	}
	cfg := s.cfg.Engine
	cfg.JobName = "sched/" + domainKey
	if rest, ok := strings.CutPrefix(domainKey, "agg/"); ok {
		if name, _, ok := strings.Cut(rest, "/"); ok {
			cfg.Aggregator = name
		}
	}
	h := fnv.New64a()
	h.Write([]byte(domainKey))
	cfg.Seed ^= h.Sum64()
	eng, err := engine.New(s.cfg.Platform, s.store, cfg)
	if err != nil {
		return nil, err
	}
	s.engines[domainKey] = eng
	return eng, nil
}

// State snapshots the scheduler's reportable state.
func (s *Scheduler) State() State {
	s.mu.Lock()
	st := s.stats
	st.PendingJobs = len(s.pending)
	s.mu.Unlock()
	st.CacheEntries = s.cache.Len()
	st.Budget = s.ledger.Snapshot()
	return st
}

// Close stops the background flush loop (if any) and rejects further
// enqueues. Pending tickets are failed with ErrClosed so no waiter
// blocks forever. Close is idempotent.
func (s *Scheduler) Close() {
	if s.stopBg != nil {
		s.stopBg()
		<-s.bgDone
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, t := range pending {
		t.err = ErrClosed
		close(t.done)
	}
}

// flushLoop drives periodic flushes for a live server.
func (s *Scheduler) flushLoop(ctx context.Context, every time.Duration) {
	defer close(s.bgDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_ = s.Flush(ctx)
			if s.cfg.CacheTTL > 0 {
				// Expired entries are otherwise only dropped when their
				// exact key is re-read; sweep so never-re-asked
				// questions don't accumulate for the server's lifetime.
				s.cache.Sweep()
			}
		}
	}
}

// count adds to a registry counter when one is attached.
func (s *Scheduler) count(name string, delta int64) {
	s.cfg.Counters.Add(name, delta)
}
