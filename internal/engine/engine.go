// Package engine implements the CDAS crowdsourcing engine (Section 2.1 and
// Algorithm 1 of the paper): the component that turns buffered analytics
// questions into HITs, plans worker counts with the prediction model,
// estimates worker accuracy from embedded golden questions, verifies
// answers with the probability-based model, and — in online mode —
// terminates HITs early once results are stable.
//
// Per-HIT flow (Algorithm 1 plus Sections 3.3 and 4.2):
//
//  1. Batch questions into a HIT of Config.HITSize slots, injecting
//     ceil(α·B) golden questions (Section 3.3).
//  2. n = predictWorkerNumber(C) from the prediction model, with μ taken
//     from the profile store once sampling has warmed up (fallback: the
//     configured population estimate).
//  3. Publish and consume assignments in arrival order. Each arriving
//     assignment is first scored on the golden questions, updating the
//     worker's profile, so their vote weight reflects the freshest
//     estimate; votes for real questions then flow into per-question
//     online verifiers.
//  4. After every arrival the termination strategy is evaluated over all
//     real questions; when every question's leader is safe, the HIT is
//     cancelled and the outstanding assignments are never paid for.
//  5. Answers are accepted by maximum confidence (Equation 4).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cdas/internal/core/aggregate"
	"cdas/internal/core/online"
	"cdas/internal/core/prediction"
	"cdas/internal/core/sampling"
	"cdas/internal/core/verification"
	"cdas/internal/crowd"
	"cdas/internal/privacy"
	"cdas/internal/profile"
	"cdas/internal/randx"
)

// Run abstracts one published HIT's asynchronous assignment stream.
// *crowd.Run satisfies it; a production deployment would implement it over
// the real AMT API.
type Run interface {
	Next() (crowd.Assignment, bool)
	Cancel()
	Charged() float64
	HIT() crowd.HIT
}

// Platform abstracts the crowdsourcing marketplace.
type Platform interface {
	Publish(hit crowd.HIT, n int) (Run, error)
}

// CrowdPlatform adapts *crowd.Platform (the simulator) to the engine's
// Platform interface.
type CrowdPlatform struct{ *crowd.Platform }

// Publish implements Platform.
func (p CrowdPlatform) Publish(hit crowd.HIT, n int) (Run, error) {
	return p.Platform.Publish(hit, n)
}

// Config tunes the engine. Zero fields take the documented defaults.
type Config struct {
	// JobName keys worker profiles; accuracies are per job kind.
	JobName string
	// RequiredAccuracy is the query's C. Default 0.9.
	RequiredAccuracy float64
	// SamplingRate is α, the golden fraction per HIT. Default 0.2.
	// Set DisableSampling to run without golden questions instead of
	// setting this to zero (a zero value takes the default).
	SamplingRate float64
	// DisableSampling turns golden-question injection off entirely;
	// worker votes then carry FallbackAccuracy (or prior profiles).
	DisableSampling bool
	// HITSize is B, the questions per HIT. Default 100.
	HITSize int
	// Strategy picks the early-termination condition. Default Never
	// (process all planned answers), matching the paper's offline mode.
	Strategy online.Strategy
	// FallbackAccuracy is the population-mean estimate used for workers
	// without profiles and for prediction before sampling warms up.
	// Default 0.7.
	FallbackAccuracy float64
	// MaxWorkers caps the planned per-HIT assignment count. Default 51.
	MaxWorkers int
	// Privacy, when set, sanitises question text and filters blocked
	// workers' answers.
	Privacy *privacy.Manager
	// RepostShortfall republishes under-answered HITs (no-show workers)
	// until the planned assignment count is reached, up to maxReposts
	// supplemental HITs.
	RepostShortfall bool
	// MaxInflightHITs bounds how many HITs the pipeline keeps published
	// and draining at once (Stream / ProcessAllContext). Default 1 —
	// the paper's one-HIT-at-a-time offline mode; raise it to overlap
	// HIT lifetimes on a platform where assignments take real time to
	// arrive. Results are deterministic at any value: every HIT draws
	// from a seed split off the engine seed by batch index, never from
	// its neighbours' progress.
	MaxInflightHITs int
	// Aggregator names the answer-aggregation method from the
	// aggregate registry. Default aggregate.DefaultName ("cdas"), the
	// paper's probability-based verification model — the only method
	// that supports online early termination (Strategy). Batch-only
	// methods run once per HIT when its assignment stream drains.
	Aggregator string
	// QualityFeedback, when set, records each worker's agreement with
	// the accepted answers into the profile store after every HIT, so
	// vote weights improve online even without golden questions. Off by
	// default: the paper's model learns from golden outcomes only.
	QualityFeedback bool
	// Seed drives the golden-question placement shuffle.
	Seed uint64
}

// maxReposts bounds the supplemental HITs per batch.
const maxReposts = 2

func (c Config) withDefaults() Config {
	if c.JobName == "" {
		c.JobName = "default"
	}
	if c.RequiredAccuracy == 0 {
		c.RequiredAccuracy = 0.9
	}
	if c.DisableSampling {
		c.SamplingRate = 0
	} else if c.SamplingRate == 0 {
		c.SamplingRate = sampling.DefaultRate
	}
	if c.HITSize == 0 {
		c.HITSize = sampling.DefaultHITSize
	}
	if c.FallbackAccuracy == 0 {
		c.FallbackAccuracy = 0.7
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 51
	}
	if c.MaxInflightHITs == 0 {
		c.MaxInflightHITs = 1
	}
	if c.Aggregator == "" {
		c.Aggregator = aggregate.DefaultName
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.RequiredAccuracy <= 0 || c.RequiredAccuracy >= 1 || math.IsNaN(c.RequiredAccuracy) {
		return fmt.Errorf("engine: required accuracy must be in (0,1), got %v", c.RequiredAccuracy)
	}
	if c.SamplingRate < 0 || c.SamplingRate >= 1 {
		return fmt.Errorf("engine: sampling rate must be in [0,1), got %v", c.SamplingRate)
	}
	if c.HITSize <= 0 {
		return fmt.Errorf("engine: HIT size must be positive, got %d", c.HITSize)
	}
	if c.FallbackAccuracy <= 0.5 || c.FallbackAccuracy >= 1 {
		return fmt.Errorf("engine: fallback accuracy must be in (0.5,1), got %v", c.FallbackAccuracy)
	}
	if c.MaxWorkers < 1 {
		return fmt.Errorf("engine: max workers must be >= 1, got %d", c.MaxWorkers)
	}
	if c.MaxInflightHITs < 1 {
		return fmt.Errorf("engine: max in-flight HITs must be >= 1, got %d", c.MaxInflightHITs)
	}
	if err := aggregate.Validate(c.Aggregator); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// accuracyPseudoCounts is the prior strength of the vote-weight
// estimates: the first few golden outcomes move a worker's weight only
// moderately away from the population mean.
const accuracyPseudoCounts = 4

// Engine is the crowdsourcing engine. It is safe for concurrent use: the
// pipeline (Stream, ProcessAllContext) publishes and drains several HITs
// at once, and independent goroutines may call ProcessBatch concurrently.
type Engine struct {
	platform Platform
	store    *profile.Store
	cfg      Config
	agg      aggregate.Aggregator

	// mu guards rng, the engine-owned draw stream of the sequential path
	// (ProcessBatch golden placement). Pipeline batches never draw from
	// it — each splits a child source keyed by pipeline and batch index,
	// so concurrent HITs cannot perturb each other's randomness.
	mu  sync.Mutex
	rng *randx.Source

	// pipelineSeq numbers Stream/ProcessAllContext invocations so their
	// HIT IDs and derived seeds stay unique across an engine's lifetime.
	pipelineSeq atomic.Uint64
}

// New constructs an Engine. store may be nil, in which case a fresh
// profile store is created (no history).
func New(platform Platform, store *profile.Store, cfg Config) (*Engine, error) {
	if platform == nil {
		return nil, errors.New("engine: platform is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if store == nil {
		store = profile.NewStore()
	}
	agg, ok := aggregate.Get(cfg.Aggregator)
	if !ok {
		// Unreachable after Validate; kept as a guard.
		return nil, fmt.Errorf("engine: unknown aggregator %q", cfg.Aggregator)
	}
	return &Engine{
		platform: platform,
		store:    store,
		cfg:      cfg,
		agg:      agg,
		rng:      randx.New(cfg.Seed ^ 0xcda5cda5),
	}, nil
}

// Aggregator returns the engine's effective aggregation method name.
func (e *Engine) Aggregator() string { return e.cfg.Aggregator }

// Store exposes the profile store (e.g. for persistence).
func (e *Engine) Store() *profile.Store { return e.store }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// MeanAccuracy returns the engine's current population-mean estimate: the
// profile store's mean once at least minProfiles workers are known,
// otherwise the configured fallback.
func (e *Engine) MeanAccuracy() float64 {
	const minProfiles = 5
	if mu, ok := e.store.MeanAccuracy(e.cfg.JobName); ok && len(e.store.Workers(e.cfg.JobName)) >= minProfiles {
		// A usable μ must stay above 1/2 for the prediction model.
		if mu > 0.5 {
			return mu
		}
	}
	return e.cfg.FallbackAccuracy
}

// RealSlots reports how many real (non-golden) questions fit in one HIT
// under the engine's size and sampling configuration — the chunking unit
// of ProcessAll/Stream, which upstream schedulers use to price a batch.
func (e *Engine) RealSlots() int {
	return e.cfg.HITSize - sampling.GoldenCount(e.cfg.HITSize, e.cfg.SamplingRate)
}

// PlanWorkers runs the prediction model for the engine's required
// accuracy: the minimum odd n with E[P_{n/2}] >= C, capped at MaxWorkers.
func (e *Engine) PlanWorkers() (int, error) {
	model, err := prediction.New(e.MeanAccuracy())
	if err != nil {
		return 0, err
	}
	n, err := model.RequiredWorkers(e.cfg.RequiredAccuracy)
	if err != nil {
		return 0, err
	}
	if n > e.cfg.MaxWorkers {
		n = e.cfg.MaxWorkers
		if n%2 == 0 {
			n--
		}
	}
	return n, nil
}

// QuestionResult is the engine's verdict for one real question.
type QuestionResult struct {
	Question   crowd.Question
	Answer     string  // accepted answer (highest confidence)
	Confidence float64 // the aggregator's confidence in the accepted answer
	Ranked     []verification.Scored
	Votes      int // votes actually received for this question
	// Quality is the share of this question's voters that agreed with
	// the accepted answer — a per-result agreement signal independent of
	// the aggregator's own confidence scale. Zero when unanswered.
	Quality float64
}

// BatchResult reports one processed HIT.
type BatchResult struct {
	HITID           string
	PlannedWorkers  int     // n from the prediction model
	UsedWorkers     int     // assignments consumed before termination
	Cost            float64 // fees charged for this HIT (reposts included)
	TerminatedEarly bool
	GoldenCount     int
	// Reposts counts supplemental HITs published to cover no-show
	// shortfalls (Config.RepostShortfall).
	Reposts int
	Results []QuestionResult
	// WorkerQuality is the aggregator's per-worker quality estimate for
	// this HIT: agreement-with-aggregate for the voting methods, EM
	// accuracy for Dawid–Skene, skill for Wawa and Zero-Based Skill.
	WorkerQuality map[string]float64
}

// ProcessBatch runs one HIT over up to HITSize questions (minus golden
// slots). golden supplies ground-truth questions for accuracy sampling;
// it may be empty only when SamplingRate is 0. It returns an error if
// real is empty or exceeds the available slots.
func (e *Engine) ProcessBatch(real, golden []crowd.Question) (BatchResult, error) {
	return e.ProcessBatchContext(context.Background(), real, golden)
}

// ProcessBatchContext is ProcessBatch with cancellation: when ctx is
// cancelled mid-HIT the published run is cancelled on the platform
// (outstanding assignments are never charged) and ctx's error is returned.
func (e *Engine) ProcessBatchContext(ctx context.Context, real, golden []crowd.Question) (BatchResult, error) {
	n, err := e.PlanWorkers()
	if err != nil {
		return BatchResult{}, err
	}
	return e.runBatch(ctx, batchJob{
		real:    real,
		golden:  golden,
		workers: n,
		meanAcc: e.MeanAccuracy(),
		snap:    e.store.Snapshot(e.cfg.JobName),
	})
}

// goldenTally is one worker's golden-question record within a single HIT.
type goldenTally struct{ correct, total int }

// batchJob is one HIT's work order for runBatch.
type batchJob struct {
	// hitID, when non-empty, names the published HIT so the platform's
	// worker draw is a pure function of the ID (pipeline batches). Empty
	// lets the platform assign a sequential ID (sequential path).
	hitID string
	// rng owns the golden placement draws. nil means the engine-owned
	// stream, taken under e.mu (sequential path).
	rng     *randx.Source
	real    []crowd.Question
	golden  []crowd.Question
	workers int              // planned assignment count n
	meanAcc float64          // population-mean estimate for verifier priors
	snap    profile.Snapshot // vote-weight baseline (pre-HIT history)
}

// runBatch executes one HIT end to end: assemble, publish, drain the
// assignment stream, optionally repost shortfalls, and rank answers.
// Vote weights combine job.snap with the HIT's own golden tally, so the
// outcome never depends on what concurrent HITs write to the shared
// profile store mid-flight.
func (e *Engine) runBatch(ctx context.Context, job batchJob) (BatchResult, error) {
	real, golden := job.real, job.golden
	if len(real) == 0 {
		return BatchResult{}, errors.New("engine: no questions to process")
	}
	nGoldenNeeded := sampling.GoldenCount(e.cfg.HITSize, e.cfg.SamplingRate)
	if len(real) > e.cfg.HITSize-nGoldenNeeded {
		return BatchResult{}, fmt.Errorf("engine: %d questions exceed %d real slots per HIT",
			len(real), e.cfg.HITSize-nGoldenNeeded)
	}
	// Scale the golden count down for partial batches, keeping the α
	// ratio, but keep at least one golden question when sampling is on.
	b := len(real) + int(math.Ceil(e.cfg.SamplingRate/(1-e.cfg.SamplingRate)*float64(len(real))))
	nGolden := b - len(real)
	if e.cfg.SamplingRate > 0 && nGolden == 0 {
		nGolden = 1
	}
	if nGolden > len(golden) {
		return BatchResult{}, fmt.Errorf("engine: need %d golden questions, have %d", nGolden, len(golden))
	}

	hit, err := func() (hitLayout, error) {
		rng := job.rng
		if rng == nil {
			e.mu.Lock()
			defer e.mu.Unlock()
			rng = e.rng
		}
		return e.layoutHIT(rng, real, golden, nGolden)
	}()
	if err != nil {
		return BatchResult{}, err
	}
	questions, gold, reals := hit.questions, hit.gold, hit.reals

	n := job.workers
	run, err := e.platform.Publish(crowd.HIT{ID: job.hitID, Title: e.cfg.JobName, Questions: questions}, n)
	if err != nil {
		return BatchResult{}, err
	}

	// The HIT's vote store: question i (in ID order) keeps its votes, in
	// arrival order, in votes[i], a window of capacity n on one slab. Each
	// consumed assignment adds exactly one vote to every question, so no
	// window ever grows past n. Incremental aggregators fold into per-
	// question folders that append to the same windows (the CDAS folder
	// wraps its online verifier, m = |domain| — the engine knows R for
	// each question it generated); batch-only aggregators run once over
	// the windows when the stream drains.
	slab := make([]aggregate.Vote, len(reals)*n)
	votes := make([][]aggregate.Vote, len(reals))
	for i := range votes {
		votes[i] = slab[i*n : i*n : (i+1)*n]
	}
	inc, isInc := e.agg.(aggregate.Incremental)
	var folders []aggregate.Folder
	if isInc {
		folders = make([]aggregate.Folder, len(reals))
		for i, r := range reals {
			f, err := inc.NewFolder(aggregate.Spec{Planned: n, M: len(questions[r.pos].Domain), MeanAccuracy: job.meanAcc, Votes: votes[i]})
			if err != nil {
				return BatchResult{}, err
			}
			folders[i] = f
		}
	}

	res := BatchResult{HITID: run.HIT().ID, PlannedWorkers: n, GoldenCount: nGolden}
	tallies := make(map[string]goldenTally, n)
	voters := make([]string, 0, n) // worker of each consumed assignment
	consume := func(run Run) error {
		defer func() { res.Cost += run.Charged() }()
		for {
			if err := ctx.Err(); err != nil {
				// Cancelled mid-HIT: forgo (and never pay for) the
				// outstanding assignments, exactly once.
				run.Cancel()
				return err
			}
			a, ok := run.Next()
			if !ok {
				return nil
			}
			if e.cfg.Privacy.Blocked(a.Worker.ID) {
				continue // answers from barred workers are discarded (still paid)
			}
			res.UsedWorkers++
			voters = append(voters, a.Worker.ID)
			// Score golden questions first so this worker's vote weight
			// uses the freshest estimate (Algorithm 4). Outcomes go to
			// the shared store (history for later pipelines) and to the
			// HIT-local tally the weight is actually computed from.
			t := tallies[a.Worker.ID]
			for _, g := range gold {
				correct := a.AnswerAt(g.pos, g.id) == g.truth
				e.store.Record(e.cfg.JobName, a.Worker.ID, correct)
				t.total++
				if correct {
					t.correct++
				}
			}
			tallies[a.Worker.ID] = t
			// Vote weights shrink towards the population mean until enough
			// golden evidence accumulates; see profile.ShrunkAccuracy.
			acc := job.snap.ShrunkAccuracy(a.Worker.ID, t.correct, t.total, e.cfg.FallbackAccuracy, accuracyPseudoCounts)
			for i, r := range reals {
				vote := aggregate.Vote{
					Worker:   a.Worker.ID,
					Accuracy: acc,
					Answer:   a.AnswerAt(r.pos, r.id),
				}
				if isInc {
					if err := folders[i].Fold(vote); err != nil {
						return fmt.Errorf("engine: question %s: %w", r.id, err)
					}
				} else if len(votes[i]) == n {
					return fmt.Errorf("engine: question %s: %w", r.id, aggregate.ErrOverfilled)
				} else {
					votes[i] = append(votes[i], vote)
				}
			}
			if isInc && e.cfg.Strategy != online.Never && allTerminated(folders, e.cfg.Strategy) {
				run.Cancel()
				res.TerminatedEarly = true
				return nil
			}
		}
	}
	if err := consume(run); err != nil {
		return BatchResult{}, err
	}
	// Repost on shortfall: no-show workers may leave the HIT under-
	// answered; republish the same questions for the missing assignment
	// count (a fresh HIT on the platform, as a requester would).
	if e.cfg.RepostShortfall {
		for round := 0; round < maxReposts && !res.TerminatedEarly && res.UsedWorkers < n; round++ {
			repostID := ""
			if job.hitID != "" {
				repostID = fmt.Sprintf("%s/repost-%d", job.hitID, round+1)
			}
			rerun, err := e.platform.Publish(crowd.HIT{
				ID:        repostID,
				Title:     e.cfg.JobName,
				Questions: questions,
			}, n-res.UsedWorkers)
			if err != nil {
				break // platform exhausted; proceed with what we have
			}
			res.Reposts++
			if err := consume(rerun); err != nil {
				return BatchResult{}, err
			}
		}
	}

	// The incremental aggregators already hold their verdicts, and their
	// folders appended the votes to the windows; batch-only aggregators
	// run once over the windows now.
	var batchOut aggregate.Result
	if isInc {
		for i, f := range folders {
			votes[i] = votes[i][:f.Received()]
		}
	} else {
		batch := aggregate.Batch{
			Questions:    make([]aggregate.Question, len(reals)),
			Votes:        make(map[string][]aggregate.Vote, len(reals)),
			MeanAccuracy: job.meanAcc,
		}
		for i, r := range reals {
			batch.Questions[i] = aggregate.Question{ID: r.id, M: len(questions[r.pos].Domain)}
			batch.Votes[r.id] = votes[i]
		}
		out, err := e.agg.Aggregate(batch)
		if err != nil {
			return BatchResult{}, fmt.Errorf("engine: %w", err)
		}
		batchOut = out
	}
	res.Results = make([]QuestionResult, len(reals))
	for i, r := range reals {
		qr := &res.Results[i]
		qr.Question, qr.Votes = questions[r.pos], len(votes[i])
		var verdict aggregate.Verdict
		ok := false
		if isInc {
			if v, err := folders[i].Verdict(); err == nil {
				verdict, ok = v, true
			}
		} else {
			verdict, ok = batchOut.Verdicts[r.id]
		}
		if ok {
			qr.Answer = verdict.Answer
			qr.Confidence = verdict.Confidence
			qr.Ranked = verdict.Ranked
			agree := 0
			for _, v := range votes[i] {
				if v.Answer == verdict.Answer {
					agree++
				}
			}
			if qr.Votes > 0 {
				qr.Quality = float64(agree) / float64(qr.Votes)
			}
		}
	}
	if !isInc && batchOut.WorkerQuality != nil {
		res.WorkerQuality = batchOut.WorkerQuality
	} else {
		res.WorkerQuality = agreementQuality(res.Results, votes, voters)
	}
	if e.cfg.QualityFeedback {
		// Feed each worker's agreement with the accepted answers back
		// into the profile store, so vote weights improve online even
		// without golden questions. Iterate results in sorted order and
		// votes in arrival order — recording is order-sensitive only in
		// that it must be deterministic.
		for i, qr := range res.Results {
			if qr.Answer == "" {
				continue
			}
			for _, v := range votes[i] {
				e.store.Record(e.cfg.JobName, v.Worker, v.Answer == qr.Answer)
			}
		}
	}
	return res, nil
}

// goldenSlot is one golden question of a published HIT: what it is
// scored against and where it sits.
type goldenSlot struct {
	id, truth string
	pos       int // first position publishing id
}

// realSlot is one real question of a published HIT: its ID and its
// position in the published question list.
type realSlot struct {
	id  string
	pos int
}

// hitLayout is one HIT as published: its shuffled, sanitised question
// list, the golden questions (one per distinct ID) and the real
// questions in ascending ID order — the order of the batch's results.
type hitLayout struct {
	questions []crowd.Question
	gold      []goldenSlot
	reals     []realSlot
}

// layoutHIT assembles one HIT: it samples nGolden golden questions,
// rejects duplicate or golden-colliding real IDs, shuffles golden and
// real questions together and sanitises them, drawing from rng exactly
// as sampling then shuffling the question list itself would.
// Sanitisation happens before anything is stored or published, so
// neither the platform nor the engine's own results ever carry unmasked
// text. A golden ID sampled twice is scored once, against the truth of
// its last copy and the answer at its first position.
func (e *Engine) layoutHIT(rng *randx.Source, real, golden []crowd.Question, nGolden int) (hitLayout, error) {
	// The unshuffled list is the sampled golden questions, then real:
	// listed index k < len(sampled) is golden[sampled[k]].
	sampled := rng.SampleWithoutReplacement(len(golden), nGolden)
	gold := make([]goldenSlot, 0, len(sampled))
	goldOf := make([]int, len(sampled)) // listed index -> gold index
	goldAt := make(map[string]int, len(sampled))
	for k, idx := range sampled {
		q := golden[idx]
		if g, dup := goldAt[q.ID]; dup {
			gold[g].truth = q.Truth
			goldOf[k] = g
			continue
		}
		goldAt[q.ID] = len(gold)
		goldOf[k] = len(gold)
		gold = append(gold, goldenSlot{id: q.ID, truth: q.Truth, pos: -1})
	}
	// Real questions in ID order; pos holds the listed index until the
	// shuffle below places it.
	reals := make([]realSlot, len(real))
	for i, q := range real {
		reals[i] = realSlot{id: q.ID, pos: len(sampled) + i}
	}
	slices.SortStableFunc(reals, func(a, b realSlot) int { return strings.Compare(a.id, b.id) })
	for i, r := range reals {
		if i > 0 && r.id == reals[i-1].id {
			return hitLayout{}, fmt.Errorf("engine: duplicate question id %q", r.id)
		}
		if _, clash := goldAt[r.id]; clash {
			return hitLayout{}, fmt.Errorf("engine: question id %q collides with a golden question", r.id)
		}
	}
	// Shuffle a permutation rather than the list: the draws depend only
	// on the length, so the published order is the one shuffling the
	// list would give, and the permutation says where everything went.
	perm := make([]int, len(sampled)+len(real))
	for i := range perm {
		perm[i] = i
	}
	randx.Shuffle(rng, perm)
	questions := make([]crowd.Question, len(perm))
	at := make([]int, len(perm)) // listed index -> published position
	for p, k := range perm {
		var q crowd.Question
		if k < len(sampled) {
			q = golden[sampled[k]]
			if g := &gold[goldOf[k]]; g.pos < 0 {
				g.pos = p
			}
		} else {
			q = real[k-len(sampled)]
		}
		if e.cfg.Privacy != nil {
			q = e.cfg.Privacy.SanitizeQuestion(q)
		}
		questions[p] = q
		at[k] = p
	}
	for i := range reals {
		reals[i].pos = at[reals[i].pos]
	}
	return hitLayout{questions: questions, gold: gold, reals: reals}, nil
}

// agreementQuality is the per-HIT worker quality of the voting methods:
// the share of each worker's votes agreeing with the accepted answers.
// votes[i] holds results[i]'s votes, and vote k of every question came
// from voters[k], the HIT's k-th consumed assignment: shares are tallied
// per assignment, then merged per worker (a repost may draw one again).
func agreementQuality(results []QuestionResult, votes [][]aggregate.Vote, voters []string) map[string]float64 {
	agree, total := make([]int, len(voters)), make([]int, len(voters))
	for i, qr := range results {
		if qr.Answer == "" {
			continue
		}
		for k, v := range votes[i] {
			total[k]++
			if v.Answer == qr.Answer {
				agree[k]++
			}
		}
	}
	type share struct{ agree, total int }
	byWorker := make(map[string]share, len(voters))
	for k, w := range voters {
		if total[k] > 0 {
			s := byWorker[w]
			byWorker[w] = share{s.agree + agree[k], s.total + total[k]}
		}
	}
	if len(byWorker) == 0 {
		return nil
	}
	out := make(map[string]float64, len(byWorker))
	for w, s := range byWorker {
		out[w] = float64(s.agree) / float64(s.total)
	}
	return out
}

// chunk splits real questions into HIT-sized batches (the per-HIT real
// slot count after golden injection).
func (e *Engine) chunk(real []crowd.Question) ([][]crowd.Question, error) {
	if len(real) == 0 {
		return nil, errors.New("engine: no questions to process")
	}
	perHIT := e.cfg.HITSize - sampling.GoldenCount(e.cfg.HITSize, e.cfg.SamplingRate)
	if perHIT <= 0 {
		return nil, fmt.Errorf("engine: sampling rate %v leaves no real slots", e.cfg.SamplingRate)
	}
	chunks := make([][]crowd.Question, 0, (len(real)+perHIT-1)/perHIT)
	for start := 0; start < len(real); start += perHIT {
		end := start + perHIT
		if end > len(real) {
			end = len(real)
		}
		chunks = append(chunks, real[start:end])
	}
	return chunks, nil
}

// ProcessAll chunks questions into HIT-sized batches and processes each.
// With MaxInflightHITs > 1 the batches run through the concurrent
// pipeline (see Stream); at the default of 1 they run strictly in
// sequence, re-reading the profile store between batches as the paper's
// offline mode does.
func (e *Engine) ProcessAll(real, golden []crowd.Question) ([]BatchResult, error) {
	if e.cfg.MaxInflightHITs > 1 {
		return e.ProcessAllContext(context.Background(), real, golden)
	}
	chunks, err := e.chunk(real)
	if err != nil {
		return nil, err
	}
	var out []BatchResult
	for _, qs := range chunks {
		br, err := e.ProcessBatch(qs, golden)
		if err != nil {
			return out, err
		}
		out = append(out, br)
	}
	return out, nil
}

// terminator is the optional early-termination face of a Folder. Only
// the CDAS model's folder implements it (the Section 4.2.2 bounds are
// specific to the probability model); folders without it never allow
// early termination.
type terminator interface {
	Terminated(online.Strategy) bool
}

func allTerminated(fs []aggregate.Folder, s online.Strategy) bool {
	for _, f := range fs {
		t, ok := f.(terminator)
		if !ok || !t.Terminated(s) {
			return false
		}
	}
	return true
}
