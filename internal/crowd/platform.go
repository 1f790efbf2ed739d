package crowd

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cdas/internal/core/prediction"
	"cdas/internal/randx"
	"cdas/internal/stats"
)

// Config parameterises a simulated worker population and platform.
type Config struct {
	Seed    uint64
	Workers int

	// Honest-worker accuracy is drawn from a Gaussian truncated to
	// [AccuracyLo, AccuracyHi]. The defaults reproduce the broad
	// real-accuracy histogram of Figure 14.
	AccuracyMean, AccuracySD float64
	AccuracyLo, AccuracyHi   float64
	// Approval rates are drawn from Beta(ApprovalAlpha, ApprovalBeta),
	// skewed high to reproduce Figure 14's approval-rate histogram.
	ApprovalAlpha, ApprovalBeta float64
	// MeanDelay is the mean virtual-seconds submit delay of a unit-speed
	// worker; per-worker speeds are drawn in [SpeedLo, SpeedHi].
	MeanDelay, SpeedLo, SpeedHi float64

	// Failure-injection fractions (the rest of the population is Honest).
	SpammerFraction     float64
	AdversarialFraction float64
	ColluderFraction    float64
	ColludeAnswer       string
	// NoShowFraction is the probability that an accepted assignment is
	// never submitted (the worker walks away). No-shows are never
	// delivered nor charged; a HIT published with n assignments may
	// therefore yield fewer.
	NoShowFraction float64

	// Economics is the fee schedule charged per delivered assignment.
	Economics prediction.Economics
}

// DefaultConfig returns the population used across the experiment suite:
// 500 workers whose accuracies match the paper's observed spread, with
// AMT-like skewed-high approval rates and the paper's fee schedule.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		Workers:       500,
		AccuracyMean:  0.75,
		AccuracySD:    0.13,
		AccuracyLo:    0.28,
		AccuracyHi:    0.98,
		ApprovalAlpha: 18,
		ApprovalBeta:  1.2,
		MeanDelay:     60, // one minute of virtual time per answer on average
		SpeedLo:       0.5,
		SpeedHi:       2.0,
		Economics:     prediction.DefaultEconomics,
	}
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("crowd: population must be positive, got %d", c.Workers)
	}
	if c.AccuracyLo >= c.AccuracyHi {
		return fmt.Errorf("crowd: accuracy bounds inverted [%v, %v]", c.AccuracyLo, c.AccuracyHi)
	}
	if c.ApprovalAlpha <= 0 || c.ApprovalBeta <= 0 {
		return fmt.Errorf("crowd: approval Beta parameters must be positive")
	}
	if c.MeanDelay <= 0 {
		return fmt.Errorf("crowd: mean delay must be positive, got %v", c.MeanDelay)
	}
	if c.SpeedLo <= 0 || c.SpeedHi < c.SpeedLo {
		return fmt.Errorf("crowd: speed range invalid [%v, %v]", c.SpeedLo, c.SpeedHi)
	}
	frac := c.SpammerFraction + c.AdversarialFraction + c.ColluderFraction
	if c.SpammerFraction < 0 || c.AdversarialFraction < 0 || c.ColluderFraction < 0 || frac > 1 {
		return fmt.Errorf("crowd: behaviour fractions invalid (sum %v)", frac)
	}
	if c.NoShowFraction < 0 || c.NoShowFraction >= 1 {
		return fmt.Errorf("crowd: no-show fraction must be in [0, 1), got %v", c.NoShowFraction)
	}
	return c.Economics.Validate()
}

// Platform is the simulated crowdsourcing marketplace. It is safe for
// concurrent use: the engine's pipeline publishes and drains several HITs
// at once. Its shared state — the cumulative spend and the HIT sequence
// number — is kept in atomics rather than behind a mutex: charge runs
// once per delivered assignment across every concurrent run, and a
// platform-wide lock there serialises all in-flight HITs of all engines
// sharing the platform. Fees are constant per platform (the configured
// per-assignment rate), so the CAS-accumulated float total is the same
// regardless of arrival order.
type Platform struct {
	cfg     Config
	rng     *randx.Source
	workers []*Worker

	spentBits atomic.Uint64 // float64 bits of the cumulative spend
	hitSeq    atomic.Int64
}

// NewPlatform builds the worker population and returns the platform.
func NewPlatform(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	popRNG := rng.Split("population")
	workers := make([]*Worker, cfg.Workers)
	nSpam := int(cfg.SpammerFraction * float64(cfg.Workers))
	nAdv := int(cfg.AdversarialFraction * float64(cfg.Workers))
	nCol := int(cfg.ColluderFraction * float64(cfg.Workers))
	for i := range workers {
		w := &Worker{
			ID:           fmt.Sprintf("w%04d", i),
			Accuracy:     popRNG.TruncNormal(cfg.AccuracyMean, cfg.AccuracySD, cfg.AccuracyLo, cfg.AccuracyHi),
			ApprovalRate: popRNG.Beta(cfg.ApprovalAlpha, cfg.ApprovalBeta),
			Speed:        cfg.SpeedLo + popRNG.Float64()*(cfg.SpeedHi-cfg.SpeedLo),
		}
		switch {
		case i < nSpam:
			w.Behavior = Spammer
		case i < nSpam+nAdv:
			w.Behavior = Adversarial
		case i < nSpam+nAdv+nCol:
			w.Behavior = Colluder
			w.ColludeAnswer = cfg.ColludeAnswer
		}
		workers[i] = w
	}
	// Shuffle so behaviours are not clustered by ID prefix.
	randx.Shuffle(popRNG, workers)
	return &Platform{cfg: cfg, rng: rng, workers: workers}, nil
}

// Workers returns the population (callers must not mutate).
func (p *Platform) Workers() []*Worker { return p.workers }

// Config returns the platform's configuration.
func (p *Platform) Config() Config { return p.cfg }

// MeanAccuracy reports the true mean accuracy of the population — the
// simulator's god view, used by tests and as the "known distribution"
// baseline the paper assumes for the prediction model.
func (p *Platform) MeanAccuracy() float64 {
	accs := make([]float64, len(p.workers))
	for i, w := range p.workers {
		accs[i] = w.Accuracy
	}
	return stats.Mean(accs)
}

// TotalSpent reports the cumulative fees charged for delivered
// assignments across all HITs.
func (p *Platform) TotalSpent() float64 {
	return math.Float64frombits(p.spentBits.Load())
}

// charge accounts one delivered assignment's fee with a lock-free CAS
// loop on the float's bits.
func (p *Platform) charge(fee float64) {
	for {
		old := p.spentBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + fee)
		if p.spentBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HIT is a published human-intelligence task: a batch of questions every
// assigned worker answers in full.
type HIT struct {
	ID        string
	Title     string
	Questions []Question
}

// Answer is a worker's answer to one question of a HIT.
type Answer struct {
	QuestionID string
	Value      string
}

// Assignment is one worker's completed copy of a HIT.
type Assignment struct {
	HITID  string
	Worker *Worker
	// Answers is parallel to the published HIT's Questions: Answers[p]
	// answers Questions[p]. The engine relies on that to read each answer
	// by position (AnswerAt). A platform that returns answers in another
	// order stays correct but pays AnswerTo's scan for every read.
	Answers    []Answer
	SubmitTime float64 // virtual seconds after publication
}

// AnswerTo returns this assignment's answer to the given question ID,
// or "" if the HIT had no such question.
func (a Assignment) AnswerTo(questionID string) string {
	for _, ans := range a.Answers {
		if ans.QuestionID == questionID {
			return ans.Value
		}
	}
	return ""
}

// AnswerAt returns this assignment's answer to the question published at
// position p of the HIT, whose ID is questionID. It reads Answers[p] when
// that entry carries questionID and falls back to AnswerTo otherwise. For
// the first position carrying questionID — every position, in a HIT whose
// question IDs are unique — it returns exactly what AnswerTo does.
func (a Assignment) AnswerAt(p int, questionID string) string {
	if p < len(a.Answers) && a.Answers[p].QuestionID == questionID {
		return a.Answers[p].Value
	}
	return a.AnswerTo(questionID)
}

// Publication errors.
var (
	ErrNoQuestions   = errors.New("crowd: HIT has no questions")
	ErrNotEnoughWork = errors.New("crowd: not enough workers in the population")
)

// Publish broadcasts the HIT to the population and returns a Run that
// delivers n assignments asynchronously (in virtual time). The n workers
// are drawn uniformly without replacement — AMT's "any candidate worker
// can accept" semantics (Section 3.1).
func (p *Platform) Publish(hit HIT, n int) (*Run, error) {
	if len(hit.Questions) == 0 {
		return nil, ErrNoQuestions
	}
	for _, q := range hit.Questions {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("crowd: assignments must be positive, got %d", n)
	}
	if n > len(p.workers) {
		return nil, fmt.Errorf("%w (need %d, have %d)", ErrNotEnoughWork, n, len(p.workers))
	}
	seq := p.hitSeq.Add(1)
	// A caller-supplied ID seeds the run from the ID alone, so the draw is
	// a pure function of (platform seed, hit ID) — concurrent publishers
	// get identical worker samples regardless of publish order, which is
	// what keeps the engine's pipeline deterministic. Auto-assigned IDs
	// keep the legacy sequence-based label.
	label := "hit/" + hit.ID
	if hit.ID == "" {
		hit.ID = fmt.Sprintf("HIT-%06d", seq)
		label = fmt.Sprintf("hit/%s/%d", hit.ID, seq)
	}
	runRNG := p.rng.Split(label)

	idx := runRNG.SampleWithoutReplacement(len(p.workers), n)
	pending := make([]Assignment, 0, n)
	for _, wi := range idx {
		w := p.workers[wi]
		if p.cfg.NoShowFraction > 0 && runRNG.Bool(p.cfg.NoShowFraction) {
			continue // accepted but never submitted
		}
		ansRNG := runRNG.Split("answers/" + w.ID)
		answers := make([]Answer, len(hit.Questions))
		for qi, q := range hit.Questions {
			answers[qi] = Answer{QuestionID: q.ID, Value: w.Answer(ansRNG, q)}
		}
		pending = append(pending, Assignment{
			HITID:      hit.ID,
			Worker:     w,
			Answers:    answers,
			SubmitTime: runRNG.Exp(w.Speed / p.cfg.MeanDelay),
		})
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].SubmitTime < pending[j].SubmitTime })
	return &Run{platform: p, hit: hit, pending: pending}, nil
}

// Run is one HIT's lifecycle: assignments are delivered in submit-time
// order via Next, and Cancel forgoes (and does not charge for) anything
// still outstanding. A Run is safe for concurrent use — in particular a
// concurrent Cancel is honoured by the next Next call, and a cancelled
// run never charges another fee.
type Run struct {
	platform *Platform
	hit      HIT
	pending  []Assignment

	mu        sync.Mutex // guards delivered, cancelled and charged
	delivered int
	cancelled bool
	charged   float64
}

// HIT returns the published HIT.
func (r *Run) HIT() HIT { return r.hit }

// Next delivers the next assignment in arrival order. ok is false when the
// run is exhausted or cancelled. Each delivered assignment is charged at
// the platform's per-assignment fee, exactly once.
func (r *Run) Next() (Assignment, bool) {
	r.mu.Lock()
	if r.cancelled || r.delivered >= len(r.pending) {
		r.mu.Unlock()
		return Assignment{}, false
	}
	a := r.pending[r.delivered]
	r.delivered++
	fee := r.platform.cfg.Economics.PerAssignment()
	r.charged += fee
	r.mu.Unlock()
	r.platform.charge(fee)
	return a, true
}

// Cancel stops the run: outstanding assignments are never delivered nor
// charged (the paper's footnote 3). Cancelling twice is a no-op.
func (r *Run) Cancel() {
	r.mu.Lock()
	r.cancelled = true
	r.mu.Unlock()
}

// Cancelled reports whether the run was cancelled.
func (r *Run) Cancelled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelled
}

// Delivered reports how many assignments have been delivered.
func (r *Run) Delivered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delivered
}

// Outstanding reports how many assignments remain undelivered (0 after
// Cancel).
func (r *Run) Outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancelled {
		return 0
	}
	return len(r.pending) - r.delivered
}

// Charged reports the fees accrued by this run so far.
func (r *Run) Charged() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.charged
}

// Drain delivers every remaining assignment and returns them.
func (r *Run) Drain() []Assignment {
	out := make([]Assignment, 0, r.Outstanding())
	for {
		a, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}
