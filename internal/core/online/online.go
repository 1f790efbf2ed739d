// Package online implements CDAS's online query processing (Section 4.2 of
// the paper): as workers submit answers asynchronously, the engine keeps a
// running approximate result with a confidence for every answer, and may
// terminate the HIT early — forgoing (and not paying for) the outstanding
// answers — once the leading answer can no longer be overtaken.
//
// Theorem 6 shows the confidence of a partial observation Ω′ is computed by
// the same Equation 4 used after completion, so the Verifier simply re-ranks
// after every arrival. For early termination the engine compares, per
// Section 4.2.2, the minimum possible final confidence of the current best
// answer r1 against the maximum possible final confidence of the runner-up
// r2 under the adversarial completion s = "every one of the n−n′ outstanding
// workers votes r2". The unknown accuracies of the outstanding workers are
// approximated by their population mean E[a], as the paper prescribes.
package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cdas/internal/core/verification"
	"cdas/internal/stats"
)

// Strategy selects one of the three termination conditions of
// Section 4.2.2.
type Strategy int

const (
	// Never disables early termination: the HIT runs to completion.
	Never Strategy = iota
	// MinMax terminates when E[min P(r1|Ω)] > E[max P(r2|Ω)]: the result
	// is already stable under any completion. Most conservative.
	MinMax
	// MinExp terminates when E[min P(r1|Ω)] > P(r2|Ω′).
	MinExp
	// ExpMax terminates when P(r1|Ω′) > E[max P(r2|Ω)]. Most aggressive;
	// the strategy the paper recommends adopting.
	ExpMax
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Never:
		return "Never"
	case MinMax:
		return "MinMax"
	case MinExp:
		return "MinExp"
	case ExpMax:
		return "ExpMax"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists the three real termination strategies in paper order.
var Strategies = []Strategy{MinMax, MinExp, ExpMax}

// Verifier accumulates worker votes for one question and exposes the
// running result plus the early-termination predicates. It is not safe for
// concurrent use; the engine owns one Verifier per in-flight question.
type Verifier struct {
	total   int     // n: planned number of assignments
	m       int     // answer-domain size |R|
	meanAcc float64 // E[a]: population mean accuracy for unseen workers
	votes   []verification.Vote
}

// NewVerifier creates a Verifier for a question planned to receive total
// answers from a domain of m possible answers, where unseen workers have
// mean accuracy meanAcc. total must be >= 1, m >= 2 and meanAcc in (0, 1).
func NewVerifier(total, m int, meanAcc float64) (*Verifier, error) {
	return NewVerifierInto(total, m, meanAcc, nil)
}

// NewVerifierInto is NewVerifier storing the votes in buf, the caller's
// vote store for this question: Add appends to buf[:0], so a buffer of
// capacity total is never reallocated and the caller reads the votes
// back as buf[:Received()] without the Verifier holding a copy. A nil
// buf lets the Verifier allocate as it goes.
func NewVerifierInto(total, m int, meanAcc float64, buf []verification.Vote) (*Verifier, error) {
	if total < 1 {
		return nil, fmt.Errorf("online: total assignments must be >= 1, got %d", total)
	}
	if m < 2 {
		return nil, fmt.Errorf("online: domain size must be >= 2, got %d", m)
	}
	if math.IsNaN(meanAcc) || meanAcc <= 0 || meanAcc >= 1 {
		return nil, fmt.Errorf("online: mean accuracy must be in (0, 1), got %v", meanAcc)
	}
	return &Verifier{total: total, m: m, meanAcc: meanAcc, votes: buf[:0]}, nil
}

// ErrOverfilled reports more Add calls than planned assignments.
var ErrOverfilled = errors.New("online: more answers than planned assignments")

// Add records one worker's vote. It returns ErrOverfilled past the planned
// total; the engine treats that as a protocol violation by the platform.
func (v *Verifier) Add(vote verification.Vote) error {
	if len(v.votes) >= v.total {
		return ErrOverfilled
	}
	v.votes = append(v.votes, vote)
	return nil
}

// Received reports how many answers have arrived.
func (v *Verifier) Received() int { return len(v.votes) }

// Remaining reports how many planned answers are outstanding.
func (v *Verifier) Remaining() int { return v.total - len(v.votes) }

// Votes returns a copy of the votes received so far.
func (v *Verifier) Votes() []verification.Vote {
	return append([]verification.Vote(nil), v.votes...)
}

// Current returns the running result P(·|Ω′) over the votes received so
// far (Theorem 6). It returns verification.ErrNoVotes before any arrival.
func (v *Verifier) Current() (verification.Result, error) {
	return verification.Verify(v.votes, v.m)
}

// scored pairs an answer with its accumulated log-space confidence score.
type scored struct {
	answer string
	score  float64
}

// scores returns per-answer summed worker confidences, sorted descending
// (ties broken by answer for determinism).
func (v *Verifier) scores() []scored {
	agg := make(map[string]float64, 4)
	for _, vote := range v.votes {
		agg[vote.Answer] += verification.WorkerConfidence(vote.Accuracy, v.m)
	}
	out := make([]scored, 0, len(agg))
	for a, s := range agg {
		out = append(out, scored{answer: a, score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].answer < out[j].answer
	})
	return out
}

// Bounds holds the early-termination quantities of Section 4.2.2 for the
// current partial observation.
type Bounds struct {
	Best        string  // r1, the current leader among observed answers
	RunnerUp    string  // r2 ("" when it is a not-yet-observed domain answer)
	ExpBest     float64 // P(r1 | Ω′)
	ExpRunner   float64 // P(r2 | Ω′)
	MinBest     float64 // E_A[min P(r1 | Ω)]: leader under adversarial completion
	MaxRunner   float64 // E_A[max P(r2 | Ω)]: runner-up under adversarial completion
	Received    int
	Outstanding int
}

// ErrNoLeader reports bounds requested before any vote arrived.
var ErrNoLeader = errors.New("online: no votes received yet")

// CurrentBounds computes the termination quantities. Normalisation always
// ranges over the full domain: each of the m - k unobserved answers
// contributes e^0 to Equation 4's denominator. The adversarial completion
// s assigns all outstanding answers to the strongest competitor of r1 —
// the second-best observed answer, or an unobserved answer (score 0) when
// that is currently more probable. Outstanding workers are assumed to
// carry the population mean accuracy E[a], as Section 4.2.2 prescribes.
func (v *Verifier) CurrentBounds() (Bounds, error) {
	ss := v.scores()
	if len(ss) == 0 {
		return Bounds{}, ErrNoLeader
	}
	k := len(ss)
	unobserved := v.m - k
	rem := float64(v.Remaining())
	cMean := verification.WorkerConfidence(v.meanAcc, v.m)

	best := ss[0]
	// Competitor: the most probable answer other than r1. Since m >= 2 a
	// competitor always exists — either the observed runner-up or one of
	// the unobserved answers sitting at score 0.
	runner := scored{answer: "", score: 0} // an unobserved answer
	runnerObserved := false
	if k > 1 && (ss[1].score >= 0 || unobserved == 0) {
		runner = ss[1]
		runnerObserved = true
	}

	b := Bounds{Best: best.answer, RunnerUp: runner.answer,
		Received: v.Received(), Outstanding: v.Remaining()}

	// Current (partial-observation) normaliser.
	logits := make([]float64, 0, v.m)
	for _, s := range ss {
		logits = append(logits, s.score)
	}
	for i := 0; i < unobserved; i++ {
		logits = append(logits, 0)
	}
	lseCur := stats.LogSumExp(logits)
	b.ExpBest = math.Exp(best.score - lseCur)
	b.ExpRunner = math.Exp(runner.score - lseCur)

	// Adversarial completion: the competitor gains rem * c(E[a]). Adjust
	// the one logit that corresponds to the competitor.
	advRunnerScore := runner.score + rem*cMean
	adv := make([]float64, 0, v.m)
	for _, s := range ss {
		if runnerObserved && s.answer == runner.answer {
			adv = append(adv, advRunnerScore)
			continue
		}
		adv = append(adv, s.score)
	}
	freshCompetitors := unobserved
	if !runnerObserved {
		adv = append(adv, advRunnerScore)
		freshCompetitors--
	}
	for i := 0; i < freshCompetitors; i++ {
		adv = append(adv, 0)
	}
	lseAdv := stats.LogSumExp(adv)
	b.MinBest = math.Exp(best.score - lseAdv)
	b.MaxRunner = math.Exp(advRunnerScore - lseAdv)
	return b, nil
}

// Terminated reports whether the strategy's condition holds for the
// current observation. With no votes yet it is always false; with all
// answers received it is always true.
func (v *Verifier) Terminated(s Strategy) bool {
	if len(v.votes) == 0 {
		return false
	}
	if v.Remaining() == 0 {
		return true
	}
	if s == Never {
		return false
	}
	b, err := v.CurrentBounds()
	if err != nil {
		return false
	}
	switch s {
	case MinMax:
		return b.MinBest > b.MaxRunner
	case MinExp:
		return b.MinBest > b.ExpRunner
	case ExpMax:
		return b.ExpBest > b.MaxRunner
	default:
		return false
	}
}
