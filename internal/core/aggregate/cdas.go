// The paper's probability-based verification model (Section 4) on the
// Aggregator contract. The batch form is verification.Verify per
// question; the incremental form wraps online.Verifier verbatim, so the
// engine's default path — including the early-termination bounds of
// Section 4.2.2 — is bit-identical to the pre-interface code.
package aggregate

import (
	"fmt"

	"cdas/internal/core/online"
	"cdas/internal/core/verification"
)

func init() {
	Register(cdasAggregator{}, "probability-weighted voting over worker accuracies (the paper's Eq. 4 model); supports online early termination")
}

// cdasAggregator is the CDAS verification model.
type cdasAggregator struct{}

func (cdasAggregator) Name() string { return DefaultName }

// Aggregate runs Equation 4 independently per question — exactly
// verification.Verify over each question's votes.
func (cdasAggregator) Aggregate(b Batch) (Result, error) {
	verdicts := make(map[string]Verdict, len(b.Questions))
	for _, q := range b.Questions {
		votes := b.Votes[q.ID]
		if len(votes) == 0 {
			continue
		}
		res, err := verification.Verify(votes, q.M)
		if err != nil {
			return Result{}, fmt.Errorf("aggregate: question %s: %w", q.ID, err)
		}
		verdicts[q.ID] = verdictFromResult(res)
	}
	return Result{Verdicts: verdicts, WorkerQuality: agreementQuality(b, verdicts)}, nil
}

// NewFolder implements Incremental by wrapping an online.Verifier: the
// same construction, fold and ranking code the engine ran before the
// interface existed. The verifier keeps its votes in spec.Votes.
func (cdasAggregator) NewFolder(spec Spec) (Folder, error) {
	v, err := online.NewVerifierInto(spec.Planned, spec.M, spec.MeanAccuracy, spec.Votes)
	if err != nil {
		return nil, err
	}
	return &cdasFolder{v: v}, nil
}

// cdasFolder adapts online.Verifier to the Folder contract. It also
// exposes Terminated so the engine's early-termination loop keeps
// working through the interface.
type cdasFolder struct{ v *online.Verifier }

func (f *cdasFolder) Fold(vote Vote) error { return f.v.Add(vote) }

func (f *cdasFolder) Received() int { return f.v.Received() }

func (f *cdasFolder) Verdict() (Verdict, error) {
	res, err := f.v.Current()
	if err != nil {
		return Verdict{}, err
	}
	return verdictFromResult(res), nil
}

// Terminated reports the online early-termination predicate of
// Section 4.2.2 (see online.Verifier.Terminated).
func (f *cdasFolder) Terminated(s online.Strategy) bool { return f.v.Terminated(s) }

// verdictFromResult converts a verification result into a Verdict.
func verdictFromResult(res verification.Result) Verdict {
	best := res.Best()
	return Verdict{Answer: best.Answer, Confidence: best.Confidence, Ranked: res.Ranked}
}
