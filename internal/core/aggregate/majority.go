// Majority voting on the Aggregator contract: the Section 5 baseline
// that treats every worker as equally trustworthy. Where the
// verification.MajorityVoting baseline reports "no answer" on a tie
// (the Figure 9/10 outcome), the aggregator must always decide, so ties
// break deterministically towards the lexicographically smallest
// answer; on untied votes the winner is identical to the baseline's.
package aggregate

import (
	"fmt"
	"sort"

	"cdas/internal/core/verification"
)

// MajorityName is the majority-voting aggregator's registry key.
const MajorityName = "majority"

func init() {
	Register(majorityAggregator{}, "unweighted majority voting; confidence is the winning answer's vote share")
}

type majorityAggregator struct{}

func (majorityAggregator) Name() string { return MajorityName }

func (majorityAggregator) Aggregate(b Batch) (Result, error) {
	verdicts := make(map[string]Verdict, len(b.Questions))
	for _, q := range b.Questions {
		votes := b.Votes[q.ID]
		if len(votes) == 0 {
			continue
		}
		counts := make(map[string]float64, 4)
		for _, v := range votes {
			counts[v.Answer]++
		}
		verdicts[q.ID] = shareVerdict(counts)
	}
	return Result{Verdicts: verdicts, WorkerQuality: agreementQuality(b, verdicts)}, nil
}

func (majorityAggregator) NewFolder(spec Spec) (Folder, error) {
	if spec.Planned < 1 {
		return nil, fmt.Errorf("aggregate: planned assignments must be >= 1, got %d", spec.Planned)
	}
	return &majorityFolder{planned: spec.Planned, counts: make(map[string]float64, 4), votes: spec.Votes}, nil
}

// majorityFolder folds votes into per-answer counts — the incremental
// form is exact because majority voting is a running tally. It stores
// the votes themselves only into the caller's buffer, when given one.
type majorityFolder struct {
	planned  int
	received int
	counts   map[string]float64
	votes    []Vote // Spec.Votes; nil when the caller keeps no votes
}

func (f *majorityFolder) Fold(vote Vote) error {
	if f.received >= f.planned {
		return ErrOverfilled
	}
	f.received++
	f.counts[vote.Answer]++
	if f.votes != nil {
		f.votes = append(f.votes, vote)
	}
	return nil
}

func (f *majorityFolder) Received() int { return f.received }

func (f *majorityFolder) Verdict() (Verdict, error) {
	if f.received == 0 {
		return Verdict{}, verification.ErrNoVotes
	}
	return shareVerdict(f.counts), nil
}

// ErrOverfilled reports more folds than planned assignments — the same
// protocol violation online.ErrOverfilled flags on the CDAS path.
var ErrOverfilled = fmt.Errorf("aggregate: more votes than planned assignments")

// shareVerdict ranks answers by their (possibly weighted) vote share:
// confidence of answer r is score(r) / Σ scores, ties broken by answer
// string. Weighted-voting methods (majority with weight 1, Wawa and
// Zero-Based Skill with skills) all rank through this one routine, so
// equal weights provably reduce them to plain majority.
func shareVerdict(scores map[string]float64) Verdict {
	answers := make([]string, 0, len(scores))
	for a := range scores {
		answers = append(answers, a)
	}
	sort.Strings(answers)
	// Sum in answer order, not map order: float addition is not
	// associative, and the confidences must not vary run to run.
	total := 0.0
	for _, a := range answers {
		total += scores[a]
	}
	ranked := make([]verification.Scored, 0, len(answers))
	if total > 0 {
		for _, a := range answers {
			ranked = append(ranked, verification.Scored{Answer: a, Confidence: scores[a] / total})
		}
	} else {
		// Degenerate all-zero weights: fall back to the uniform share so
		// the verdict stays defined and deterministic.
		for _, a := range answers {
			ranked = append(ranked, verification.Scored{Answer: a, Confidence: 1 / float64(len(answers))})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Confidence != ranked[j].Confidence {
			return ranked[i].Confidence > ranked[j].Confidence
		}
		return ranked[i].Answer < ranked[j].Answer
	})
	best := ranked[0]
	return Verdict{Answer: best.Answer, Confidence: best.Confidence, Ranked: ranked}
}
