// Bridging helper between the crowdsourcing engine's verdicts and the
// executor's presentation layer.
package exec

import "cdas/internal/engine"

// OutcomesFromResults converts engine question verdicts into the
// outcomes the summary layer consumes: one accepted answer per item,
// with the aggregator's confidence and the voters' agreement attached.
func OutcomesFromResults(rs []engine.QuestionResult) []Outcome {
	out := make([]Outcome, len(rs))
	for i, qr := range rs {
		out[i] = outcomeOf(qr)
	}
	return out
}

// ObserveResults folds engine verdicts in, in order, each with its
// item's original text from texts (an item without one contributes no
// reasons).
func (f *Fold) ObserveResults(rs []engine.QuestionResult, texts map[string]string) {
	for _, qr := range rs {
		f.Observe(outcomeOf(qr), texts[qr.Question.ID])
	}
}

func outcomeOf(qr engine.QuestionResult) Outcome {
	return Outcome{
		ItemID:     qr.Question.ID,
		Accepted:   qr.Answer,
		Confidence: qr.Confidence,
		Quality:    qr.Quality,
	}
}
