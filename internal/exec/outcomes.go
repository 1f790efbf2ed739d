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

// ObserveResults folds engine verdicts in, in order. tokens gives the
// content tokens of the item a verdict answers, as IDs into the fold's
// vocabulary, and false for an item without text, which contributes no
// reasons; a nil tokens treats every item so.
func (f *Fold) ObserveResults(rs []engine.QuestionResult, tokens func(itemID string) ([]uint32, bool)) {
	for _, qr := range rs {
		var ids []uint32
		hasText := false
		if tokens != nil {
			ids, hasText = tokens(qr.Question.ID)
		}
		f.observe(outcomeOf(qr), ids, hasText)
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
