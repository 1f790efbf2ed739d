// Package tsa implements the Twitter sentiment analytics application of
// the paper (Sections 2.2 and 5.1): queries of the form (S, C, R, t, w)
// are matched against a tweet stream by the program executor, candidate
// tweets are batched into HITs by the crowdsourcing engine, and accepted
// answers are summarised into the percentages-plus-reasons presentation
// of Table 1 / Figure 4.
package tsa

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/textgen"
)

// Query builds the TSA query of Definition 1 for one movie: keywords
// {title}, the required accuracy, domain {Positive, Neutral, Negative},
// and the time window.
func Query(movie string, requiredAccuracy float64, start time.Time, window time.Duration) jobs.Query {
	return jobs.Query{
		Keywords:         []string{movie},
		RequiredAccuracy: requiredAccuracy,
		Domain:           append([]string(nil), textgen.Labels...),
		Start:            start,
		Window:           window,
	}
}

// FilterTweets applies the query's keyword and window filters to the
// stream, once. A caller filtering the same tweets for many queries
// prepares a Stream instead.
func FilterTweets(tweets []textgen.Tweet, q jobs.Query) []textgen.Tweet {
	return NewStream(tweets).Filter(q)
}

// Questions converts tweets to crowd questions over the default TSA
// domain (textgen.Labels).
func Questions(tweets []textgen.Tweet) []crowd.Question {
	qs := make([]crowd.Question, len(tweets))
	for i, t := range tweets {
		qs[i] = t.Question()
	}
	return qs
}

// QuestionsInDomain converts tweets to crowd questions answered over the
// query's own domain R (Definition 1) instead of the default labels. The
// domain must contain the sentiment truth labels (see ValidateDomain) —
// a superset such as textgen.Labels plus extra answers is fine. Passing
// a domain equal to textgen.Labels reproduces Questions exactly, so
// standard TSA jobs are unaffected; distinct domains also schedule as
// distinct cross-query groups (a worker asked to pick from a different
// answer set is doing different work, so their questions never
// coalesce).
func QuestionsInDomain(tweets []textgen.Tweet, domain []string) []crowd.Question {
	qs := make([]crowd.Question, len(tweets))
	for i, t := range tweets {
		q := t.Question()
		q.Domain = append([]string(nil), domain...)
		qs[i] = q
	}
	return qs
}

// ValidateDomain checks that a TSA query's answer domain can host the
// sentiment questions: every truth label must appear verbatim, or the
// platform would reject each HIT at publish time ("truth not in
// domain"). That failure is deterministic — retrying replays it — so
// runners surface it as permanent instead of burning the retry budget.
func ValidateDomain(domain []string) error {
	for _, label := range textgen.Labels {
		found := false
		for _, d := range domain {
			if d == label {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("tsa: query domain %v does not contain the sentiment label %q (must be a superset of %v)",
				domain, label, textgen.Labels)
		}
	}
	return nil
}

// GoldenQuestions builds the golden pool from tweets whose labels the
// requester has verified (the paper embeds αB such questions per HIT).
// Golden IDs are prefixed to avoid colliding with live questions.
func GoldenQuestions(tweets []textgen.Tweet) []crowd.Question {
	qs := make([]crowd.Question, len(tweets))
	for i, t := range tweets {
		q := t.Question()
		q.ID = "golden/" + q.ID
		qs[i] = q
	}
	return qs
}

// Matched is the executor's view of one query's filtered stream: the
// matching tweets plus the text and ground-truth lookups downstream
// consumers (summaries, accuracy scoring, live result pages) need.
type Matched struct {
	Tweets []textgen.Tweet
	// Texts maps tweet ID to original text, for reason extraction.
	Texts map[string]string
	// Truths maps tweet ID to the simulated ground-truth label.
	Truths map[string]string
}

// Match filters the stream against the query and indexes the matches,
// once; see Stream.Match for the prepared form.
func Match(q jobs.Query, stream []textgen.Tweet) Matched {
	return NewStream(stream).Match(q)
}

// Accuracy scores batches against ground truth: the fraction of answered
// questions whose accepted answer matches truths, and how many questions
// were answered. answered == 0 yields accuracy 0.
func Accuracy(batches []engine.BatchResult, truths map[string]string) (accuracy float64, answered int) {
	correct := 0
	for _, br := range batches {
		for _, qr := range br.Results {
			answered++
			if qr.Answer == truths[qr.Question.ID] {
				correct++
			}
		}
	}
	if answered == 0 {
		return 0, 0
	}
	return float64(correct) / float64(answered), answered
}

// Result is one processed TSA query.
type Result struct {
	Query   jobs.Query
	Summary exec.Summary
	// Accuracy is the fraction of filtered tweets whose accepted answer
	// matches ground truth (the paper's evaluation metric).
	Accuracy float64
	// Tweets is the number of tweets that passed the filter.
	Tweets  int
	Batches []engine.BatchResult
}

// Run executes one TSA query end to end: filter → batch → crowdsource →
// verify → summarise. golden supplies the ground-truth pool for accuracy
// sampling. Batches go through Engine.ProcessAll, so an engine configured
// with MaxInflightHITs > 1 overlaps its HITs on the platform.
func Run(eng *engine.Engine, q jobs.Query, stream, golden []textgen.Tweet) (Result, error) {
	return run(nil, eng, q, stream, golden)
}

// RunContext executes the query through the engine's concurrent pipeline
// (Engine.ProcessAllContext): cancelling ctx cancels the in-flight HITs
// on the platform without charging for their outstanding assignments.
// Even at MaxInflightHITs = 1 the pipeline differs from Run's sequential
// path (explicit HIT IDs, one profile snapshot per wave), so the two may
// return different — both valid and individually deterministic — numbers
// for the same engine configuration.
func RunContext(ctx context.Context, eng *engine.Engine, q jobs.Query, stream, golden []textgen.Tweet) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, eng, q, stream, golden)
}

// run is the shared body; a nil ctx selects Engine.ProcessAll (the legacy
// sequential path at MaxInflightHITs = 1), a non-nil ctx the pipeline.
func run(ctx context.Context, eng *engine.Engine, q jobs.Query, stream, golden []textgen.Tweet) (Result, error) {
	if eng == nil {
		return Result{}, errors.New("tsa: engine is required")
	}
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	if err := ValidateDomain(q.Domain); err != nil {
		return Result{}, err
	}
	m := Match(q, stream)
	if len(m.Tweets) == 0 {
		return Result{}, fmt.Errorf("tsa: no tweets matched query %v", q.Keywords)
	}
	questions := QuestionsInDomain(m.Tweets, q.Domain)
	var batches []engine.BatchResult
	var err error
	if ctx != nil {
		batches, err = eng.ProcessAllContext(ctx, questions, GoldenQuestions(golden))
	} else {
		batches, err = eng.ProcessAll(questions, GoldenQuestions(golden))
	}
	if err != nil {
		return Result{}, err
	}

	fold := exec.NewFold(q.Domain, q.Keywords...)
	for _, br := range batches {
		fold.ObserveResults(br.Results, m.Texts)
	}
	accuracy, _ := Accuracy(batches, m.Truths)
	return Result{
		Query:    q,
		Summary:  fold.Summary(),
		Accuracy: accuracy,
		Tweets:   len(m.Tweets),
		Batches:  batches,
	}, nil
}

// SplitByMovie partitions tweets into those about the given movies and
// the rest — the train/test split of the Figure 5 SVM comparison (test on
// 5 movies, train on the other 195).
func SplitByMovie(tweets []textgen.Tweet, testMovies []string) (test, train []textgen.Tweet) {
	isTest := make(map[string]bool, len(testMovies))
	for _, m := range testMovies {
		isTest[m] = true
	}
	for _, t := range tweets {
		if isTest[t.Movie] {
			test = append(test, t)
		} else {
			train = append(train, t)
		}
	}
	return test, train
}

// Corpus flattens tweets into parallel document/label slices for the SVM
// baseline.
func Corpus(tweets []textgen.Tweet) (docs, labels []string) {
	docs = make([]string, len(tweets))
	labels = make([]string, len(tweets))
	for i, t := range tweets {
		docs[i] = t.Text
		labels[i] = t.Truth
	}
	return docs, labels
}
