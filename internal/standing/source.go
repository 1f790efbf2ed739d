package standing

import (
	"fmt"
	"math"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/randx"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

// Source feeds a standing query's items in arrival order. Event time
// lives on the item (exec.Item.At); arrival order need not match it —
// out-of-order event times are exactly what the watermark exists for.
type Source interface {
	// Next returns the next arrival, or ok=false when the stream is
	// exhausted. A finite source ends the standing query; a live source
	// blocks until an item arrives or its feed closes.
	Next() (item exec.Item, ok bool)
}

// SliceSource replays a fixed arrival sequence; tests and the demo use
// it directly.
type SliceSource struct {
	items []exec.Item
	pos   int
}

// NewSliceSource wraps items (not copied) as a Source.
func NewSliceSource(items []exec.Item) *SliceSource {
	return &SliceSource{items: items}
}

// Next implements Source.
func (s *SliceSource) Next() (exec.Item, bool) {
	if s.pos >= len(s.items) {
		return exec.Item{}, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// Convert turns a stream item into the crowd question the engine
// publishes — the same shape as stream.Convert, declared here so the
// one-shot and standing layers stay import-independent.
type Convert func(exec.Item) crowd.Question

// SourceFactory builds the arrival source and question mapping for a
// continuous job. The server installs one (TextgenSource by default);
// tests substitute scripted sources.
type SourceFactory func(job jobs.Job) (Source, Convert, error)

// Textgen source defaults, applied when the StreamSpec leaves the
// corresponding field zero.
const (
	defaultSourceItems = 64
	defaultSourceRate  = 1.0 // items per second of event time
)

// TextgenSource synthesises a finite tweet stream for a continuous job:
// Stream.Items tweets about the query's keywords, interleaved across
// movies, with event times following seeded exponential inter-arrival
// gaps (rate Stream.Rate) from Query.Start. Every seventh pair of
// adjacent event times is swapped — arrival order stays put — so any
// run exercises the out-of-order path without depending on wall-clock
// scheduling. Identical (keywords, seed, items, rate) specs produce
// bit-identical streams, which is what lets overlapping standing
// queries dedup in the scheduler and closed-loop runs hash-compare.
func TextgenSource(job jobs.Job) (Source, Convert, error) {
	if job.Stream == nil {
		return nil, nil, fmt.Errorf("standing: job %q has no stream spec", job.Name)
	}
	if len(job.Query.Keywords) == 0 {
		return nil, nil, fmt.Errorf("standing: job %q has no keywords to stream about", job.Name)
	}
	if err := tsa.ValidateDomain(job.Query.Domain); err != nil {
		return nil, nil, err
	}
	spec := *job.Stream
	if spec.Items == 0 {
		spec.Items = defaultSourceItems
	}
	if spec.Rate == 0 {
		spec.Rate = defaultSourceRate
	}
	perMovie := (spec.Items + len(job.Query.Keywords) - 1) / len(job.Query.Keywords)
	tweets, err := textgen.Generate(textgen.Config{
		Seed:           spec.SourceSeed,
		Movies:         job.Query.Keywords,
		TweetsPerMovie: perMovie,
		Start:          job.Query.Start,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("standing: generating stream for %q: %w", job.Name, err)
	}
	tweets = interleave(tweets, len(job.Query.Keywords), perMovie)
	if len(tweets) > spec.Items {
		tweets = tweets[:spec.Items]
	}

	rng := randx.New(spec.SourceSeed).Split("standing/arrivals")
	items := make([]exec.Item, len(tweets))
	byID := make(map[string]textgen.Tweet, len(tweets))
	at := job.Query.Start
	for i, t := range tweets {
		gap := rng.Exp(spec.Rate)
		at = at.Add(time.Duration(math.Ceil(gap * float64(time.Second))))
		items[i] = exec.Item{ID: t.ID, Text: t.Text, At: at}
		byID[t.ID] = t
	}
	for i := 3; i < len(items); i += 7 {
		items[i-1].At, items[i].At = items[i].At, items[i-1].At
	}

	domain := append([]string(nil), job.Query.Domain...)
	convert := func(it exec.Item) crowd.Question {
		t, ok := byID[it.ID]
		if !ok {
			return crowd.Question{ID: it.ID, Text: it.Text, Domain: domain}
		}
		return t.QuestionIn(domain)
	}
	return NewSliceSource(items), convert, nil
}

// interleave reorders movie-major generated tweets round-robin across
// movies so a truncated stream still mentions every keyword.
func interleave(tweets []textgen.Tweet, movies, perMovie int) []textgen.Tweet {
	if movies <= 1 {
		return tweets
	}
	out := make([]textgen.Tweet, 0, len(tweets))
	for i := 0; i < perMovie; i++ {
		for m := 0; m < movies; m++ {
			idx := m*perMovie + i
			if idx < len(tweets) {
				out = append(out, tweets[idx])
			}
		}
	}
	return out
}
