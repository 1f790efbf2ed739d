// Package enum implements open-ended enumeration queries ("list all X"):
// HITs ask workers to contribute set members instead of votes, free-text
// answers are canonicalized through the scheduler canon path and deduped
// into a growing result set, a Chao92 species estimate tracks
// completeness live, and the budget ledger's marginal-value admission
// stops buying batches once expected discovery no longer covers the HIT
// price — the open-ended counterpart of the CDAS Eq.4 accuracy bound
// (Trushkowsky et al., see PAPERS.md).
package enum

import (
	"fmt"
	"math"
	"strings"

	"cdas/internal/jobs"
	"cdas/internal/randx"
)

// Contribution is one worker's free-text answer to an enumeration HIT:
// a set member as the worker typed it.
type Contribution struct {
	// Worker indexes the contributing worker within the batch.
	Worker int
	// Text is the contributed member, verbatim (canonicalization is the
	// result set's job, not the source's).
	Text string
}

// Source supplies the crowd's contributions batch by batch. Batch i must
// be a pure function of i for resumable sources: after a crash the
// runner re-derives batch mark+1 without replaying batches 0..mark.
type Source interface {
	// Batch returns the contributions of HIT batch i. An empty slice
	// means the source has nothing more to offer (simulation drained).
	Batch(i int) []Contribution
}

// SourceFactory builds a job's contribution source. The default is
// NewSimSource.
type SourceFactory func(job jobs.Job) (Source, error)

// Simulation defaults when the spec leaves them zero.
const (
	defaultUniverse   = 40
	defaultPopularity = 1.0
)

// SimSource is the built-in deterministic crowd: a hidden universe of
// set members named after the job's first keyword, drawn with a
// Zipf-like popularity skew (weight 1/(i+1)^Popularity), each draw
// emitted in one of several spelling variants (case, extra whitespace)
// so canonical dedup has real work to do. Every batch is derived from
// an independent randx split of the seed, so batch i is reproducible in
// isolation — the property kill -9 resume and the pinned enum outcome
// of internal/loadgen's TestPinnedResults rely on.
type SimSource struct {
	universe []string
	weights  []float64
	workers  int
	per      int
	seed     uint64
}

// NewSimSource builds the simulated crowd for an enumeration job.
func NewSimSource(job jobs.Job) (Source, error) {
	if job.Enum == nil {
		return nil, fmt.Errorf("enum: job %q has no enum spec", job.Name)
	}
	if len(job.Query.Keywords) == 0 {
		return nil, fmt.Errorf("enum: job %q has no keywords to enumerate", job.Name)
	}
	sp := job.Enum
	size := sp.Universe
	if size <= 0 {
		size = defaultUniverse
	}
	pop := sp.Popularity
	if pop == 0 {
		pop = defaultPopularity
	}
	kw := job.Query.Keywords[0]
	s := &SimSource{
		universe: make([]string, size),
		weights:  make([]float64, size),
		workers:  sp.Workers(),
		per:      sp.ContributionsPerWorker(),
		seed:     sp.SourceSeed,
	}
	for i := range s.universe {
		s.universe[i] = fmt.Sprintf("%s item %03d", kw, i+1)
		s.weights[i] = 1 / math.Pow(float64(i+1), pop)
	}
	return s, nil
}

// UniverseSize reports the hidden set's true size — the figure a
// deterministic bench run checks the completeness estimate against.
func (s *SimSource) UniverseSize() int { return len(s.universe) }

// Batch draws the contributions of HIT batch i: workers x per-worker
// weighted picks from the universe, each rendered through a random
// spelling variant. Pure in i.
func (s *SimSource) Batch(i int) []Contribution {
	rng := randx.New(s.seed).Split(fmt.Sprintf("enum/batch/%d", i))
	out := make([]Contribution, 0, s.workers*s.per)
	for w := 0; w < s.workers; w++ {
		for c := 0; c < s.per; c++ {
			text := s.universe[rng.WeightedChoice(s.weights)]
			switch rng.IntN(4) {
			case 1:
				text = strings.ToUpper(text)
			case 2:
				text = strings.ReplaceAll(text, " ", "  ")
			case 3:
				text = "  " + text + " "
			}
			out = append(out, Contribution{Worker: w, Text: text})
		}
	}
	return out
}
