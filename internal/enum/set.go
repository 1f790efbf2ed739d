// The growing result set of an enumeration job: free-text contributions
// keyed by the scheduler's canonical item identity, with the
// frequency-of-frequencies feeding the Chao92 estimate. Snapshots round-
// trip through jobs.EnumProgress so the set rides the durable stream
// mark.
package enum

import (
	"sort"

	"cdas/internal/jobs"
	"cdas/internal/scheduler"
	"cdas/internal/stats"
)

// Item is one discovered set member.
type Item struct {
	// Key is the canonical identity (scheduler.ItemKey of the text).
	Key string `json:"key"`
	// Text is the normalised display form of the member.
	Text string `json:"text"`
	// Count is how many contributions named it.
	Count int `json:"count"`
	// Batch is the HIT batch that first surfaced it.
	Batch int `json:"batch"`
}

// ResultSet accumulates contributions by canonical identity. It is not
// safe for concurrent use; the runner owns it.
type ResultSet struct {
	counts  map[string]int
	display map[string]string
	first   map[string]int
	n       int64
}

// NewResultSet returns an empty set.
func NewResultSet() *ResultSet {
	return &ResultSet{
		counts:  make(map[string]int),
		display: make(map[string]string),
		first:   make(map[string]int),
	}
}

// RestoreResultSet rebuilds a set from a durable snapshot; nil restores
// an empty set. Each entry is re-keyed by the ItemKey of its display
// text, so a snapshot written under an older canonicalisation resumes
// under today's: entries that now name one item merge, their counts
// summed, keeping the earliest first batch and its display text (the
// smaller text on a tie).
func RestoreResultSet(p *jobs.EnumProgress) *ResultSet {
	s := NewResultSet()
	if p == nil {
		return s
	}
	s.n = p.Contributions
	for old, count := range p.Counts {
		display, first := p.Display[old], p.FirstBatch[old]
		key := scheduler.ItemKey(display)
		if prev, seen := s.counts[key]; seen {
			count += prev
			if f, d := s.first[key], s.display[key]; f < first || (f == first && d < display) {
				first, display = f, d
			}
		}
		s.counts[key], s.display[key], s.first[key] = count, display, first
	}
	return s
}

// Observe folds one contribution made during the given batch into the
// set and reports its canonical key and whether it was a new discovery.
func (s *ResultSet) Observe(text string, batch int) (key string, isNew bool) {
	key = scheduler.ItemKey(text)
	s.n++
	s.counts[key]++
	if s.counts[key] > 1 {
		return key, false
	}
	s.display[key] = scheduler.NormalizeText(text)
	s.first[key] = batch
	return key, true
}

// Distinct is the number of distinct members discovered so far.
func (s *ResultSet) Distinct() int { return len(s.counts) }

// Contributions is the total contribution count, repeats included.
func (s *ResultSet) Contributions() int64 { return s.n }

// FreqOfFreq builds the frequency-of-frequencies histogram: how many
// distinct members were contributed exactly k times.
func (s *ResultSet) FreqOfFreq() map[int]int {
	freq := make(map[int]int)
	for _, c := range s.counts {
		freq[c]++
	}
	return freq
}

// Estimate runs Chao92 over the current histogram.
func (s *ResultSet) Estimate() stats.SpeciesEstimate {
	return stats.Chao92(s.FreqOfFreq())
}

// UnseenProbability is the Good-Turing chance that the next
// contribution is a new member — the per-contribution discovery rate
// marginal-value admission scales by the batch size.
func (s *ResultSet) UnseenProbability() float64 {
	return stats.GoodTuringUnseen(s.FreqOfFreq())
}

// Items lists the discovered members sorted by display text.
func (s *ResultSet) Items() []Item {
	out := make([]Item, 0, len(s.counts))
	for k, c := range s.counts {
		out = append(out, Item{Key: k, Text: s.display[k], Count: c, Batch: s.first[k]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Text < out[j].Text })
	return out
}

// Progress snapshots the set for the durable stream mark.
func (s *ResultSet) Progress() *jobs.EnumProgress {
	p := &jobs.EnumProgress{
		Counts:        make(map[string]int, len(s.counts)),
		Display:       make(map[string]string, len(s.display)),
		FirstBatch:    make(map[string]int, len(s.first)),
		Contributions: s.n,
	}
	for k, v := range s.counts {
		p.Counts[k] = v
	}
	for k, v := range s.display {
		p.Display[k] = v
	}
	for k, v := range s.first {
		p.FirstBatch[k] = v
	}
	return p
}
