// The executor's filter over a prepared stream: what is the same for
// every query — the case-folded text of each tweet — is computed once
// per stream, not once per job.
package tsa

import (
	"strings"
	"sync"

	"cdas/internal/jobs"
	"cdas/internal/textgen"
	"cdas/internal/textutil"
)

// Stream is a tweet stream prepared for repeated filtering. The tweets'
// text is case-folded on the first Filter or Match, once, into a single
// buffer; building a Stream costs nothing, so a server's boot does not
// wait for it. A Stream is safe for concurrent use; the tweets must not
// be modified while it is.
type Stream struct {
	tweets []textgen.Tweet

	once   sync.Once
	folded string // every tweet's folded text, concatenated
	ends   []int  // tweet i's folded text is folded[ends[i-1]:ends[i]]
}

// NewStream prepares tweets for filtering.
func NewStream(tweets []textgen.Tweet) *Stream { return &Stream{tweets: tweets} }

func (s *Stream) fold() {
	n := 0
	for i := range s.tweets {
		n += len(s.tweets[i].Text)
	}
	var b strings.Builder
	b.Grow(n) // exact for ASCII; a rune's folded form may be longer or shorter
	s.ends = make([]int, len(s.tweets))
	for i := range s.tweets {
		b.WriteString(textutil.Fold(s.tweets[i].Text))
		s.ends[i] = b.Len()
	}
	s.folded = b.String()
}

// Filter applies the query's keyword and window filters to the stream —
// the executor half of the TSA plan — and returns the matching tweets
// in stream order.
func (s *Stream) Filter(q jobs.Query) []textgen.Tweet {
	s.once.Do(s.fold)
	keywords := textutil.FoldKeywords(q.Keywords)
	var out []textgen.Tweet
	lo := 0
	for i, hi := range s.ends {
		// Keywords first: they reject nearly every tweet, the window
		// (a day, for the paper's queries) nearly none.
		if keywords.In(s.folded[lo:hi]) && q.InWindow(s.tweets[i].At) {
			out = append(out, s.tweets[i])
		}
		lo = hi
	}
	return out
}

// Match filters the stream against the query and indexes the matches.
func (s *Stream) Match(q jobs.Query) Matched {
	tweets := s.Filter(q)
	m := Matched{
		Tweets: tweets,
		Texts:  make(map[string]string, len(tweets)),
		Truths: make(map[string]string, len(tweets)),
	}
	for _, t := range tweets {
		m.Texts[t.ID] = t.Text
		m.Truths[t.ID] = t.Truth
	}
	return m
}
