// The executor's filter over a prepared stream: what is the same for
// every query — the case-folded text of each tweet, and a trigram index
// over it — is computed once per stream, not once per job.
package tsa

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"

	"cdas/internal/jobs"
	"cdas/internal/textgen"
	"cdas/internal/textutil"
)

// Stream is a tweet stream prepared for repeated filtering. On the
// first Filter or Match, once, the tweets' text is case-folded into a
// single buffer and indexed by byte trigram, so a query verifies only
// the tweets that hold its keywords' trigrams instead of scanning them
// all. Building a Stream costs nothing, so a server's boot does not
// wait for it. A Stream is safe for concurrent use; the tweets must not
// be modified while it is.
type Stream struct {
	tweets []textgen.Tweet

	once   sync.Once
	folded string   // every tweet's folded text, concatenated
	ends   []uint32 // tweet i's folded text is folded[ends[i-1]:ends[i]]

	// The trigram index: grams lists every distinct trigram of the
	// tweets' folded text in ascending order, and the tweets holding
	// grams[g] are postings[at[g]:at[g+1]] — ascending tweet indices,
	// each a uvarint delta from the one before. A trigram never spans
	// two tweets.
	grams    []uint32
	at       []uint32
	postings []byte
}

// NewStream prepares tweets for filtering.
func NewStream(tweets []textgen.Tweet) *Stream { return &Stream{tweets: tweets} }

func (s *Stream) prepare() {
	n := 0
	for i := range s.tweets {
		n += len(s.tweets[i].Text)
	}
	var b strings.Builder
	b.Grow(n) // exact for ASCII; a rune's folded form may be longer or shorter
	s.ends = make([]uint32, len(s.tweets))
	for i := range s.tweets {
		b.WriteString(textutil.Fold(s.tweets[i].Text))
		s.ends[i] = uint32(b.Len())
	}
	s.folded = b.String()
	s.index()
}

// gram packs the trigram starting at s[0].
func gram(s string) uint32 { return uint32(s[0])<<16 | uint32(s[1])<<8 | uint32(s[2]) }

func (s *Stream) text(i int) string {
	lo := uint32(0)
	if i > 0 {
		lo = s.ends[i-1]
	}
	return s.folded[lo:s.ends[i]]
}

// index builds the postings from every (trigram, tweet) pair, packed as
// gram<<32 | tweet and listed in tweet order. A stable radix sort on
// the 24-bit gram, two 12-bit digits, groups them by trigram and keeps
// each trigram's tweets ascending, so a tweet's repeats of a trigram
// end up adjacent.
func (s *Stream) index() {
	n := 0
	for i := range s.tweets {
		n += max(len(s.text(i))-2, 0)
	}
	pairs := make([]uint64, 0, n)
	for i := range s.tweets {
		t := s.text(i)
		for j := 0; j+3 <= len(t); j++ {
			pairs = append(pairs, uint64(gram(t[j:]))<<32|uint64(i))
		}
	}
	tmp := make([]uint64, len(pairs))
	for shift := 32; shift < 56; shift += 12 {
		var start [1 << 12]int
		for _, p := range pairs {
			start[p>>shift&(1<<12-1)]++
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for _, p := range pairs {
			d := p >> shift & (1<<12 - 1)
			tmp[start[d]] = p
			start[d]++
		}
		pairs, tmp = tmp, pairs
	}
	pairs = slices.Compact(pairs)

	distinct := 0
	for i, p := range pairs {
		if i == 0 || p>>32 != pairs[i-1]>>32 {
			distinct++
		}
	}
	s.grams = make([]uint32, 0, distinct)
	s.at = make([]uint32, 0, distinct+1)
	var buf []byte
	for i, p := range pairs {
		delta := uint32(p)
		if i == 0 || p>>32 != pairs[i-1]>>32 {
			s.grams = append(s.grams, uint32(p>>32))
			s.at = append(s.at, uint32(len(buf)))
		} else {
			delta -= uint32(pairs[i-1])
		}
		buf = binary.AppendUvarint(buf, uint64(delta))
	}
	s.at = append(s.at, uint32(len(buf)))
	s.postings = slices.Clone(buf)
}

// posting returns the encoded tweet list of trigram g, nil if no tweet
// holds g.
func (s *Stream) posting(g uint32) []byte {
	i, ok := slices.BinarySearch(s.grams, g)
	if !ok {
		return nil
	}
	return s.postings[s.at[i]:s.at[i+1]]
}

// candidates returns, ascending and without repeats, every tweet that
// may contain one of the keywords: for each keyword, the tweets holding
// its rarest trigram, taken as the one with the shortest postings. A
// keyword with a trigram no tweet holds adds none. ok is false if a
// keyword is shorter than a trigram, which the index cannot answer; the
// caller scans instead.
func (s *Stream) candidates(keywords textutil.Keywords) (cands []uint32, ok bool) {
	for _, k := range keywords {
		if len(k) < 3 {
			return nil, false
		}
	}
	lists := 0
	for _, k := range keywords {
		var rarest []byte
		for j := 0; j+3 <= len(k); j++ {
			list := s.posting(gram(k[j:]))
			if list == nil {
				rarest = nil
				break
			}
			if rarest == nil || len(list) < len(rarest) {
				rarest = list
			}
		}
		if rarest == nil {
			continue
		}
		lists++
		// A tweet index takes at least one byte: the list's length
		// bounds its count.
		cands = slices.Grow(cands, len(rarest))
		tweet := uint32(0)
		for len(rarest) > 0 {
			delta, w := binary.Uvarint(rarest)
			tweet += uint32(delta)
			cands = append(cands, tweet)
			rarest = rarest[w:]
		}
	}
	if lists > 1 {
		slices.Sort(cands)
		cands = slices.Compact(cands)
	}
	return cands, true
}

// Filter applies the query's keyword and window filters to the stream —
// the executor half of the TSA plan — and returns the matching tweets
// in stream order.
func (s *Stream) Filter(q jobs.Query) []textgen.Tweet {
	s.once.Do(s.prepare)
	keywords := textutil.FoldKeywords(q.Keywords)
	var out []textgen.Tweet
	keep := func(i int) {
		// Keywords first: they reject nearly every tweet, the window
		// (a day, for the paper's queries) nearly none.
		if keywords.In(s.text(i)) && q.InWindow(s.tweets[i].At) {
			out = append(out, s.tweets[i])
		}
	}
	if cands, ok := s.candidates(keywords); ok {
		for _, i := range cands {
			keep(int(i))
		}
	} else {
		for i := range s.tweets {
			keep(i)
		}
	}
	return out
}

// Match filters the stream against the query and indexes the matches.
func (s *Stream) Match(q jobs.Query) Matched { return matched(s.Filter(q)) }

// matched indexes a query's filtered tweets.
func matched(tweets []textgen.Tweet) Matched {
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
