// The executor's filter over a prepared stream: what is the same for
// every query — the case-folded text of each tweet, a trigram index over
// it, and what each job asking about a tweet needs of it — is computed
// once per stream, not once per job.
package tsa

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
	"sync"

	"cdas/internal/crowd"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
	"cdas/internal/textutil"
)

// Stream is a tweet stream prepared for repeated filtering. On the
// first Filter or Match, once, the tweets' text is case-folded into a
// single buffer and indexed by byte trigram, so a query verifies only
// the tweets that hold its keywords' trigrams instead of scanning them
// all; and each tweet's text hash and content tokens are tabulated, so
// no job hashes or tokenises a tweet again. Building a Stream costs
// nothing, so a server's boot does not wait for it. A Stream is safe
// for concurrent use; the tweets must not be modified while it is.
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

	// Per tweet, what every job asking about it needs: hashes[i] is
	// scheduler.TextHash of tweet i's text; its content tokens are
	// tokens[tokenEnds[i-1]:tokenEnds[i]], IDs into vocab; and rank[i]
	// is its place in the stream sorted by tweet ID, the order verdicts
	// come back in.
	hashes    []uint64
	tokens    []uint32
	tokenEnds []uint32
	rank      []uint32
	vocab     *textutil.Vocab
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
	s.tabulate()
}

// tabulate computes the per-tweet tables. The vocabulary is frozen
// when it is done: from then on jobs only read it.
func (s *Stream) tabulate() {
	n := len(s.tweets)
	s.hashes = make([]uint64, n)
	s.tokenEnds = make([]uint32, n)
	s.vocab = textutil.NewVocab()
	var tokens []uint32
	for i := range s.tweets {
		s.hashes[i] = scheduler.TextHash(s.tweets[i].Text)
		tokens = s.vocab.AppendContent(tokens, s.text(i))
		s.tokenEnds[i] = uint32(len(tokens))
	}
	s.tokens = slices.Clone(tokens) // at its length: the stream keeps it
	s.vocab.Freeze()

	byID := make([]uint32, n)
	for i := range byID {
		byID[i] = uint32(i)
	}
	slices.SortStableFunc(byID, func(a, b uint32) int { return strings.Compare(s.tweets[a].ID, s.tweets[b].ID) })
	s.rank = make([]uint32, n)
	for r, i := range byID {
		s.rank[i] = uint32(r)
	}
}

// tokensOf returns tweet i's content tokens, IDs into s.vocab.
func (s *Stream) tokensOf(i uint32) []uint32 {
	lo := uint32(0)
	if i > 0 {
		lo = s.tokenEnds[i-1]
	}
	return s.tokens[lo:s.tokenEnds[i]]
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
// the executor half of the TSA plan — and returns the indices of the
// matching tweets, ascending.
func (s *Stream) Filter(q jobs.Query) []uint32 {
	s.once.Do(s.prepare)
	keywords := textutil.FoldKeywords(q.Keywords)
	keep := func(i uint32) bool {
		// Keywords first: they reject nearly every tweet, the window
		// (a day, for the paper's queries) nearly none.
		return keywords.In(s.text(int(i))) && q.InWindow(s.tweets[i].At)
	}
	if cands, ok := s.candidates(keywords); ok {
		out := cands[:0]
		for _, i := range cands {
			if keep(i) {
				out = append(out, i)
			}
		}
		return out
	}
	var out []uint32
	for i := range s.tweets {
		if keep(uint32(i)) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// Match filters the stream against the query.
func (s *Stream) Match(q jobs.Query) Matched { return Matched{stream: s, indices: s.Filter(q)} }

// all matches every tweet of the stream.
func (s *Stream) all() Matched {
	s.once.Do(s.prepare)
	indices := make([]uint32, len(s.tweets))
	for i := range indices {
		indices[i] = uint32(i)
	}
	return Matched{stream: s, indices: indices}
}

// Matched is the executor's view of one query's filtered stream: the
// indices, ascending, of the tweets that passed, over the prepared
// stream that holds them. What a job needs of each tweet — its
// question, text hash and content tokens — it reads from the stream's
// tables; nothing is copied, hashed or tokenised per job.
type Matched struct {
	stream  *Stream
	indices []uint32
}

// Len reports how many tweets matched.
func (m Matched) Len() int { return len(m.indices) }

// Questions converts the matched tweets, in stream order, to crowd
// questions answered over the query's own domain R (Definition 1); see
// QuestionsInDomain. The questions share one copy of domain.
func (m Matched) Questions(domain []string) []crowd.Question {
	domain = append([]string(nil), domain...)
	qs := make([]crowd.Question, len(m.indices))
	for k, i := range m.indices {
		qs[k] = m.stream.tweets[i].QuestionIn(domain)
	}
	return qs
}

// TextHashes returns each matched tweet's scheduler.TextHash, parallel
// to Questions: the Request.TextHashes of a job asking them.
func (m Matched) TextHashes() []uint64 {
	hs := make([]uint64, len(m.indices))
	for k, i := range m.indices {
		hs[k] = m.stream.hashes[i]
	}
	return hs
}

// Fold creates a fold over domain whose token IDs number the stream's
// vocabulary: feed it the matched tweets' verdicts through
// ObserveResults with Tokens. exclude lists words kept out of the
// reason lists.
func (m Matched) Fold(domain []string, exclude ...string) *exec.Fold {
	return exec.NewFoldOver(m.stream.vocab, domain, exclude...)
}

// Tokens joins verdicts back to the matched tweets for
// Fold.ObserveResults: given a question ID, the content tokens of the
// tweet it asks about. The scheduler and each engine batch return
// verdicts sorted by question ID, which is the stream's rank order, so
// it expects each verdict at the place after the last and checks that
// first; a verdict elsewhere costs a binary search. Not safe for
// concurrent use.
func (m Matched) Tokens() func(itemID string) ([]uint32, bool) {
	s := m.stream
	byID := slices.Clone(m.indices)
	slices.SortFunc(byID, func(a, b uint32) int { return cmp.Compare(s.rank[a], s.rank[b]) })
	next := 0
	return func(id string) ([]uint32, bool) {
		k := next
		if k >= len(byID) || s.tweets[byID[k]].ID != id {
			var found bool
			k, found = slices.BinarySearchFunc(byID, id, func(i uint32, id string) int { return strings.Compare(s.tweets[i].ID, id) })
			if !found {
				return nil, false
			}
		}
		next = k + 1
		i := byID[k]
		if s.tweets[i].Text == "" {
			return nil, false
		}
		return s.tokensOf(i), true
	}
}
