package tsa

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/exec"
	"cdas/internal/jobs"
	"cdas/internal/scheduler"
	"cdas/internal/textgen"
	"cdas/internal/textutil"
)

// refFilter is the executor's filter as it stood before Stream: the
// query's window and a case-insensitive substring test, lower-casing
// the tweet and every keyword again for each tweet.
func refFilter(tweets []textgen.Tweet, q jobs.Query) []textgen.Tweet {
	var out []textgen.Tweet
	for _, t := range tweets {
		if t.At.Before(q.Start) || !t.At.Before(q.Start.Add(q.Window)) {
			continue
		}
		lower := strings.ToLower(t.Text)
		for _, k := range q.Keywords {
			if k != "" && strings.Contains(lower, strings.ToLower(k)) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// checkAgainstReference compares every entry point — prepared and
// one-shot, Filter and Match — with refFilter on one query, and the
// prepared match's questions, text hashes and verdict join with the
// tweets the reference selected.
func checkAgainstReference(t *testing.T, s *Stream, tweets []textgen.Tweet, q jobs.Query) {
	t.Helper()
	want := refFilter(tweets, q)
	if got := s.Filter(q); !slices.IsSorted(got) || !sameTweets(at(tweets, got), want) {
		t.Errorf("Stream.Filter(%q, %v+%v) = %v, reference says %v", q.Keywords, q.Start, q.Window, got, ids(want))
	}
	if got := FilterTweets(tweets, q); !sameTweets(got, want) {
		t.Errorf("FilterTweets(%q) = %v, reference says %v", q.Keywords, ids(got), ids(want))
	}
	if got := Match(q, tweets).Tweets; !sameTweets(got, want) {
		t.Errorf("Match(%q) = %v, reference says %v", q.Keywords, ids(got), ids(want))
	}
	m := s.Match(q)
	qs, hashes := m.Questions(textgen.Labels), m.TextHashes()
	if m.Len() != len(want) || len(qs) != len(want) || len(hashes) != len(want) {
		t.Fatalf("Stream.Match(%q): %d matched, %d questions, %d hashes; reference says %d", q.Keywords, m.Len(), len(qs), len(hashes), len(want))
	}
	for k, tw := range want {
		if qs[k].ID != tw.ID || qs[k].Text != tw.Text || qs[k].Truth != tw.Truth || hashes[k] != scheduler.TextHash(tw.Text) {
			t.Errorf("Stream.Match(%q) question %d = %q with hash %x, reference tweet %q", q.Keywords, k, qs[k].ID, hashes[k], tw.ID)
		}
	}
	checkJoin(t, m, qs)
}

// checkJoin feeds Matched.Tokens the question IDs in the order verdicts
// come back in — sorted by ID — and then backwards, which defeats its
// positional guess: each lookup must name the question's own tweet's
// content tokens, or report a tweet without text.
func checkJoin(t *testing.T, m Matched, qs []crowd.Question) {
	t.Helper()
	byID := slices.Clone(qs)
	slices.SortStableFunc(byID, func(a, b crowd.Question) int { return strings.Compare(a.ID, b.ID) })
	backwards := slices.Clone(byID)
	slices.Reverse(backwards)
	for _, order := range [][]crowd.Question{byID, backwards} {
		tokens := m.Tokens()
		for _, q := range order {
			ids, ok := tokens(q.ID)
			if ok != (q.Text != "") || !slices.Equal(words(m.stream.vocab, ids), textutil.ContentTokens(q.Text)) {
				t.Fatalf("Tokens(%q) = %q, %v; the tweet's text %q has content tokens %q", q.ID, words(m.stream.vocab, ids), ok, q.Text, textutil.ContentTokens(q.Text))
			}
		}
		if _, ok := tokens("no such tweet"); ok {
			t.Fatal("Tokens found a question ID no matched tweet has")
		}
	}
}

// checkTables compares the prepared stream's per-tweet tables with what
// the scheduler and the tokeniser compute from each tweet's own text:
// the text hash is the half of the tweet's question key after the
// domain's, the tokens are its ContentTokens, and rank orders it by ID.
func checkTables(t *testing.T, s *Stream) {
	t.Helper()
	s.once.Do(s.prepare)
	dk := scheduler.DomainKey(textgen.Labels)
	for i, tw := range s.tweets {
		if key, want := dk+"/"+fmt.Sprintf("%016x", s.hashes[i]), scheduler.QuestionKey(tw.Question()); key != want {
			t.Errorf("tweet %d (%q): key from the stream's text hash %q, the scheduler's %q", i, tw.Text, key, want)
		}
		if got, want := words(s.vocab, s.tokensOf(uint32(i))), textutil.ContentTokens(tw.Text); !slices.Equal(got, want) {
			t.Errorf("tweet %d (%q): stream tokens %q, ContentTokens %q", i, tw.Text, got, want)
		}
		for j := range s.tweets {
			if (s.rank[i] < s.rank[j]) != (tw.ID < s.tweets[j].ID || tw.ID == s.tweets[j].ID && i < j) {
				t.Fatalf("tweets %d (%q) and %d (%q) ranked %d and %d", i, tw.ID, j, s.tweets[j].ID, s.rank[i], s.rank[j])
			}
		}
	}
}

// words maps token IDs back to the words they number.
func words(v *textutil.Vocab, ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Word(id)
	}
	return out
}

// at returns the tweets at indices.
func at(tweets []textgen.Tweet, indices []uint32) []textgen.Tweet {
	out := make([]textgen.Tweet, len(indices))
	for k, i := range indices {
		out[k] = tweets[i]
	}
	return out
}

func sameTweets(a, b []textgen.Tweet) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func ids(tweets []textgen.Tweet) []string {
	out := make([]string, len(tweets))
	for i, t := range tweets {
		out[i] = t.ID
	}
	return out
}

// tweetsFrom builds a stream of one tweet per text, a minute apart from
// queryStart, so window arguments in minutes cut it at known places.
func tweetsFrom(texts []string) []textgen.Tweet {
	tweets := make([]textgen.Tweet, len(texts))
	for i, text := range texts {
		tweets[i] = textgen.Tweet{
			ID:    fmt.Sprintf("t%03d", i),
			Text:  text,
			Truth: textgen.Labels[i%len(textgen.Labels)],
			At:    queryStart.Add(time.Duration(i) * time.Minute),
		}
	}
	return tweets
}

// FuzzStreamMatch: the prepared stream selects exactly what the
// per-tweet filter selected, whatever the text — including runes whose
// lower-case form has another length (the Kelvin sign and İ shrink, Ⱥ
// grows), which move every later tweet's place in the folded buffer,
// and text where a keyword straddles two neighbouring tweets.
func FuzzStreamMatch(f *testing.F) {
	f.Add("Thor was great\nhated THOR\nnothing here", "thor", int64(0), int64(60))
	f.Add("first\nsecond\nthird\nfourth", "IR|d", int64(1), int64(2))
	f.Add("ab\ncd", "bc|abcd", int64(0), int64(10))      // no match across a tweet boundary
	f.Add("one\ntwo", "||one|one|", int64(0), int64(10)) // empty and duplicate keywords
	f.Add("one\ntwo", "", int64(0), int64(10))
	f.Add("", "x", int64(0), int64(10))
	f.Add("300 \u212a outside\n\u212aelvin again\nplain k", "\u212a|K", int64(0), int64(10))
	f.Add("\u0130stanbul calling\nistanbul\ni\u0307stanbul", "\u0130STANBUL|stan", int64(-5), int64(10))
	f.Add("\u023a grows\nso \u2c65 moves\nthe rest", "\u023a|REST", int64(0), int64(10))
	f.Add("non\u00a0breaking space\nnon breaking space", "non\u00a0breaking|N B", int64(0), int64(10))
	f.Add("bad \xff utf8\nBAD \xff UTF8", "\xff|utf8", int64(0), int64(1))
	f.Add("late\nlater\nlatest", "late", int64(2), int64(0))
	f.Add("Thor rocks\nth\nthe THOR hammer\nnothing", "Thor hammer|th", int64(0), int64(60)) // a short keyword: the query scans
	f.Add("Thor rocks\nGreen Lantern", "zqx|Thor|Lanternz", int64(0), int64(60))             // trigrams no tweet holds
	f.Add("Green Lantern\ngreen\nlantern green\nred", "green|Green Lantern|een l|lantern", int64(0), int64(60))

	f.Fuzz(func(t *testing.T, texts, keywords string, startMin, windowMin int64) {
		tweets := tweetsFrom(strings.Split(texts, "\n"))
		q := jobs.Query{
			Keywords: strings.Split(keywords, "|"),
			Start:    queryStart.Add(time.Duration(startMin%1000) * time.Minute),
			Window:   time.Duration(windowMin%1000) * time.Minute,
		}
		s := NewStream(tweets)
		checkAgainstReference(t, s, tweets, q)
		checkTables(t, s)
	})
}

// TestStreamMatchesReference is the same comparison over seeded random
// streams: one prepared Stream serving many queries, as a runner's does.
// Each stream's per-tweet tables are checked too.
func TestStreamMatchesReference(t *testing.T) {
	pieces := []string{
		"Thor", "THOR", "thor", "Green Lantern", "green", " ", "  ", "\t", "!", "\u212a", "k", "K",
		"\u0130", "i", "I", "\u00a0", "é", "É", "ß", "ǅ", "\u023a", "\xff", "panda", "Kung Fu Panda 2",
		"Th", "en", "Lantern",
	}
	// Keywords also draw pieces no tweet holds, so some of their
	// trigrams are absent from the index.
	keywordPieces := append([]string{"zqx", "Lanternz", "qq"}, pieces...)
	rng := rand.New(rand.NewSource(1))
	draw := func(pieces []string, n int) string {
		var b strings.Builder
		for i := rng.Intn(n + 1); i > 0; i-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for round := 0; round < 50; round++ {
		texts := make([]string, rng.Intn(40))
		for i := range texts {
			texts[i] = draw(pieces, 8)
		}
		tweets := tweetsFrom(texts)
		stream := NewStream(tweets)
		for query := 0; query < 20; query++ {
			keywords := make([]string, rng.Intn(4))
			for i := range keywords {
				keywords[i] = draw(keywordPieces, 2)
			}
			switch n := len(keywords); {
			case n > 1 && rng.Intn(3) == 0:
				keywords[n-1] = keywords[0]
			case n > 1 && rng.Intn(2) == 0:
				// Overlapping keywords: their candidates repeat in the union.
				keywords[n-1] = keywords[0] + draw(pieces, 1)
			}
			q := jobs.Query{
				Keywords: keywords,
				Start:    queryStart.Add(time.Duration(rng.Intn(50)-10) * time.Minute),
				Window:   time.Duration(rng.Intn(50)) * time.Minute,
			}
			checkAgainstReference(t, stream, tweets, q)
		}
		checkTables(t, stream)
	}
}

// paddedStream is matches tweets about Thor followed by padding tweets
// about nothing, prepared and checked to match the Thor tweets.
func paddedStream(t *testing.T, matches, padding int) *Stream {
	t.Helper()
	tweets := testStream(t, 1, []string{"Thor"}, matches)
	for i := 0; i < padding; i++ {
		tweets = append(tweets, textgen.Tweet{ID: fmt.Sprintf("pad%d", i), Text: "Nothing About The Movie", At: queryStart})
	}
	s := NewStream(tweets)
	if got := s.Match(thorQuery).Len(); got != matches {
		t.Fatalf("matched %d tweets of a stream padded by %d, want %d", got, padding, matches)
	}
	return s
}

var thorQuery = Query("Thor", 0.9, queryStart, 24*time.Hour)

// A job pays for its matches, not for the stream: the per-job filter
// must not allocate in proportion to the tweets it rejects.
func TestStreamMatchAllocationsIndependentOfStreamLength(t *testing.T) {
	allocs := func(padding int) float64 {
		s := paddedStream(t, 16, padding)
		return testing.AllocsPerRun(20, func() { s.Match(thorQuery) })
	}
	if small, large := allocs(0), allocs(8192); small != large {
		t.Errorf("Stream.Match allocates %v times over 16 tweets and %v times over 16+8192: the filter pays per stream tweet", small, large)
	}
}

// A job's work outside the scheduler — filter, the request's questions
// and text hashes, the fold of its verdicts into a summary — allocates
// as often whatever the stream's length, and per matched tweet only
// through the questions, hashes and results slices, which grow in size,
// not in number, and the reason tallies, which grow with the words.
func TestJobPathAllocations(t *testing.T) {
	var sink exec.Summary
	allocs := func(matches, padding int) float64 {
		s := paddedStream(t, matches, padding)
		qs := s.Match(thorQuery).Questions(thorQuery.Domain)
		results := make([]engine.QuestionResult, len(qs))
		for i, q := range qs {
			results[i] = engine.QuestionResult{Question: q, Answer: q.Truth, Confidence: 0.9, Quality: 0.8}
		}
		slices.SortFunc(results, func(a, b engine.QuestionResult) int { return strings.Compare(a.Question.ID, b.Question.ID) })
		return testing.AllocsPerRun(20, func() {
			m := s.Match(thorQuery)
			m.Questions(thorQuery.Domain)
			m.TextHashes()
			fold := m.Fold(thorQuery.Domain, thorQuery.Keywords...)
			fold.ObserveResults(results, m.Tokens())
			sink = fold.Summary()
		})
	}
	small, padded, more := allocs(16, 0), allocs(16, 8192), allocs(64, 0)
	t.Logf("allocations per job: %v over 16 matches, %v over 16 of 8208 tweets, %v over 64 matches", small, padded, more)
	if small != padded {
		t.Errorf("the job path allocates %v times over 16 tweets and %v times over 16+8192: it pays per stream tweet", small, padded)
	}
	if more-small > 12 {
		t.Errorf("the job path allocates %v times over 16 matches and %v over 64: it pays per matched tweet", small, more)
	}
	if len(sink.Reasons) == 0 {
		t.Error("the fold found no reasons")
	}
}

// The filter verifies the tweets the trigram index names, not the
// whole stream; a keyword shorter than a trigram makes it scan.
func TestStreamFilterVerifiesOnlyCandidates(t *testing.T) {
	s := paddedStream(t, 16, 8192)
	cands, ok := s.candidates(textutil.FoldKeywords(thorQuery.Keywords))
	if !ok || len(cands) > 16 {
		t.Errorf("a query for Thor verifies %d of %d tweets (indexed: %v), want at most 16", len(cands), len(s.tweets), ok)
	}
	if _, ok := s.candidates(textutil.FoldKeywords([]string{"Thor", "th"})); ok {
		t.Error("a query with a 2-byte keyword was answered from the trigram index, want a scan")
	}
}

// The first Match folds the stream and tabulates its tweets; jobs
// arriving together must all see the folded text and the per-tweet
// tables complete. Run with -race.
func TestStreamConcurrentFirstUse(t *testing.T) {
	tweets := testStream(t, 3, []string{"Thor", "Green Lantern", "Kung Fu Panda 2"}, 200)
	for round := 0; round < 10; round++ {
		s := NewStream(tweets)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			movie := []string{"thor", "GREEN LANTERN", "Kung Fu Panda 2", "no such movie"}[g%4]
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := Query(movie, 0.9, queryStart, 24*time.Hour)
				want := refFilter(tweets, q)
				m := s.Match(q)
				if got := at(tweets, m.indices); !sameTweets(got, want) {
					t.Errorf("concurrent first Match(%q) = %d tweets, reference says %d", movie, len(got), len(want))
					return
				}
				hashes, tokens := m.TextHashes(), m.Tokens()
				for k, tw := range want {
					ids, _ := tokens(tw.ID)
					if hashes[k] != scheduler.TextHash(tw.Text) || !slices.Equal(words(s.vocab, ids), textutil.ContentTokens(tw.Text)) {
						t.Errorf("concurrent first Match(%q): tweet %q read hash %x and tokens %q", movie, tw.ID, hashes[k], words(s.vocab, ids))
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkStreamMatch is one job's filter over the benchmark's
// catalogue size: through a Stream prepared once (what the runners do),
// through the first use of a fresh Stream, which folds and indexes the
// whole stream, and through the one-shot tsa.Match, which folds and
// tests each tweet for its single query.
func BenchmarkStreamMatch(b *testing.B) {
	tweets, err := textgen.Generate(textgen.Config{Seed: 1, Movies: textgen.Movies200()[:64], TweetsPerMovie: 128})
	if err != nil {
		b.Fatal(err)
	}
	q := Query(textgen.Movies200()[7], 0.9, queryStart, 24*time.Hour)
	var sink int
	b.Run("prepared", func(b *testing.B) {
		s := NewStream(tweets)
		s.Match(q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = s.Match(q).Len()
		}
	})
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = NewStream(tweets).Match(q).Len()
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = len(Match(q, tweets).Tweets)
		}
	})
	if sink != 128 {
		b.Fatalf("matched %d tweets, want 128", sink)
	}
}
