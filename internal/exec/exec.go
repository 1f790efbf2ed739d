// Package exec implements the CDAS program executor (Section 2.1): the
// computer-oriented half of a processing plan. For the TSA application it
// filters the incoming stream against the query's keywords and window,
// buffers candidates into HIT-sized batches for the crowdsourcing engine,
// and summarises accepted answers into the percentage-plus-reasons
// presentation of Section 4.3 (Table 1 / Figure 4).
package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"cdas/internal/jobs"
	"cdas/internal/textutil"
)

// Item is one stream element (e.g. a tweet) examined by the executor.
type Item struct {
	ID   string
	Text string
	At   time.Time
}

// Filter applies the query's keyword and window predicates to a stream
// slice, preserving order.
func Filter(items []Item, q jobs.Query) []Item {
	out := make([]Item, 0, len(items))
	for _, it := range items {
		if q.Matches(it.Text, it.At) {
			out = append(out, it)
		}
	}
	return out
}

// Buffer batches items for the engine: when Add fills the buffer it
// returns the completed batch. The zero value is unusable; use NewBuffer.
type Buffer struct {
	size  int
	items []Item
}

// NewBuffer creates a buffer emitting batches of size items. It panics if
// size <= 0.
func NewBuffer(size int) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("exec: buffer size must be positive, got %d", size))
	}
	return &Buffer{size: size, items: make([]Item, 0, size)}
}

// Add appends an item; when the buffer reaches its size the full batch is
// returned and the buffer reset.
func (b *Buffer) Add(it Item) ([]Item, bool) {
	b.items = append(b.items, it)
	if len(b.items) >= b.size {
		return b.flushLocked(), true
	}
	return nil, false
}

// Flush returns any buffered items (possibly none) and resets the buffer.
func (b *Buffer) Flush() []Item { return b.flushLocked() }

// Len reports the number of currently buffered items.
func (b *Buffer) Len() int { return len(b.items) }

func (b *Buffer) flushLocked() []Item {
	out := b.items
	b.items = make([]Item, 0, b.size)
	return out
}

// Outcome is the engine's verdict for one item, as consumed by the
// presentation layer. Exactly one of the two forms applies:
//   - Accepted != "": the answer was accepted (termination condition met);
//   - Accepted == "": no answer accepted yet; Confidences carries ρ(r).
type Outcome struct {
	ItemID      string
	Accepted    string
	Confidences map[string]float64
	// Confidence is the aggregator's confidence in the accepted answer
	// (0 when nothing is accepted yet).
	Confidence float64
	// Quality is the share of the item's voters that agreed with the
	// accepted answer.
	Quality float64
}

// Percentages computes the Section 4.3 result presentation: for each
// domain answer r, the mean over items of h_ti(r), where h is 1 if r was
// accepted for the item, 0 if another answer was accepted, and ρ_ti(r)
// when nothing is accepted yet. An empty outcome list yields all zeros.
func Percentages(domain []string, outcomes []Outcome) map[string]float64 {
	out := make(map[string]float64, len(domain))
	for _, r := range domain {
		out[r] = 0
	}
	if len(outcomes) == 0 {
		return out
	}
	for _, oc := range outcomes {
		if oc.Accepted != "" {
			if _, ok := out[oc.Accepted]; ok {
				out[oc.Accepted] += 1
			}
			continue
		}
		for r, p := range oc.Confidences {
			if _, ok := out[r]; ok {
				out[r] += p
			}
		}
	}
	n := float64(len(outcomes))
	for r := range out {
		out[r] /= n
	}
	return out
}

// Reasons extracts, per answer, the most frequent content words of the
// items that got that answer — the "reasons" column of Table 1 ("these
// keywords are the most frequent keywords submitted by the workers who
// have provided the answer"; our simulated workers submit the item's
// sentiment-bearing content words). topK bounds the list per answer.
// exclude lists words to skip — typically the query keywords, which
// appear in every matched item and would drown real reasons.
func Reasons(outcomes []Outcome, texts map[string]string, topK int, exclude ...string) map[string][]string {
	if topK <= 0 {
		topK = 3
	}
	excluded := make(map[string]struct{})
	for _, e := range exclude {
		for _, tok := range textutil.Tokenize(e) {
			excluded[tok] = struct{}{}
		}
	}
	freq := make(map[string]map[string]int)
	for _, oc := range outcomes {
		if oc.Accepted == "" {
			continue
		}
		text, ok := texts[oc.ItemID]
		if !ok {
			continue
		}
		m := freq[oc.Accepted]
		if m == nil {
			m = make(map[string]int)
			freq[oc.Accepted] = m
		}
		for _, tok := range textutil.ContentTokens(text) {
			if _, skip := excluded[tok]; skip {
				continue
			}
			m[tok]++
		}
	}
	return topWords(freq, topK)
}

// topWords renders a per-answer word-frequency tally into the topK most
// frequent words per answer (count descending, word ascending on ties) —
// Reasons' presentation step. Fold ranks its own tally (Fold.topWords),
// so a change to either order shows in TestFoldMatchesSummarise.
func topWords(freq map[string]map[string]int, topK int) map[string][]string {
	out := make(map[string][]string, len(freq))
	for answer, counts := range freq {
		type wc struct {
			word  string
			count int
		}
		ws := make([]wc, 0, len(counts))
		for w, c := range counts {
			ws = append(ws, wc{w, c})
		}
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].count != ws[j].count {
				return ws[i].count > ws[j].count
			}
			return ws[i].word < ws[j].word
		})
		if len(ws) > topK {
			ws = ws[:topK]
		}
		words := make([]string, len(ws))
		for i, w := range ws {
			words[i] = w.word
		}
		out[answer] = words
	}
	return out
}

// Summary is a rendered analytics result: the full presentation of
// Table 1 for one query.
type Summary struct {
	Domain      []string
	Percentages map[string]float64
	Reasons     map[string][]string
	Items       int
	// Confidence is the mean aggregator confidence over items with an
	// accepted answer; zero when none carried one.
	Confidence float64
	// Quality is the mean voter agreement with the accepted answers
	// over the same items; zero when none carried one.
	Quality float64
}

// Fold is a constant-memory Summary accumulator: outcomes are folded in
// one at a time and their texts can be discarded immediately afterwards,
// so a long-running stream holds O(domain x vocabulary) state instead of
// every outcome and every matched item's text. The reason tally counts
// token IDs from the fold's vocabulary and meets words only in Summary.
// Its Summary is bit-identical to Summarise over the same outcomes in
// the same order (per-answer float sums accumulate in observation
// order, exactly as Summarise's loops do). Not safe for concurrent use.
type Fold struct {
	domain   []string
	inDomain map[string]struct{}
	excluded map[string]struct{}
	percSums map[string]float64
	vocab    *textutil.Vocab
	freq     map[string]map[uint32]int // answer -> token ID -> count
	buf      []uint32                  // Observe's token IDs
	items    int
	accepted int
	confSum  float64
	qualSum  float64
}

// NewFold creates a fold over the query's answer domain with a
// vocabulary of its own, which Observe interns item texts into. exclude
// lists words (e.g. the query keywords) kept out of the reason lists.
func NewFold(domain []string, exclude ...string) *Fold {
	return NewFoldOver(textutil.NewVocab(), domain, exclude...)
}

// NewFoldOver creates a fold whose token IDs number words in vocab: the
// frozen vocabulary of a prepared stream, whose items' tokens
// ObserveResults reads as IDs, so no text is tokenised per fold.
func NewFoldOver(vocab *textutil.Vocab, domain []string, exclude ...string) *Fold {
	f := &Fold{
		domain:   append([]string(nil), domain...),
		inDomain: make(map[string]struct{}, len(domain)),
		excluded: make(map[string]struct{}),
		percSums: make(map[string]float64, len(domain)),
		vocab:    vocab,
		freq:     make(map[string]map[uint32]int),
	}
	for _, r := range domain {
		f.inDomain[r] = struct{}{}
		f.percSums[r] = 0
	}
	for _, e := range exclude {
		for _, tok := range textutil.Tokenize(e) {
			f.excluded[tok] = struct{}{}
		}
	}
	return f
}

// Observe folds one outcome in. text is the item's original text for
// reason extraction; an empty text is treated like Summarise's "text
// missing" case (the outcome still counts, but contributes no reasons).
// Its content words are interned into the fold's vocabulary, so the
// caller may drop the text after Observe returns. A fold over a frozen
// vocabulary (NewFoldOver) cannot intern, and panics.
func (f *Fold) Observe(oc Outcome, text string) {
	var ids []uint32
	if oc.Accepted != "" && text != "" {
		f.buf = f.vocab.AppendContent(f.buf[:0], textutil.Fold(text))
		ids = f.buf
	}
	f.observe(oc, ids, text != "")
}

// observe folds one outcome in with its item's content tokens, as IDs
// into f.vocab; hasText false is the "text missing" case.
func (f *Fold) observe(oc Outcome, ids []uint32, hasText bool) {
	f.items++
	if oc.Accepted == "" {
		for r, p := range oc.Confidences {
			if _, ok := f.inDomain[r]; ok {
				f.percSums[r] += p
			}
		}
		return
	}
	if _, ok := f.inDomain[oc.Accepted]; ok {
		f.percSums[oc.Accepted]++
	}
	f.accepted++
	f.confSum += oc.Confidence
	f.qualSum += oc.Quality
	if !hasText {
		return
	}
	m := f.freq[oc.Accepted]
	if m == nil {
		m = make(map[uint32]int)
		f.freq[oc.Accepted] = m
	}
	for _, id := range ids {
		m[id]++
	}
}

// Summary renders the current percentages-plus-reasons presentation.
func (f *Fold) Summary() Summary {
	perc := make(map[string]float64, len(f.domain))
	for _, r := range f.domain {
		perc[r] = 0
	}
	if f.items > 0 {
		n := float64(f.items)
		for r := range perc {
			perc[r] = f.percSums[r] / n
		}
	}
	reasons := make(map[string][]string, len(f.freq))
	for answer, counts := range f.freq {
		reasons[answer] = f.topWords(counts, 3)
	}
	s := Summary{
		Domain:      append([]string(nil), f.domain...),
		Percentages: perc,
		Reasons:     reasons,
		Items:       f.items,
	}
	if f.accepted > 0 {
		s.Confidence = f.confSum / float64(f.accepted)
		s.Quality = f.qualSum / float64(f.accepted)
	}
	return s
}

// topWords maps one answer's tally back to words and returns its topK
// most frequent, count descending and word ascending on ties: Reasons'
// order, which TestFoldMatchesSummarise holds it to. Excluded words are
// tallied like any other and dropped here, which leaves the same list
// as never counting them.
func (f *Fold) topWords(counts map[uint32]int, topK int) []string {
	type wordCount struct {
		word  string
		count int
	}
	ws := make([]wordCount, 0, len(counts))
	for id, c := range counts {
		w := f.vocab.Word(id)
		if _, skip := f.excluded[w]; !skip {
			ws = append(ws, wordCount{w, c})
		}
	}
	slices.SortFunc(ws, func(a, b wordCount) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return strings.Compare(a.word, b.word)
	})
	words := make([]string, min(topK, len(ws)))
	for i := range words {
		words[i] = ws[i].word
	}
	return words
}

// Summarise builds a Summary from outcomes. exclude lists words (e.g. the
// query keywords) to keep out of the reason lists.
func Summarise(domain []string, outcomes []Outcome, texts map[string]string, exclude ...string) Summary {
	confSum, qualSum, accepted := 0.0, 0.0, 0
	for _, oc := range outcomes {
		if oc.Accepted == "" {
			continue
		}
		accepted++
		confSum += oc.Confidence
		qualSum += oc.Quality
	}
	s := Summary{
		Domain:      append([]string(nil), domain...),
		Percentages: Percentages(domain, outcomes),
		Reasons:     Reasons(outcomes, texts, 3, exclude...),
		Items:       len(outcomes),
	}
	if accepted > 0 {
		s.Confidence = confSum / float64(accepted)
		s.Quality = qualSum / float64(accepted)
	}
	return s
}
