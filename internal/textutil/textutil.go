// Package textutil provides the small text-processing substrate shared by
// the program executor (keyword filtering, reason extraction) and the SVM
// baseline (bag-of-words featurisation): tokenisation, stop-word removal
// and case folding.
package textutil

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases text and splits it into alphanumeric word tokens.
// Apostrophes inside words are kept ("don't" stays one token); all other
// punctuation separates tokens.
func Tokenize(text string) []string {
	text = strings.ToLower(text)
	return strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r) && r != '\''
	})
}

// stopwords is a compact English stop-word list tuned for tweet-length
// texts; sentiment-bearing words are deliberately not included.
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "from": {}, "had": {}, "has": {},
	"have": {}, "he": {}, "her": {}, "his": {}, "i": {}, "in": {}, "is": {},
	"it": {}, "its": {}, "just": {}, "me": {}, "my": {}, "of": {}, "on": {},
	"or": {}, "our": {}, "she": {}, "so": {}, "that": {}, "the": {},
	"their": {}, "them": {}, "they": {}, "this": {}, "to": {}, "was": {},
	"we": {}, "were": {}, "will": {}, "with": {}, "you": {}, "your": {},
	"rt": {}, "u": {}, "ur": {}, "im": {}, "am": {}, "been": {}, "do": {},
	"did": {}, "does": {}, "what": {}, "when": {}, "who": {}, "how": {},
	"about": {}, "out": {}, "up": {}, "down": {}, "all": {}, "some": {},
}

// IsStopword reports whether the (lower-case) token is a stop word.
func IsStopword(tok string) bool {
	_, ok := stopwords[tok]
	return ok
}

// ContentTokens tokenises text and strips stop words and single-character
// tokens.
func ContentTokens(text string) []string {
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		if len(t) > 1 && !IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}

// Vocab numbers content words densely from 0, in the order it first
// sees them, so a tally can count integers instead of strings. While it
// interns it is not safe for concurrent use; once frozen it only reads,
// and any number of goroutines may share it.
type Vocab struct {
	ids   map[string]uint32 // nil once frozen
	words []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{ids: make(map[string]uint32)} }

// AppendContent appends to dst the IDs of folded's content tokens, in
// order: the tokens ContentTokens returns for the text folded was
// folded from, so folded must be text already passed through Fold.
// Words the vocabulary has not seen are interned as copies, so it never
// keeps folded alive. It panics on a frozen vocabulary.
func (v *Vocab) AppendContent(dst []uint32, folded string) []uint32 {
	if v.ids == nil {
		panic("textutil: AppendContent on a frozen Vocab")
	}
	start := -1 // the current token's first byte, -1 between tokens
	for i, r := range folded {
		if unicode.IsLetter(r) || unicode.IsNumber(r) || r == '\'' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = v.appendContent(dst, folded[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = v.appendContent(dst, folded[start:])
	}
	return dst
}

func (v *Vocab) appendContent(dst []uint32, tok string) []uint32 {
	if len(tok) <= 1 || IsStopword(tok) {
		return dst
	}
	id, ok := v.ids[tok]
	if !ok {
		w := strings.Clone(tok)
		id = uint32(len(v.words))
		v.words = append(v.words, w)
		v.ids[w] = id
	}
	return append(dst, id)
}

// Freeze ends interning: the vocabulary drops its word index and from
// then on only maps IDs to words.
func (v *Vocab) Freeze() { v.ids = nil }

// Word returns the word numbered id.
func (v *Vocab) Word(id uint32) string { return v.words[id] }

// Fold case-folds s the way the keyword matcher compares text. A filter
// that outlives one comparison folds each side once — tsa.Stream its
// tweets, a standing query its keywords — and compares with
// Keywords.In.
func Fold(s string) string { return strings.ToLower(s) }

// Keywords is a keyword list prepared for matching: every keyword
// folded, empty ones dropped.
type Keywords []string

// FoldKeywords prepares keywords for Keywords.In.
func FoldKeywords(keywords []string) Keywords {
	out := make(Keywords, 0, len(keywords))
	for _, k := range keywords {
		if k != "" {
			out = append(out, Fold(k))
		}
	}
	return out
}

// In reports whether folded — text already passed through Fold —
// contains any of the keywords as a substring.
func (ks Keywords) In(folded string) bool {
	for _, k := range ks {
		if strings.Contains(folded, k) {
			return true
		}
	}
	return false
}

// ContainsAny reports whether text contains any of the keywords,
// case-insensitively, as a substring match (the paper's executor checks
// "whether the query keyword exists in a tweet").
func ContainsAny(text string, keywords []string) bool {
	return FoldKeywords(keywords).In(Fold(text))
}

// Hash32 is allocation-free FNV-1a over s — the stripe selector shared
// by the lock-striped structures (profile store, scheduler answer
// cache). Callers fold the result with a power-of-two mask.
func Hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
