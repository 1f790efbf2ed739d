package scheduler

import (
	"strings"
	"testing"

	"cdas/internal/crowd"
)

// FuzzQuestionKey checks the dedup key's two safety properties on
// arbitrary inputs:
//
//  1. canonically-equal questions never produce distinct keys — case,
//     edge whitespace, domain order, question ID and simulation-only
//     fields must not affect identity;
//  2. questions over distinct canonical domains never collide — the
//     domain hash is a dedicated key prefix, so cross-domain reuse of a
//     cached answer is structurally impossible;
//  3. the key Enqueue joins from a caller-supplied TextHash
//     (Request.TextHashes) is QuestionKey, for any text, and both
//     halves are the length-prefixed hashes of the canonical forms —
//     the text's taken from its upper case, so that case cannot split
//     a key even where lower-casing alone would;
//  4. an enumeration item's key (ItemKey) folds case the same way.
//
// The committed seed corpus (testdata/fuzz/FuzzQuestionKey) pins the
// known-tricky shapes: separator injection, unicode case folding,
// whitespace-only distinctions, and domains differing only by a dup.
func FuzzQuestionKey(f *testing.F) {
	f.Add("Is this tweet positive about Thor?", "Positive,Neutral,Negative", "Mixed", 1)
	f.Add("a  b", "yes,no", "maybe", 2)
	f.Add("", "x,y", "z", 0)
	f.Add("pos,neu", "a,b", "a,b", 3) // commas in text vs domain separators
	f.Add("HELLO\tWORLD", "Yes, No ", "NO", 5)
	f.Add("  Ünïcödé\u00a0 \u212aELVIN  İstanbul\n", "Ja,Nein", "NEIN", 1) // non-ASCII case and space
	f.Add("bad \xff UTF-8\t\tRUNS", "a,b", "", 0)
	f.Add("µ λόγος", "0", "0", -24) // lower-casing alone keeps µ from Μ and ς from Σ
	f.Fuzz(func(t *testing.T, text, domainCSV, extra string, rot int) {
		domain := strings.Split(domainCSV, ",")
		base := crowd.Question{ID: "base/0", Text: text, Domain: domain}
		key := QuestionKey(base)

		// Property 1a: key is domain-prefixed and well-formed.
		if !strings.HasPrefix(key, DomainKey(domain)+"/") {
			t.Fatalf("key %q lacks its domain prefix", key)
		}

		// Property 1b: canonical perturbations preserve the key.
		perturbed := crowd.Question{
			ID:         "other/1",
			Text:       "  " + strings.ToUpper(text) + "\t",
			Domain:     rotate(domain, rot),
			Truth:      extra,
			Difficulty: 0.5,
			Trap:       extra,
		}
		if got := QuestionKey(perturbed); got != key {
			t.Errorf("canonically-equal questions got distinct keys:\n%q\n%q", key, got)
		}

		// Property 3: a key joined from a precomputed text hash, of the
		// text as given or canonically perturbed, is QuestionKey, which
		// is the two halves' length-prefixed hashes.
		for _, q := range []crowd.Question{base, perturbed} {
			if got, want := questionKey(DomainKey(q.Domain), TextHash(q.Text)), QuestionKey(q); got != want {
				t.Errorf("key from the text hash of %q = %q, QuestionKey says %q", q.Text, got, want)
			}
		}
		if want := hashStrings(CanonicalDomain(domain)) + "/" + hashStrings([]string{NormalizeText(strings.ToUpper(text))}); key != want {
			t.Errorf("QuestionKey = %q, the length-prefixed hashes of the canonical halves say %q", key, want)
		}

		// Property 4: an enumeration item's key folds case as the question
		// key does: upper- and lower-cased text name one item.
		if up, low, given := ItemKey(strings.ToUpper(text)), ItemKey(strings.ToLower(text)), ItemKey(text); up != low || up != given {
			t.Errorf("item keys of %q split by case: upper %q, lower %q, as given %q", text, up, low, given)
		}

		// Property 2: a canonically-distinct domain never shares a key
		// (nor a domain group) with the base question.
		other := append(rotate(domain, rot), extra)
		if sameCanonicalDomain(domain, other) {
			return
		}
		if DomainKey(other) == DomainKey(domain) {
			t.Errorf("distinct canonical domains %v and %v share a domain key", domain, other)
		}
		if got := QuestionKey(crowd.Question{Text: text, Domain: other}); got == key {
			t.Errorf("distinct domains collided on full key %q", key)
		}
	})
}

// rotate returns a copy of xs rotated by n (canonical-set preserving).
func rotate(xs []string, n int) []string {
	out := make([]string, 0, len(xs))
	if len(xs) == 0 {
		return out
	}
	if n < 0 {
		n = -n
	}
	n %= len(xs)
	out = append(out, xs[n:]...)
	return append(out, xs[:n]...)
}

// sameCanonicalDomain is the naive reference the fuzzed implementation
// is checked against.
func sameCanonicalDomain(a, b []string) bool {
	ca, cb := CanonicalDomain(a), CanonicalDomain(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// FuzzNormalizeText: the ASCII paths — return the argument untouched,
// or fold and collapse byte-wise — must agree with the rune-wise path
// they short-cut, on every input, and the result must be a fixed point
// (canonical text is what the zero-allocation path recognises).
func FuzzNormalizeText(f *testing.F) {
	for _, s := range []string{
		"", " ", "a", "A", "a b", "a  b", " a", "a ", "a \tb", "a \t", "\ta", "a\tb", "a\vb\fc\r\n",
		"Hello World", "already canonical", "trailing space ", "MiXeD   Case", "x \u00a0y", "\u212aelvin", "İstanbul",
		"ascii then ünïcode", "ASCII Then Ünïcode", "bad utf8 \xff here", "a\x85b", "\x00 \x7f",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := NormalizeText(s)
		if want := normalizeUnicode(s); got != want {
			t.Fatalf("NormalizeText(%q) = %q, the rune-wise path says %q", s, got, want)
		}
		if again := NormalizeText(got); again != got {
			t.Errorf("NormalizeText(%q) = %q is not a fixed point: renormalises to %q", s, got, again)
		}
	})
}

// TestNormalizeTextSmallStrings runs FuzzNormalizeText's agreement check
// over every string of up to six symbols from an alphabet with one of
// each kind of byte the ASCII paths tell apart.
func TestNormalizeTextSmallStrings(t *testing.T) {
	alphabet := []string{"a", "Z", " ", "\t", "é"}
	var walk func(s string, depth int)
	walk = func(s string, depth int) {
		if got, want := NormalizeText(s), normalizeUnicode(s); got != want {
			t.Errorf("NormalizeText(%q) = %q, the rune-wise path says %q", s, got, want)
		}
		if depth == 0 {
			return
		}
		for _, a := range alphabet {
			walk(s+a, depth-1)
		}
	}
	walk("", 6)
}
