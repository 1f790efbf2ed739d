package scheduler

import (
	"fmt"
	"strings"
	"testing"

	"cdas/internal/crowd"
)

func TestNormalizeText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"  ", ""},
		{"Hello World", "hello world"},
		{"  Hello   World  ", "hello world"},
		{"HELLO\t\nworld", "hello world"},
		{"a  b\tc\nd", "a b c d"},
		{"already normal", "already normal"},
	}
	for _, c := range cases {
		if got := NormalizeText(c.in); got != c.want {
			t.Errorf("NormalizeText(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCanonicalDomain(t *testing.T) {
	a := CanonicalDomain([]string{"Positive", "Neutral", "Negative"})
	b := CanonicalDomain([]string{"negative", " neutral ", "POSITIVE"})
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("canonical domains differ: %v vs %v", a, b)
	}
	if got := strings.Join(a, "|"); got != "negative|neutral|positive" {
		t.Errorf("canonical domain = %q, want sorted normalised entries", got)
	}
	// Duplicates (after normalisation) collapse.
	c := CanonicalDomain([]string{"pos", "POS", "neg"})
	if len(c) != 2 {
		t.Errorf("duplicate entries kept: %v", c)
	}
}

func TestQuestionKeyEquivalence(t *testing.T) {
	base := crowd.Question{
		ID:     "t1/q1",
		Text:   "Is this tweet positive about Thor?",
		Domain: []string{"Positive", "Neutral", "Negative"},
	}
	same := []crowd.Question{
		{ID: "other/id", Text: base.Text, Domain: base.Domain},
		{ID: "x", Text: "  is THIS tweet  positive about thor? ", Domain: base.Domain},
		{ID: "y", Text: base.Text, Domain: []string{"negative", "Neutral", "positive"}},
		{ID: "z", Text: base.Text, Domain: base.Domain, Truth: "Positive", Difficulty: 0.9},
	}
	want := QuestionKey(base)
	for i, q := range same {
		if got := QuestionKey(q); got != want {
			t.Errorf("case %d: key %q != base key %q", i, got, want)
		}
	}
}

func TestQuestionKeyDistinctions(t *testing.T) {
	base := crowd.Question{Text: "Is this tweet positive?", Domain: []string{"pos", "neu", "neg"}}
	diffText := crowd.Question{Text: "Is this tweet negative?", Domain: base.Domain}
	diffDomain := crowd.Question{Text: base.Text, Domain: []string{"yes", "no"}}
	if QuestionKey(base) == QuestionKey(diffText) {
		t.Error("different texts share a key")
	}
	if QuestionKey(base) == QuestionKey(diffDomain) {
		t.Error("different domains share a key")
	}
	// The domain hash is a dedicated key prefix: distinct canonical
	// domains can never collide on the full key.
	if !strings.HasPrefix(QuestionKey(base), DomainKey(base.Domain)+"/") {
		t.Error("question key does not start with its domain key")
	}
}

func TestHashStringsInjective(t *testing.T) {
	// Length-prefixing means concatenation ambiguity cannot collide:
	// ["ab","c"] vs ["a","bc"] vs ["abc"].
	keys := map[string][]string{}
	for _, parts := range [][]string{{"ab", "c"}, {"a", "bc"}, {"abc"}, {"", "abc"}, {"abc", ""}} {
		h := hashStrings(parts)
		if prev, dup := keys[h]; dup {
			t.Fatalf("hash collision between %v and %v", prev, parts)
		}
		keys[h] = parts
	}
}

func TestCanonicalID(t *testing.T) {
	key := QuestionKey(crowd.Question{Text: "q", Domain: []string{"a", "b"}})
	id := CanonicalID(key)
	if !strings.HasPrefix(id, "c/") {
		t.Errorf("canonical ID %q lacks the c/ prefix", id)
	}
	if strings.HasPrefix(id, "golden/") {
		t.Errorf("canonical ID %q collides with the golden namespace", id)
	}
}

// Keys are durable identity — cache entries, seeds and HIT names derive
// from them — so a faster derivation must produce the same strings. The
// values below were printed by the commit before NormalizeText grew its
// ASCII paths and Enqueue stopped calling QuestionKey per question.
func TestKeyGoldens(t *testing.T) {
	domains := []struct {
		domain []string
		want   string
	}{
		{[]string{"Positive", "Neutral", "Negative"}, "f6d05cb5e8e2cf4d"},
		{[]string{"negative", " neutral ", "POSITIVE"}, "f6d05cb5e8e2cf4d"},                       // permuted, padded, recased
		{[]string{"Positive", "positive", "Neutral", "Negative", "NEGATIVE"}, "f6d05cb5e8e2cf4d"}, // duplicated
		{[]string{"Positive", "Neutral", "Negative", "Mixed"}, "4c6d3a83d09522ef"},
		{[]string{"yes", "no"}, "b819de7dc17ef486"},
		{[]string{"Ünïcode", "\u212a", "İ"}, "3ce0cc4ea7e7186b"},
		{[]string{"a  b", "a b"}, "774f5c152323a0a9"},
	}
	for _, c := range domains {
		if got := DomainKey(c.domain); got != c.want {
			t.Errorf("DomainKey(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
	texts := []struct{ text, question, item string }{
		{"Is this tweet positive about Thor?", "f6d05cb5e8e2cf4d/a0c96b56f6ffd200", "7904e726201bf977"},
		{"  is THIS tweet\t\tpositive   about thor? \n", "f6d05cb5e8e2cf4d/a0c96b56f6ffd200", "7904e726201bf977"},
		{"already canonical text", "f6d05cb5e8e2cf4d/2746a0a231645fd6", "e5be88210f084217"},
		{"", "f6d05cb5e8e2cf4d/af5570f5a1810b7a", "59181a10f59787bf"},
		{"MiXeD Case  and NBSP\u00a0with \u212a and İ", "f6d05cb5e8e2cf4d/c3be7cf6611b2680", "c64a2312297c0d57"},
		{"tab\tseparated\vwords\f\r\n", "f6d05cb5e8e2cf4d/529a1b93802e41ec", "2514da1cdccb7bb5"},
	}
	for _, c := range texts {
		if got := QuestionKey(crowd.Question{Text: c.text, Domain: domains[0].domain}); got != c.question {
			t.Errorf("QuestionKey(%q) = %q, want %q", c.text, got, c.question)
		}
		if got := ItemKey(c.text); got != c.item {
			t.Errorf("ItemKey(%q) = %q, want %q", c.text, got, c.item)
		}
	}
}

// Enqueue derives the domain key once per run of equal domains; every
// question must still get exactly the key QuestionKey gives it — across
// a change of domain mid-request, a re-spelled copy of the same set, and
// under an aggregator's key prefix.
func TestEnqueueKeysMatchQuestionKey(t *testing.T) {
	var qs []crowd.Question
	for i, domain := range [][]string{
		testDomain, testDomain, {"positive", "neutral", "negative"}, {"yes", "no"}, {"yes", "no"}, testDomain,
	} {
		qs = append(qs, crowd.Question{
			ID:     fmt.Sprintf("q%d", i),
			Text:   fmt.Sprintf("  Question  #%d?", i/2),
			Domain: append([]string(nil), domain...), // a copy per question, as tsa.QuestionsInDomain makes
		})
	}
	for _, dedup := range []bool{true, false} {
		s := newTestScheduler(t, func(c *Config) { c.DisableDedup = !dedup })
		for _, agg := range []string{"", "majority"} {
			prefix := ""
			if agg != "" {
				prefix = "agg/" + agg + "/"
			}
			ticket, err := s.Enqueue(Request{Job: "keys" + agg, Aggregator: agg, Questions: qs})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				ref := ticket.keys[i]
				if want := prefix + QuestionKey(q); ref.key != want {
					t.Errorf("dedup=%v agg=%q question %d: key %q, want %q", dedup, agg, i, ref.key, want)
				}
				if want := prefix + DomainKey(q.Domain); ref.dk != want {
					t.Errorf("dedup=%v agg=%q question %d: domain key %q, want %q", dedup, agg, i, ref.dk, want)
				}
				if dedup && ref.slotKey != ref.key {
					t.Errorf("agg=%q question %d: slot key %q differs from key %q with dedup on", agg, i, ref.slotKey, ref.key)
				}
			}
		}
	}
	s := newTestScheduler(t, nil)
	ticket, err := s.Enqueue(Request{Job: "gold", Aggregator: "majority", Questions: []crowd.Question{
		{ID: "q", Text: "Is this tweet positive about Thor?", Domain: testDomain},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ticket.keys[0].key, "agg/majority/f6d05cb5e8e2cf4d/a0c96b56f6ffd200"; got != want {
		t.Errorf("aggregator-qualified key %q, want %q", got, want)
	}
}

// refMapAnswer is MapAnswer as it was before the spelling table: one
// NormalizeText per domain entry per call.
func refMapAnswer(answer string, domain []string) string {
	norm := NormalizeText(answer)
	for _, d := range domain {
		if NormalizeText(d) == norm {
			return d
		}
	}
	return answer
}

func TestSpellingMatchesMapAnswer(t *testing.T) {
	domains := [][]string{
		testDomain,
		{"positive", "neutral", "negative"},
		{"Good", "good", "BAD"}, // canonically equal entries: the first wins
		{"good", "Good", "bad "},
		{" Two  Words ", "two words", "Ünï"},
		{},
	}
	answers := []string{
		"Positive", "positive", " POSITIVE\t", "Neutral", "good", "GOOD", "Good", "bad", "Bad",
		"two words", "TWO\nWORDS", "ünï", "ÜNÏ", "", "outside the domain", "Outside The Domain",
	}
	for _, domain := range domains {
		for _, answer := range answers {
			if got, want := MapAnswer(answer, domain), refMapAnswer(answer, domain); got != want {
				t.Errorf("MapAnswer(%q, %q) = %q, reference says %q", answer, domain, got, want)
			}
		}
	}
	// One ticket, domains changing under it between questions — equal
	// contents in a fresh slice, a re-spelling, another set and back —
	// with every answer asked twice so both the miss and the memo serve.
	var ticket Ticket
	for round := 0; round < 2; round++ {
		for _, domain := range domains {
			for _, d := range [][]string{domain, append([]string(nil), domain...)} {
				for _, answer := range append(answers, answers...) {
					if got, want := ticket.spelling(d).of(answer), refMapAnswer(answer, d); got != want {
						t.Errorf("ticket.spelling(%q).of(%q) = %q, reference says %q", d, answer, got, want)
					}
				}
			}
		}
	}
}

func TestNormalizeTextAllocations(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"already canonical text, with punctuation: 100%?", 0},
		{"negative", 0},
		{"", 0},
		{"Positive", 1},
		{"  Needs   Folding and\tcollapsing ", 1},
	} {
		if got := testing.AllocsPerRun(100, func() { NormalizeText(c.in) }); got != c.want {
			t.Errorf("NormalizeText(%q): %v allocations per call, want %v", c.in, got, c.want)
		}
	}
}
