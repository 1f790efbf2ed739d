package exec

import (
	"fmt"
	"reflect"
	"testing"

	"cdas/internal/randx"
	"cdas/internal/textutil"
)

// TestFoldMatchesSummarise drives randomized outcome sequences through
// the batch Summarise and the incremental Fold and requires
// bit-identical summaries — the contract that lets stream processors
// drop item texts after folding without changing any published result.
// The fold is fed twice: texts through Observe, which interns them into
// its own vocabulary, and token IDs from a frozen shared vocabulary, as
// a prepared stream feeds ObserveResults. The outcomes hold count ties,
// excluded keywords in any case, texts of nothing but stop words and
// excluded words, answers outside the domain, and undecided outcomes
// whose confidence mass reaches the percentages.
func TestFoldMatchesSummarise(t *testing.T) {
	domain := []string{"Positive", "Neutral", "Negative"}
	exclude := []string{"iPhone4S", "thor"}
	words := []string{"love", "hate", "great", "meh", "broken", "shiny", "thor", "iphone4s", "THOR", "the"}

	rng := randx.New(77)
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(40)
		outcomes := make([]Outcome, 0, n)
		texts := make(map[string]string, n)
		fold := NewFold(domain, exclude...)
		vocab := textutil.NewVocab()
		type observation struct {
			oc      Outcome
			ids     []uint32
			hasText bool
		}
		var observed []observation
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("it%03d", i)
			oc := Outcome{ItemID: id}
			switch rng.IntN(4) {
			case 0: // undecided: confidence mass over the domain (plus one stray)
				oc.Confidences = map[string]float64{
					domain[rng.IntN(len(domain))]: rng.Float64(),
					"NotInDomain":                 rng.Float64(),
				}
			case 1: // accepted answer outside the domain
				oc.Accepted = "Rogue"
				oc.Confidence = rng.Float64()
				oc.Quality = rng.Float64()
			default:
				oc.Accepted = domain[rng.IntN(len(domain))]
				oc.Confidence = rng.Float64()
				oc.Quality = rng.Float64()
			}
			text := ""
			switch r := rng.IntN(6); {
			case oc.Accepted == "" || r == 0:
			case r == 1: // no content word survives: stop words and excluded keywords only
				text = "so the Thor, a iPhone4S"
			default:
				text = words[rng.IntN(len(words))] + " " + words[rng.IntN(len(words))] + " so " + words[rng.IntN(len(words))]
			}
			if text != "" {
				texts[id] = text
			}
			outcomes = append(outcomes, oc)
			fold.Observe(oc, text)
			var ids []uint32
			if text != "" {
				ids = vocab.AppendContent(nil, textutil.Fold(text))
			}
			observed = append(observed, observation{oc, ids, text != ""})
		}
		vocab.Freeze()
		tokenFold := NewFoldOver(vocab, domain, exclude...)
		for _, o := range observed {
			tokenFold.observe(o.oc, o.ids, o.hasText)
		}

		want := Summarise(domain, outcomes, texts, exclude...)
		for name, f := range map[string]*Fold{"Observe": fold, "token IDs": tokenFold} {
			if got := f.Summary(); !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d: fold fed by %s diverged from Summarise\nwant %#v\ngot  %#v", trial, name, want, got)
			}
		}
	}
}

// TestFoldEmpty pins the zero-observation rendering: all-zero
// percentages, no reasons, no confidence — exactly Summarise's.
func TestFoldEmpty(t *testing.T) {
	domain := []string{"a", "b"}
	want := Summarise(domain, nil, nil)
	got := NewFold(domain).Summary()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("empty fold diverged: want %#v, got %#v", want, got)
	}
}
