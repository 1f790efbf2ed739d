package textutil

import (
	"reflect"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"don't stop", []string{"don't", "stop"}},
		{"iPhone4S rocks!!!", []string{"iphone4s", "rocks"}},
		{"", nil},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || !IsStopword("and") {
		t.Error("common stop words not recognised")
	}
	if IsStopword("terrible") || IsStopword("awesome") {
		t.Error("sentiment words must not be stop words")
	}
}

func TestContentTokens(t *testing.T) {
	got := ContentTokens("The movie was a terrible, terrible mess I think")
	for _, tok := range got {
		if IsStopword(tok) || len(tok) <= 1 {
			t.Errorf("content token %q should have been filtered", tok)
		}
	}
	want := map[string]bool{"movie": true, "terrible": true, "mess": true, "think": true}
	for _, tok := range got {
		if !want[tok] {
			t.Errorf("unexpected token %q in %v", tok, got)
		}
	}
}

func TestContainsAny(t *testing.T) {
	cases := []struct {
		text     string
		keywords []string
		want     bool
	}{
		{"Loving my iPhone4S so much", []string{"iphone4s"}, true},
		{"the green lantern is bad", []string{"Green Lantern"}, true},
		{"nothing relevant", []string{"iphone"}, false},
		{"empty keyword is skipped", []string{""}, false},
		{"multi keyword", []string{"zzz", "keyword"}, true},
		// Folding is Unicode's, not byte-wise: the Kelvin sign is a k.
		{"300 \u212a", []string{"k"}, true},
		{"\u0130stanbul", []string{"\u0130STANBUL"}, true},
		{"istanbul", []string{"\u0131stanbul"}, false}, // dotless ı folds to itself
	}
	for _, c := range cases {
		if got := ContainsAny(c.text, c.keywords); got != c.want {
			t.Errorf("ContainsAny(%q, %v) = %v, want %v", c.text, c.keywords, got, c.want)
		}
		// The prepared form a long-lived filter keeps is the same matcher.
		if got := FoldKeywords(c.keywords).In(Fold(c.text)); got != c.want {
			t.Errorf("FoldKeywords(%v).In(Fold(%q)) = %v, want %v", c.keywords, c.text, got, c.want)
		}
	}
}

// AppendContent over folded text numbers exactly ContentTokens' tokens,
// in order, whatever the text: punctuation, apostrophes, digits,
// non-ASCII letters and invalid UTF-8 split and join alike.
func TestVocabAppendContentMatchesContentTokens(t *testing.T) {
	texts := []string{
		"", "a", "The movie was a terrible, terrible mess I think",
		"don't stop", "iPhone4S rocks!!! iphone4s", "  multiple   spaces ",
		"Ünïcödé WORDS über alles", "Kelvin İstanbul", "bad \xff utf8\xffhere", "x y zz 42 4",
	}
	v := NewVocab()
	first := make([][]uint32, len(texts))
	for i, text := range texts {
		ids := v.AppendContent(nil, Fold(text))
		first[i] = ids
		got := make([]string, len(ids))
		for i, id := range ids {
			got[i] = v.Word(id)
		}
		if want := ContentTokens(text); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Errorf("AppendContent(%q) numbers %q, ContentTokens says %q", text, got, want)
		}
	}
	if again := v.AppendContent(nil, Fold(texts[2])); !reflect.DeepEqual(again, first[2]) || again[1] != again[2] {
		t.Errorf("re-reading %q numbered it %v, first %v: a word was interned twice", texts[2], again, first[2])
	}
	v.Freeze()
	if got := v.Word(first[2][0]); got != "movie" {
		t.Errorf("after Freeze word %d is %q, want %q", first[2][0], got, "movie")
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendContent on a frozen Vocab did not panic")
		}
	}()
	v.AppendContent(nil, "new words")
}
