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
