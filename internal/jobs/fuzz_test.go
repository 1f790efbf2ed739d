package jobs

import (
	"math"
	"strings"
	"testing"
	"time"

	"cdas/internal/textutil"
)

// refValidate is an independent naive re-statement of Definition 1's
// well-formedness: at least one non-empty keyword, C in (0,1), >= 2
// distinct domain answers, positive window.
func refValidate(q Query) bool {
	nonEmpty := false
	for _, k := range q.Keywords {
		nonEmpty = nonEmpty || len(k) > 0
	}
	if !nonEmpty {
		return false
	}
	if math.IsNaN(q.RequiredAccuracy) || q.RequiredAccuracy <= 0 || q.RequiredAccuracy >= 1 {
		return false
	}
	if len(q.Domain) < 2 {
		return false
	}
	for i := range q.Domain {
		for j := i + 1; j < len(q.Domain); j++ {
			if q.Domain[i] == q.Domain[j] {
				return false
			}
		}
	}
	return q.Window > 0
}

func splitList(joined string) []string {
	if joined == "" {
		return nil
	}
	return strings.Split(joined, "|")
}

// FuzzQueryValidate: Validate never panics and accepts exactly the
// queries the naive reference accepts.
func FuzzQueryValidate(f *testing.F) {
	f.Add("iPhone4S|iPhone 4S", 0.95, "Best Ever|Good|Not Satisfied", int64(10*24*time.Hour))
	f.Add("", 0.5, "a|b", int64(time.Hour))
	f.Add("|", 0.5, "a|b", int64(time.Hour))
	f.Add("|k", 0.5, "a|b", int64(time.Hour))
	f.Add("k", 1.5, "a|b", int64(time.Hour))
	f.Add("k", 0.9, "dup|dup", int64(time.Hour))
	f.Add("k", 0.9, "only", int64(time.Hour))
	f.Add("k", 0.9, "a|b", int64(-5))
	f.Add("k", math.NaN(), "a|b", int64(1))

	f.Fuzz(func(t *testing.T, keywords string, c float64, domain string, windowNanos int64) {
		q := Query{
			Keywords:         splitList(keywords),
			RequiredAccuracy: c,
			Domain:           splitList(domain),
			Start:            time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC),
			Window:           time.Duration(windowNanos),
		}
		err := q.Validate() // must not panic
		if want := refValidate(q); (err == nil) != want {
			t.Errorf("Validate(%+v) err = %v, reference verdict %v", q, err, want)
		}
	})
}

// TestQueryWindowBoundaries pins the half-open [Start, Start+Window)
// contract exhaustively around both edges: for a sweep of window sizes
// the property "Matches iff 0 <= at-Start < Window" must hold at the
// boundaries themselves and one step either side of them — the exact
// offsets where an off-by-one in the comparison direction would flip
// the verdict. Standing queries assign items to tumbling windows with
// the same half-open arithmetic, so this is the boundary contract the
// stream watermark relies on.
func TestQueryWindowBoundaries(t *testing.T) {
	start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	for _, window := range []time.Duration{
		time.Nanosecond, time.Second, time.Minute, time.Hour, 24 * time.Hour,
	} {
		q := Query{Keywords: []string{"edge"}, Start: start, Window: window}
		offsets := []time.Duration{
			-window, -time.Nanosecond, 0, time.Nanosecond,
			window / 2, window - time.Nanosecond, window, window + time.Nanosecond, 2 * window,
		}
		for _, off := range offsets {
			at := start.Add(off)
			want := off >= 0 && off < window
			if got := q.Matches("on the edge", at); got != want {
				t.Errorf("window %v: Matches at start%+v = %v, want %v", window, off, got, want)
			}
		}
	}
	// Degenerate windows are empty — nothing matches, not even Start.
	for _, window := range []time.Duration{0, -time.Second} {
		q := Query{Keywords: []string{"edge"}, Start: start, Window: window}
		for _, off := range []time.Duration{-time.Second, 0, time.Second} {
			if q.Matches("on the edge", start.Add(off)) {
				t.Errorf("window %v: matched at start%+v, want empty window", window, off)
			}
		}
	}
}

// FuzzQueryMatches: Matches never panics and equals "inside the
// half-open window AND keyword filter hits", computed independently.
func FuzzQueryMatches(f *testing.F) {
	base := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC).Unix()
	f.Add("loving my new iphone4s!!", "iPhone4S", base, int64(24*time.Hour), base+3600)
	f.Add("android forever", "iPhone4S", base, int64(24*time.Hour), base+3600)
	f.Add("edge of window", "edge", base, int64(time.Hour), base+3600)
	f.Add("before start", "before", base, int64(time.Hour), base-1)
	f.Add("", "", int64(0), int64(0), int64(0))
	f.Add("t", "t", int64(math.MaxInt64/2), int64(math.MaxInt64), int64(math.MinInt64/2))

	f.Fuzz(func(t *testing.T, text, keywords string, startUnix, windowNanos, atUnix int64) {
		q := Query{
			Keywords: splitList(keywords),
			Start:    time.Unix(startUnix, 0).UTC(),
			Window:   time.Duration(windowNanos),
		}
		at := time.Unix(atUnix, 0).UTC()
		got := q.Matches(text, at) // must not panic
		// Reference: [Start, Start+Window) — mirroring the implementation's
		// time arithmetic exactly so overflow semantics agree — composed
		// with the keyword filter (itself fuzzed against a naive reference
		// in textutil).
		inWindow := !at.Before(q.Start) && at.Before(q.Start.Add(q.Window))
		want := inWindow && textutil.ContainsAny(text, q.Keywords)
		if got != want {
			t.Errorf("Matches(%q, %v) = %v, reference says %v (window [%v, +%v))",
				text, at, got, want, q.Start, q.Window)
		}
	})
}
