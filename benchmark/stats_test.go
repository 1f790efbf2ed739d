package main

import "testing"

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 750, true}, {99, 750, true}, {100, 900, true},
		{199, 900, true}, {200, 950, true}, {999, 950, true}, {1000, 990, true},
		{9999, 990, true}, {10000, 999, true},
	} {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("supportedTail(%d) = %v leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestSummarizeUsesNearestRank(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1..1000, unsorted
	}
	d := summarize(samples)
	if d.N != 1000 || d.P50 != 500 || d.TailP != 0.99 || d.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if samples[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	few := summarize([]float64{3, 1, 2})
	if few.P50 != 2 || few.TailP != 0 || few.Tail != few.P50 {
		t.Errorf("an unsupported tail must fall back to the median, got %+v", few)
	}
	if got := summarize(nil); got != (dist{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestSlicedPercentileIsTheTypicalSlicesNotTheBurstiestOnes(t *testing.T) {
	// 16 slices of 100 samples 1..100; three of them are a burst, ten times
	// slower. The whole-run p90 lands in the burst, the typical slice's
	// does not.
	var samples []float64
	for slice := 0; slice < 16; slice++ {
		scale := 1.0
		if slice%5 == 4 {
			scale = 10
		}
		for i := 1; i <= 100; i++ {
			samples = append(samples, scale*float64(i))
		}
	}
	if got := slicedPercentile(samples, 900); got != 90 {
		t.Errorf("sliced p90 = %v, want the typical slice's 90", got)
	}
	if got := percentileOf(samples, 900); got <= 100 {
		t.Errorf("whole-run p90 = %v, want it inside the bursts", got)
	}
	// Too few samples for two slices: the plain percentile.
	if got := slicedPercentile(samples[:150], 500); got != percentileOf(samples[:150], 500) {
		t.Errorf("150 samples were sliced: %v", got)
	}
	if got := slicedPercentile(nil, 900); got != 0 {
		t.Errorf("no samples gave %v", got)
	}
}
