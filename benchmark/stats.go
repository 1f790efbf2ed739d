package main

import (
	"sort"
	"time"
)

// tailLadder lists the candidate tail percentiles in permille, ascending.
// Integers, so that "ten samples beyond p99 of 1000" is not decided by
// how 0.99 rounds.
var tailLadder = []int{750, 900, 950, 990, 999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the figure is one slow request, not a
// statistic.
const minBeyond = 10

// rank is the 1-based nearest rank of a permille percentile among n
// ascending samples.
func rank(n, permille int) int { return max((n*permille+999)/1000, 1) }

// supportedTail returns the highest ladder percentile (permille) with at
// least minBeyond samples beyond it; ok is false when even the lowest
// rung is unsupported (n < 40).
func supportedTail(n int) (permille int, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			permille, ok = q, true
		}
	}
	return permille, ok
}

// percentile is the nearest-rank percentile of a non-empty ascending
// slice.
func percentile(sorted []float64, permille int) float64 {
	return sorted[rank(len(sorted), permille)-1]
}

// dist summarises one timing: the median plus the highest supported
// tail percentile, with the sample count that justifies it.
type dist struct {
	N     int
	P50   float64
	Tail  float64 // equals P50 when no tail percentile is supported
	TailP float64 // 0 when no tail percentile is supported
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 500)}
	d.Tail = d.P50
	if p, ok := supportedTail(len(s)); ok {
		d.TailP, d.Tail = float64(p)/1000, percentile(s, p)
	}
	return d
}

const (
	// sliceSamples is the least a slice holds, so that its p90 has
	// minBeyond samples beyond it.
	sliceSamples = 100
	maxSlices    = 16
)

// slicedPercentile cuts samples, which are in submission order, into up
// to maxSlices consecutive slices of at least sliceSamples and returns the
// median of the slices' percentiles (the plain percentile when there are
// too few for two slices). Under a closed loop latency comes in bursts —
// one slice's p90 is twice its neighbour's — and the percentile of the
// whole run is set by how many bursts the run happened to contain; the
// typical slice repeats. The bursts stay visible in the tail percentile.
func slicedPercentile(inOrder []float64, permille int) float64 {
	k := min(len(inOrder)/sliceSamples, maxSlices)
	if k < 2 {
		return percentileOf(inOrder, permille)
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = percentileOf(inOrder[i*len(inOrder)/k:(i+1)*len(inOrder)/k], permille)
	}
	return median(per)
}

// percentileOf is the nearest-rank percentile of an unsorted sample (0
// when empty).
func percentileOf(samples []float64, permille int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, permille)
}

// median of a small unsorted sample (0 when empty).
func median(samples []float64) float64 { return percentileOf(samples, 500) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 — for shares whose base can be empty on a
// workload that bypasses the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
