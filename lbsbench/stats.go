package main

import (
	"math"
	"sort"
)

// tailRank is how many samples must lie beyond a reported tail
// percentile: a percentile resting on fewer than this many slower
// samples says more about one unlucky request than about the system.
const tailRank = 10

// tailPercentiles are the tail percentiles the benchmark may report,
// highest first; tail picks the highest one the sample supports.
var tailPercentiles = []float64{99.9, 99, 98, 97, 95, 90, 80}

// percentile returns the nearest-rank p-th percentile of sorted xs
// (0 for an empty sample).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the nearest-rank position of the p-th percentile among n
// samples, with a tolerance so that 99.9% of 10000 is exactly 9990.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least tailRank samples beyond it in a sample of n, or 0 when even the
// lowest does not (then only the median is meaningful).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= tailRank {
			return p
		}
	}
	return 0
}

// summary is a latency sample reduced to the two numbers the benchmark
// reports: the median and the highest supported tail percentile.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_percentile"` // which percentile Tail is; 0 if none is supported
	Tail   float64 `json:"tail"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	sorted []float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), sorted: s}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 50)
	out.TailP = tailPercentile(len(s))
	if out.TailP > 0 {
		out.Tail = percentile(s, out.TailP)
	} else {
		out.Tail = s[len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	out.Mean = sum / float64(len(s))
	out.Max = s[len(s)-1]
	return out
}

// at returns the p-th percentile of the summarized sample.
func (s summary) at(p float64) float64 { return percentile(s.sorted, p) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
