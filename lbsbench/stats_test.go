package main

import "testing"

// The reported tail is the highest percentile with at least tailRank
// samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},   // even p80 leaves only 2 beyond
		{50, 80},  // p90 leaves 5, p80 leaves 10
		{100, 90}, // p95 leaves 5, p90 leaves 10
		{999, 98}, // p99 leaves 9
		{1000, 99},
		{9999, 99}, // p99.9 leaves 9
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := c.want; p > 0 {
			if beyond := c.n - rankOf(p, c.n); beyond < tailRank {
				t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", c.n, p, beyond, tailRank)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 .. 1, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 || s.Max != 1000 {
		t.Fatalf("summarize = %+v, want n 1000, p50 500, p99 990, max 1000", s)
	}
	// Exactly 10 samples lie beyond the reported p99.
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != tailRank {
		t.Fatalf("%d samples beyond p99, want %d", beyond, tailRank)
	}
	if got := summarize(xs[:50]); got.TailP != 80 {
		t.Fatalf("50 samples: tail p%v, want p80", got.TailP)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}
