package experiments

import (
	"sync"
	"testing"
)

// claimSpeedup is the least factor by which the R^exp-tree must beat
// the TPR-tree's search I/O in the Figure 13 claim below.
const claimSpeedup = 2.0

// TestPaperClaimFigure13 gates the paper's headline comparison as
// EXPERIMENTS.md records it: for small and medium expiration distances
// (ExpD 45 and 90), the TPR-tree needs at least twice the R^exp-tree's
// search I/O per query: the R^exp-tree drops expired entries instead of
// carrying them in its bounding rectangles (paper §5.4, Figure 13).
// It runs at scale 0.02, seed 1, where the buffer pool no longer holds
// the whole tree.  Larger ExpD values are not asserted: the paper does
// not claim a gap there, and at this scale the TPR-tree catches up by
// ExpD 360.
func TestPaperClaimFigure13(t *testing.T) {
	if raceDetector {
		t.Skip("four single-threaded figure runs; the race detector adds nothing but time")
	}
	sp := specs(1)["13"]
	rexp, tpr := sp.trees[0], sp.trees[1]
	if rexp.Label != "Rexp-tree" || tpr.Label != "TPR-tree" {
		t.Fatalf("figure 13 trees are %q and %q", rexp.Label, tpr.Label)
	}
	expDs := []float64{45, 90}
	var wg sync.WaitGroup
	io := make([][2]float64, len(expDs)) // [R^exp, TPR] search I/O per ExpD
	errs := make([][2]error, len(expDs))
	for i, x := range expDs {
		for j, tc := range []TreeConfig{rexp, tpr} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := Run(tc, sp.wl(x).Scale(0.02))
				io[i][j], errs[i][j] = m.SearchIO, err
			}()
		}
	}
	wg.Wait()
	for i, x := range expDs {
		for _, err := range errs[i] {
			if err != nil {
				t.Fatalf("ExpD %v: %v", x, err)
			}
		}
		r, p := io[i][0], io[i][1]
		t.Logf("ExpD %v: R^exp %.2f vs TPR %.2f search I/O per query (TPR/R^exp %.2f)", x, r, p, p/r)
		if r <= 0 || p < claimSpeedup*r {
			t.Errorf("ExpD %v: TPR search I/O %.2f is not %.1f x R^exp's %.2f", x, p, claimSpeedup, r)
		}
	}
}
