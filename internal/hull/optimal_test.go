package hull

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
)

func TestOptimalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 150; iter++ {
		now := rng.Float64() * 50
		items := randItems(rng, 1+rng.Intn(15), 2, now, true)
		br := Optimal(items, now, 40, 2)
		checkBounds(t, br, items, now, now+500, 2)
	}
}

func TestOptimal1DEqualsNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 50; iter++ {
		items := randItems(rng, 1+rng.Intn(10), 1, 0, false)
		o := Optimal(items, 0, 30, 1)
		n := NearOptimal(items, 0, 30, 1, []int{0})
		if o != n {
			t.Fatalf("1-D optimal %v != near-optimal %v", o, n)
		}
	}
}

// TestOptimalDominates verifies the central quality ordering: over the
// optimization window [tupd, tupd+phi], the optimal TPBR's area
// integral is no larger than that of any other bounding-rectangle
// type (all of which are valid line-pair bounds of the same items).
func TestOptimalDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		now := rng.Float64() * 20
		items := randItems(rng, 2+rng.Intn(15), 2, now, false)
		horizon := 5 + rng.Float64()*60
		phi := effPhi(maxExp(items), now, horizon)
		opt := Optimal(items, now, horizon, 2)
		optArea := geom.AreaIntegral(opt, now, now+phi, 2)
		for _, k := range []Kind{KindConservative, KindStatic, KindUpdateMinimum, KindNearOptimal} {
			other := Compute(k, items, now, horizon, 2, testWorld, rng.Perm(2))
			a := geom.AreaIntegral(other, now, now+phi, 2)
			if optArea > a*(1+1e-9)+1e-9 {
				t.Fatalf("iter %d: optimal area %v > %v area %v", iter, optArea, k, a)
			}
		}
	}
}

func TestNearOptimalCloseToOptimal(t *testing.T) {
	// The paper finds near-optimal essentially as good as optimal; on
	// random inputs the gap should be modest on average.
	rng := rand.New(rand.NewSource(34))
	var sumOpt, sumNear float64
	for iter := 0; iter < 100; iter++ {
		items := randItems(rng, 5+rng.Intn(15), 2, 0, false)
		phi := effPhi(maxExp(items), 0, 40)
		opt := Optimal(items, 0, 40, 2)
		near := NearOptimal(items, 0, 40, 2, rng.Perm(2))
		sumOpt += geom.AreaIntegral(opt, 0, phi, 2)
		sumNear += geom.AreaIntegral(near, 0, phi, 2)
	}
	if sumNear > sumOpt*1.25 {
		t.Errorf("near-optimal total area %v vs optimal %v: gap too large", sumNear, sumOpt)
	}
	if sumNear < sumOpt*(1-1e-9) {
		t.Errorf("near-optimal beat optimal: %v < %v", sumNear, sumOpt)
	}
}

func TestSweepPairsCoverAllMedians(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for iter := 0; iter < 50; iter++ {
		items := randItems(rng, 3+rng.Intn(10), 1, 0, false)
		up, lo, minUp, maxLo := dimPoints(items, 0, 0)
		sortPts(up)
		sortPts(lo)
		phi := effPhi(maxExp(items), 0, 30)
		pairs := sweepPairs(up, lo, phi, minUp, maxLo)
		if len(pairs) == 0 {
			t.Fatal("no sweep pairs")
		}
		// Every median in (0,phi) must produce a pair present in the
		// sweep enumeration.
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			m := phi * frac
			want := boundPair{lowerBridge(lo, m, maxLo), upperBridge(up, m, minUp)}
			found := false
			for _, p := range pairs {
				if p == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("median %v pair %v not enumerated (pairs=%v)", m, want, pairs)
			}
		}
	}
}
