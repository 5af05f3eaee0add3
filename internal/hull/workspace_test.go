package hull

import (
	"math"
	"math/rand"
	"testing"

	"rexptree/internal/geom"
)

// refNearOptimal is the sorting reference for Workspace.NearOptimal:
// per dimension it builds the endpoint sets in item order (dimPoints)
// and finds the bridges with upperBridge/lowerBridge, which sort the
// points by (τ, x) afresh.
func refNearOptimal(items []geom.TPRect, tupd, horizon float64, dims int, order []int) geom.TPRect {
	texp := maxExp(items)
	phi := effPhi(texp, tupd, horizon)
	var lo, hi, vlo, vhi geom.Vec
	var hs, ws []float64
	for _, d := range order {
		up, down, minUp, maxLo := dimPoints(items, tupd, d)
		m := median(hs, ws, phi)
		u := upperBridge(up, m, minUp)
		l := lowerBridge(down, m, maxLo)
		lo[d], vlo[d] = l.a, l.b
		hi[d], vhi[d] = u.a, u.b
		hs = append(hs, u.a-l.a)
		ws = append(ws, u.b-l.b)
	}
	return geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, texp, dims)
}

// sameBits reports whether a and b are equal bit for bit (so -0 and +0
// differ and equal NaNs match).
func sameBits(a, b geom.TPRect) bool {
	fa := [...]float64{a.TExp, a.Lo[0], a.Lo[1], a.Lo[2], a.Hi[0], a.Hi[1], a.Hi[2],
		a.VLo[0], a.VLo[1], a.VLo[2], a.VHi[0], a.VHi[1], a.VHi[2]}
	fb := [...]float64{b.TExp, b.Lo[0], b.Lo[1], b.Lo[2], b.Hi[0], b.Hi[1], b.Hi[2],
		b.VLo[0], b.VLo[1], b.VLo[2], b.VHi[0], b.VHi[1], b.VHi[2]}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

// kernelItems draws an item set that stresses the shared expiry order:
// expiries drawn from a handful of values (ties) or a few ulps above
// one (near ties, which the packed sort keys cannot tell apart), some
// already expired at tupd, some never expiring, and some duplicated
// items (equal τ and equal endpoints).
func kernelItems(rng *rand.Rand, n, dims int, tupd float64) []geom.TPRect {
	items := randItems(rng, n, dims, tupd, false)
	var pool []float64
	if rng.Intn(2) == 0 {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			pool = append(pool, tupd+rng.Float64()*90)
		}
	}
	for i := range items {
		switch r := rng.Intn(10); {
		case r == 0:
			items[i].TExp = tupd - rng.Float64()*30 // already expired
		case r == 1:
			items[i].TExp = geom.Inf()
		case r == 2 && i > 0:
			items[i] = items[rng.Intn(i)] // exact duplicate
		case r == 3 && pool != nil:
			e := pool[rng.Intn(len(pool))]
			items[i].TExp = math.Float64frombits(math.Float64bits(e) + uint64(rng.Intn(64)))
		case r < 6 && pool != nil:
			items[i].TExp = pool[rng.Intn(len(pool))]
		}
	}
	return items
}

// TestWorkspaceMatchesSortingReference checks the workspace path
// against the sorting reference bit for bit, reusing one Workspace
// across calls of every size and kind so stale buffer contents would
// show.
func TestWorkspaceMatchesSortingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var ws Workspace
	kinds := []Kind{KindConservative, KindStatic, KindUpdateMinimum, KindNearOptimal, KindOptimal}
	for iter := 0; iter < 3000; iter++ {
		dims := 1 + rng.Intn(geom.MaxDims)
		n := 1 + rng.Intn(256)
		if iter%100 == 0 {
			n = 257 + rng.Intn(100) // beyond the 256 entries of a full 1-D leaf
		}
		tupd := rng.Float64() * 100
		if iter%7 == 0 {
			tupd = -tupd // negative times exercise the sign handling of the keys
		}
		horizon := 5 + rng.Float64()*80
		items := kernelItems(rng, n, dims, tupd)
		order := rng.Perm(dims)

		got := ws.NearOptimal(items, tupd, horizon, dims, order)
		if want := refNearOptimal(items, tupd, horizon, dims, order); !sameBits(got, want) {
			t.Fatalf("iter %d (n=%d dims=%d): workspace %v, reference %v", iter, n, dims, got, want)
		}
		if pkg := NearOptimal(items, tupd, horizon, dims, order); !sameBits(got, pkg) {
			t.Fatalf("iter %d: package-level NearOptimal %v, workspace %v", iter, pkg, got)
		}

		k := kinds[rng.Intn(len(kinds))]
		if k == KindOptimal && n > 40 {
			k = KindConservative // keep the exhaustive sweep cheap
		}
		if got, want := ws.Compute(k, items, tupd, horizon, dims, testWorld, order), Compute(k, items, tupd, horizon, dims, testWorld, order); !sameBits(got, want) {
			t.Fatalf("iter %d: workspace %v = %v, package-level %v", iter, k, got, want)
		}
	}
}

// TestSortExpiries checks the packed-key sort against the definition:
// exactly the unexpired finite-expiry items, ascending.
func TestSortExpiries(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var ws Workspace
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(600)
		tupd := rng.Float64()*200 - 100
		items := kernelItems(rng, n, 1, tupd)
		got := ws.sortExpiries(items, tupd)
		seen := make(map[int32]bool, len(got))
		for j, k := range got {
			if j > 0 && got[j-1].texp > k.texp {
				t.Fatalf("iter %d: expiry order broken at %d: %v > %v", iter, j, got[j-1].texp, k.texp)
			}
			if seen[k.i] || items[k.i].TExp != k.texp || k.tau != k.texp-tupd {
				t.Fatalf("iter %d: bad key %+v", iter, k)
			}
			seen[k.i] = true
		}
		want := 0
		for i := range items {
			if e := items[i].TExp; geom.IsFinite(e) && e > tupd {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("iter %d: %d keys, want %d", iter, len(got), want)
		}
	}
}

// TestWorkspaceNoAllocs pins the point of the workspace: once warm, a
// near-optimal computation of a full leaf allocates nothing.
func TestWorkspaceNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for dims := 1; dims <= geom.MaxDims; dims++ {
		items := randItems(rng, 170, dims, 10, true)
		order := rng.Perm(dims)
		var ws Workspace
		ws.Compute(KindNearOptimal, items, 10, 60, dims, testWorld, order)
		if a := testing.AllocsPerRun(50, func() {
			ws.Compute(KindNearOptimal, items, 10, 60, dims, testWorld, order)
		}); a != 0 {
			t.Errorf("dims %d: %v allocations per warm NearOptimal, want 0", dims, a)
		}
	}
}
