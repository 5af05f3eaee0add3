package hull

import (
	"math"
	"math/rand"
	"testing"

	"rexptree/internal/geom"
)

var testWorld = geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}

// randItems generates a mix of moving points and child rectangles,
// with finite or (optionally) infinite expiration times, positioned
// around the given time.
func randItems(rng *rand.Rand, n, dims int, now float64, allowInf bool) []geom.TPRect {
	items := make([]geom.TPRect, n)
	for k := range items {
		var r geom.Rect
		var vlo, vhi geom.Vec
		for i := 0; i < dims; i++ {
			a := rng.Float64() * 900
			w := 0.0
			if rng.Intn(2) == 0 { // half are true rectangles
				w = rng.Float64() * 20
			}
			r.Lo[i], r.Hi[i] = a, a+w
			vlo[i] = rng.Float64()*6 - 3
			vhi[i] = vlo[i]
			if w > 0 {
				vhi[i] = vlo[i] + rng.Float64()
			}
		}
		texp := now + rng.Float64()*120
		if allowInf && rng.Intn(5) == 0 {
			texp = geom.Inf()
		}
		items[k] = geom.TPRectAt(now, r, vlo, vhi, texp, dims)
	}
	return items
}

// checkBounds verifies that br contains each item for all times in
// [now, item expiry] (capped at cap for never-expiring items).
func checkBounds(t *testing.T, br geom.TPRect, items []geom.TPRect, now, cap float64, dims int) {
	t.Helper()
	for k, it := range items {
		end := it.TExp
		if !geom.IsFinite(end) || end > cap {
			end = cap
		}
		if end < now {
			end = now
		}
		for _, tt := range []float64{now, (now + end) / 2, end} {
			outer, inner := br.At(tt), it.At(tt)
			for i := 0; i < dims; i++ {
				eps := 1e-6 * (1 + math.Abs(inner.Lo[i]) + math.Abs(inner.Hi[i]))
				if inner.Lo[i] < outer.Lo[i]-eps || inner.Hi[i] > outer.Hi[i]+eps {
					t.Fatalf("item %d escapes %v bound at t=%v: item=%v br=%v",
						k, tt, tt, inner, outer)
				}
			}
		}
	}
}

func TestConservativeBoundsForever(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		now := rng.Float64() * 50
		items := randItems(rng, 1+rng.Intn(20), 2, now, true)
		br := Conservative(items, now, 2)
		// Conservative bounds hold for all future times, even past expiry.
		for _, horizon := range []float64{0, 10, 500} {
			for k, it := range items {
				tt := now + horizon
				if !br.At(tt).ContainsRect(shrinkEps(it.At(tt), 1e-6), 2) {
					t.Fatalf("iter %d: item %d escapes conservative bound at t=%v", iter, k, tt)
				}
			}
		}
	}
}

// shrinkEps shrinks r by eps on all sides to absorb float round-off in
// exact containment checks.
func shrinkEps(r geom.Rect, eps float64) geom.Rect {
	for i := range r.Lo {
		r.Lo[i] += eps
		r.Hi[i] -= eps
	}
	return r
}

func TestStaticBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 100; iter++ {
		now := rng.Float64() * 50
		items := randItems(rng, 1+rng.Intn(20), 2, now, false)
		br := Static(items, now, 2, testWorld)
		if br.VLo != (geom.Vec{}) || br.VHi != (geom.Vec{}) {
			t.Fatal("static BR has nonzero velocities")
		}
		checkBounds(t, br, items, now, now+1000, 2)
	}
}

func TestStaticClampsInfiniteToWorld(t *testing.T) {
	p := geom.MovingPoint{Pos: geom.Vec{500, 500}, Vel: geom.Vec{1, -1}, TExp: geom.Inf()}
	br := Static([]geom.TPRect{geom.PointTPRect(p)}, 0, 2, testWorld)
	if br.Hi[0] != testWorld.Hi[0] {
		t.Errorf("upper x = %v, want world bound", br.Hi[0])
	}
	if br.Lo[1] != testWorld.Lo[1] {
		t.Errorf("lower y = %v, want world bound", br.Lo[1])
	}
	// Non-moving direction bounds stay tight.
	if br.Lo[0] != 500 || br.Hi[1] != 500 {
		t.Errorf("tight bounds lost: %v", br)
	}
}

func TestUpdateMinimumBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		now := rng.Float64() * 50
		items := randItems(rng, 1+rng.Intn(20), 2, now, true)
		br := UpdateMinimum(items, now, 2)
		checkBounds(t, br, items, now, now+500, 2)
	}
}

func TestUpdateMinimumTightAtComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	now := 10.0
	items := randItems(rng, 15, 2, now, false)
	br := UpdateMinimum(items, now, 2)
	cons := Conservative(items, now, 2)
	// Minimum at computation time: snapshot equals the conservative
	// (tight) snapshot.
	b, c := br.At(now), cons.At(now)
	for i := 0; i < 2; i++ {
		if math.Abs(b.Lo[i]-c.Lo[i]) > 1e-9 || math.Abs(b.Hi[i]-c.Hi[i]) > 1e-9 {
			t.Fatalf("update-minimum not tight at tupd: %v vs %v", b, c)
		}
	}
	// Velocity extents never exceed the conservative ones.
	for i := 0; i < 2; i++ {
		if br.VHi[i] > cons.VHi[i]+1e-12 || br.VLo[i] < cons.VLo[i]-1e-12 {
			t.Fatalf("update-minimum has wider velocities than conservative")
		}
	}
}

func TestUpdateMinimumEqualsConservativeForInfinite(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	items := randItems(rng, 10, 2, 0, false)
	for i := range items {
		items[i].TExp = geom.Inf()
	}
	um := UpdateMinimum(items, 0, 2)
	cons := Conservative(items, 0, 2)
	for i := 0; i < 2; i++ {
		if math.Abs(um.VLo[i]-cons.VLo[i]) > 1e-12 || math.Abs(um.VHi[i]-cons.VHi[i]) > 1e-12 {
			t.Fatalf("update-minimum != conservative for infinite expiry: %v vs %v", um, cons)
		}
	}
}

func TestNearOptimalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for iter := 0; iter < 200; iter++ {
		now := rng.Float64() * 50
		items := randItems(rng, 1+rng.Intn(20), 2, now, true)
		order := rng.Perm(2)
		br := NearOptimal(items, now, 40, 2, order)
		checkBounds(t, br, items, now, now+500, 2)
	}
}

func TestNearOptimalPaperFigure4Shape(t *testing.T) {
	// One fast object with a short expiry among slow long-lived ones:
	// the update-minimum/near-optimal upper speed must be far below the
	// fast object's speed (Figure 4 of the paper).
	slowA := geom.PointTPRect(geom.MovingPoint{Pos: geom.Vec{10}, Vel: geom.Vec{0.1}, TExp: 100})
	slowB := geom.PointTPRect(geom.MovingPoint{Pos: geom.Vec{12}, Vel: geom.Vec{-0.1}, TExp: 100})
	fast := geom.PointTPRect(geom.MovingPoint{Pos: geom.Vec{11}, Vel: geom.Vec{5}, TExp: 2})
	items := []geom.TPRect{slowA, slowB, fast}
	um := UpdateMinimum(items, 0, 1)
	// Anchored at (0, 12) it must contain (2, 21): slope 4.5 — reduced
	// from the conservative slope 5, per Figure 4.
	if um.VHi[0] >= 5 || um.VHi[0] < 4.5-1e-9 {
		t.Errorf("update-minimum upper speed %v, want 4.5", um.VHi[0])
	}
	no := NearOptimal(items, 0, 50, 1, []int{0})
	checkBounds(t, no, items, 0, 100, 1)
	if no.VHi[0] >= 1 {
		t.Errorf("near-optimal upper speed %v; expiry not exploited", no.VHi[0])
	}
	cons := Conservative(items, 0, 1)
	if cons.VHi[0] != 5 {
		t.Errorf("conservative upper speed = %v, want 5", cons.VHi[0])
	}
}

func TestComputeDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	items := randItems(rng, 8, 2, 0, false)
	for _, k := range []Kind{KindConservative, KindStatic, KindUpdateMinimum, KindNearOptimal, KindOptimal} {
		br := Compute(k, items, 0, 30, 2, testWorld, []int{0, 1})
		checkBounds(t, br, items, 0, 200, 2)
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("invalid kind should stringify as unknown")
	}
}

func TestEffPhi(t *testing.T) {
	items := []geom.TPRect{{TExp: 50}, {TExp: 80}}
	if got := effPhi(maxExp(items), 10, 100); got != 70 {
		t.Errorf("effPhi = %v, want 70 (texpmax-tupd)", got)
	}
	if got := effPhi(maxExp(items), 10, 30); got != 30 {
		t.Errorf("effPhi = %v, want 30 (horizon)", got)
	}
	inf := []geom.TPRect{{TExp: geom.Inf()}}
	if got := effPhi(maxExp(inf), 10, 30); got != 30 {
		t.Errorf("effPhi infinite = %v, want horizon", got)
	}
	expired := []geom.TPRect{{TExp: 5}}
	if got := effPhi(maxExp(expired), 10, 30); got <= 0 {
		t.Errorf("effPhi must stay positive, got %v", got)
	}
}
