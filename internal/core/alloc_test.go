package core

import (
	"math"
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// buildQueryTree fills a tree whose pages all fit in the buffer pool,
// so query benchmarks measure the in-memory hot path.
func buildQueryTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	cfg := rexpConfig()
	cfg.BufferPages = 512
	tr, err := New(cfg, storage.NewMemStore())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: math.Inf(1),
		}
		if err := tr.Insert(uint32(i), p, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

var windowQuery = geom.Window(geom.Rect{Lo: geom.Vec{400, 400}, Hi: geom.Vec{600, 600}}, 0, 10)

// TestSearchFuncAllocs pins the zero-allocation contract of the query
// hot path: with a warm buffer pool and a streaming callback, a window
// search must not allocate (the traversal stack is pooled).  The bound
// of 2 leaves room for a pool refill after a GC.
func TestSearchFuncAllocs(t *testing.T) {
	tr := buildQueryTree(t, 2000)
	found := 0
	fn := func(Result) bool { found++; return true }
	if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("warmup query matched nothing; the workload is broken")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("SearchFunc allocates %.1f objects per query, want <= 2", allocs)
	}
}

func BenchmarkWindowSearchFunc(b *testing.B) {
	tr := buildQueryTree(b, 2000)
	fn := func(Result) bool { return true }
	if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestWarm(b *testing.B) {
	tr := buildQueryTree(b, 2000)
	if _, err := tr.Nearest(geom.Vec{500, 500}, 0, 10, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Nearest(geom.Vec{500, 500}, 0, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestComputeBRAllocs pins the zero-allocation contract of the update
// path's bounding-rectangle recomputation: with the tree's item buffer
// and hull workspace warm, recomputing a full leaf's near-optimal
// TPBR allocates nothing.
func TestComputeBRAllocs(t *testing.T) {
	tr := buildQueryTree(t, 2000)
	root, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := tr.readNode(root.entries[0].child())
	if err != nil {
		t.Fatal(err)
	}
	tr.computeBR(leaf)
	if a := testing.AllocsPerRun(100, func() { tr.computeBR(leaf) }); a != 0 {
		t.Errorf("computeBR allocates %.1f objects per call, want 0", a)
	}
}
