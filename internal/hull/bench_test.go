package hull

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
)

// benchItems builds a full-leaf-sized item set (170 entries, the
// engine's hot case).
func benchItems(n int) []geom.TPRect {
	rng := rand.New(rand.NewSource(1))
	return randItems(rng, n, 2, 0, false)
}

func BenchmarkConservative(b *testing.B) {
	items := benchItems(170)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Conservative(items, 0, 2)
	}
}

func BenchmarkStatic(b *testing.B) {
	items := benchItems(170)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Static(items, 0, 2, testWorld)
	}
}

func BenchmarkUpdateMinimum(b *testing.B) {
	items := benchItems(170)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UpdateMinimum(items, 0, 2)
	}
}

// BenchmarkNearOptimal measures the engine's form: a warm Workspace
// reused across calls, as each tree keeps one.
func BenchmarkNearOptimal(b *testing.B) {
	items := benchItems(170)
	order := []int{0, 1}
	var ws Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.NearOptimal(items, 0, 60, 2, order)
	}
}

func BenchmarkOptimal(b *testing.B) {
	items := benchItems(170)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Optimal(items, 0, 60, 2)
	}
}
