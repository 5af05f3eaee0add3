package core

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

func BenchmarkInsertUpdate(b *testing.B) {
	tr, _ := New(rexpConfig(), storage.NewMemStore())
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	objs := make([]geom.MovingPoint, n)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.003
		oid := uint32(i % n)
		if i >= n {
			tr.Delete(oid, objs[oid], now)
		}
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 60 + rng.Float64()*60,
		}
		tr.Insert(oid, p, now)
		objs[oid] = tr.prepare(p)
	}
}

// BenchmarkUpdateKernel measures the engine's steady-state update: an
// object's stored record is deleted and its new report inserted, in a
// tree preloaded with 20k objects whose pages all stay buffered.  It
// is the per-report work a position update costs the index (descent,
// purge, ChooseSubtree, TPBR recomputation of every modified node,
// page encoding); run it with -benchmem.
func BenchmarkUpdateKernel(b *testing.B) {
	const n = 20000
	cfg := rexpConfig()
	cfg.BufferPages = 1024
	tr, err := New(cfg, storage.NewMemStore())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := 0.0
	report := func() geom.MovingPoint {
		return geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 60 + rng.Float64()*60,
		}
	}
	objs := make([]geom.MovingPoint, n)
	for i := range objs {
		p := report()
		if err := tr.Insert(uint32(i), p, now); err != nil {
			b.Fatal(err)
		}
		objs[i] = tr.Stored(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.003
		oid := uint32(i % n)
		if _, err := tr.Delete(oid, objs[oid], now); err != nil {
			b.Fatal(err)
		}
		p := report()
		if err := tr.Insert(oid, p, now); err != nil {
			b.Fatal(err)
		}
		objs[oid] = tr.Stored(p)
	}
}
