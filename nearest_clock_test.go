package rexptree

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestNearestAtClockUnderIngest asks nearest queries at the front
// end's current time while back-to-back UpdateBatch calls keep moving
// the shards' clocks on.  Like a timeslice at the same time, such a
// query must never be refused: its time is checked once, against the
// time it was admitted at, not again against each shard's clock.
func TestNearestAtClockUnderIngest(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const ids = 2000
	if err := s.UpdateBatch(testWorkload(ids, 7), 0); err != nil {
		t.Fatal(err)
	}

	var clock atomic.Uint64 // bits of the time of the last applied batch
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(9))
		batch := make([]Report, 50)
		for i := 1; i <= 300; i++ {
			now := float64(i) * 0.05
			for j := range batch {
				batch[j] = Report{ID: uint32(rng.Intn(ids) + 1), Point: Point{
					Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
					Vel:     Vec{rng.Float64()*3 - 1.5, rng.Float64()*3 - 1.5},
					Time:    now,
					Expires: now + 60 + rng.Float64()*60,
				}}
			}
			if err := s.UpdateBatch(batch, now); err != nil {
				done <- err
				return
			}
			clock.Store(math.Float64bits(now))
		}
		done <- nil
	}()
	queries := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if queries == 0 {
				t.Fatal("no query ran beside the ingest")
			}
			return
		default:
		}
		now := math.Float64frombits(clock.Load())
		if _, err := s.Nearest(Vec{500, 500}, now, 10, now); err != nil {
			t.Fatalf("nearest at the current time %v refused during ingest (after %d queries): %v", now, queries, err)
		}
		queries++
	}
}
