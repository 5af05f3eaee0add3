package rexptree

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// speedClassBands are the fixed band boundaries used by the partition
// tests: four classes of |velocity| — [0, 0.5), [0.5, 2), [2, 8) and
// [8, ∞).
var speedClassBands = []float64{0.5, 2, 8}

// mixedSpeedWorkload builds reports whose speed class correlates with
// a spatial region (class c lives in the x-band [250c, 250c+250], like
// pedestrian zones vs highway corridors), which is the structure that
// makes speed partitioning prunable.  pass varies both positions and
// the class assignment, so re-reporting an object under a different
// pass moves it across band boundaries.
func mixedSpeedWorkload(n int, seed int64, pass int) []Report {
	rng := rand.New(rand.NewSource(seed + int64(pass)*1000))
	speeds := [4][2]float64{{0.05, 0.45}, {0.6, 1.8}, {2.2, 7.5}, {8.5, 25}}
	batch := make([]Report, n)
	for i := range batch {
		class := (i + pass) % 4
		lo, hi := speeds[class][0], speeds[class][1]
		sp := lo + rng.Float64()*(hi-lo)
		ang := rng.Float64() * 2 * math.Pi
		batch[i] = Report{
			ID: uint32(i + 1),
			Point: Point{
				Pos:     Vec{float64(class)*250 + rng.Float64()*250, rng.Float64() * 1000},
				Vel:     Vec{sp * math.Cos(ang), sp * math.Sin(ang)},
				Time:    float64(pass) * 5,
				Expires: float64(pass)*5 + 200,
			},
		}
	}
	return batch
}

// openPartitioned opens the three sharded variants under test plus a
// single-tree reference.
func openPartitioned(t *testing.T) (single *Tree, variants map[string]*ShardedTree) {
	t.Helper()
	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	variants = map[string]*ShardedTree{}
	for name, so := range map[string]ShardedOptions{
		"hash":        {Options: DefaultOptions(), Shards: 4},
		"speed-fixed": {Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, SpeedBands: speedClassBands},
		"speed-auto":  {Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, TuneAfter: 500},
	} {
		st, err := OpenSharded(so)
		if err != nil {
			t.Fatal(err)
		}
		variants[name] = st
	}
	t.Cleanup(func() {
		single.Close()
		for _, st := range variants {
			st.Close()
		}
	})
	return single, variants
}

// TestPartitionEquivalence is the central correctness property of the
// partitioning layer: for the same workload — including a second
// reporting round that moves objects across speed bands and so
// re-routes them between shards — every partition policy returns
// results identical to a single tree, for all four query types, with
// summary pruning active.
func TestPartitionEquivalence(t *testing.T) {
	single, variants := openPartitioned(t)

	apply := func(reports []Report, now float64, batch bool) {
		t.Helper()
		for _, r := range reports {
			if err := single.Update(r.ID, r.Point, now); err != nil {
				t.Fatal(err)
			}
		}
		for name, st := range variants {
			if batch {
				if err := st.UpdateBatch(reports, now); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				continue
			}
			for _, r := range reports {
				if err := st.Update(r.ID, r.Point, now); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}

	const n = 2500
	apply(mixedSpeedWorkload(n, 11, 0), 0, false)
	// Second round: every object changes speed class, so the speed
	// variants re-route; apply it batched to cover that path too.
	apply(mixedSpeedWorkload(n, 11, 1), 5, true)
	// A third, partial round through single updates (odd ids only).
	third := mixedSpeedWorkload(n, 11, 2)
	partial := third[:0:0]
	for i, r := range third {
		if i%2 == 1 {
			partial = append(partial, r)
		}
	}
	apply(partial, 10, false)

	for name, st := range variants {
		if got, want := st.Len(), single.Len(); got != want {
			t.Fatalf("%s: Len = %d, single = %d", name, got, want)
		}
		if strings.HasPrefix(name, "speed") && st.Metrics().Rerouted == 0 {
			t.Errorf("%s: no objects were re-routed; the workload should cross bands", name)
		}
	}

	now := 10.0
	rng := rand.New(rand.NewSource(99))
	for q := 0; q < 60; q++ {
		lo := Vec{rng.Float64() * 950, rng.Float64() * 950}
		r := Rect{Lo: lo, Hi: Vec{lo[0] + 50, lo[1] + 50}}
		at := now + rng.Float64()*8

		type variantRun struct {
			name string
			run  func() ([]Result, error)
			ref  func() ([]Result, error)
		}
		var runs []variantRun
		for name, st := range variants {
			st := st
			runs = append(runs,
				variantRun{name + "/timeslice",
					func() ([]Result, error) { return st.Timeslice(r, at, now) },
					func() ([]Result, error) { return single.Timeslice(r, at, now) }},
				variantRun{name + "/window",
					func() ([]Result, error) { return st.Window(r, at, at+6, now) },
					func() ([]Result, error) { return single.Window(r, at, at+6, now) }},
				variantRun{name + "/moving",
					func() ([]Result, error) {
						r2 := Rect{Lo: Vec{lo[0] + 20, lo[1] + 20}, Hi: Vec{lo[0] + 70, lo[1] + 70}}
						return st.Moving(r, r2, at, at+6, now)
					},
					func() ([]Result, error) {
						r2 := Rect{Lo: Vec{lo[0] + 20, lo[1] + 20}, Hi: Vec{lo[0] + 70, lo[1] + 70}}
						return single.Moving(r, r2, at, at+6, now)
					}},
			)
		}
		for _, vr := range runs {
			want, err := vr.ref()
			if err != nil {
				t.Fatal(err)
			}
			got, err := vr.run()
			if err != nil {
				t.Fatalf("%s: %v", vr.name, err)
			}
			sortResults(want)
			if len(want) != len(got) {
				t.Fatalf("query %d %s: %d results, single has %d", q, vr.name, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("query %d %s result %d: got %+v, single %+v", q, vr.name, i, got[i], want[i])
				}
			}
		}
	}

	// Nearest: compare against the single tree ordered by (dist, id).
	for q := 0; q < 30; q++ {
		pos := Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		at := now + rng.Float64()*5
		const k = 12
		want, err := single.Nearest(pos, at, k, now)
		if err != nil {
			t.Fatal(err)
		}
		dist := func(r Result) float64 {
			p := r.Point.At(at)
			dx, dy := p[0]-pos[0], p[1]-pos[1]
			return dx*dx + dy*dy
		}
		sort.Slice(want, func(i, j int) bool {
			di, dj := dist(want[i]), dist(want[j])
			if di != dj {
				return di < dj
			}
			return want[i].ID < want[j].ID
		})
		for name, st := range variants {
			got, err := st.Nearest(pos, at, k, now)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(want) != len(got) {
				t.Fatalf("nearest %d %s: %d results, single has %d", q, name, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("nearest %d %s result %d: got %+v, single %+v", q, name, i, got[i], want[i])
				}
			}
		}
	}

	// Get must agree everywhere, including for re-routed objects.
	for id := uint32(1); id <= n; id += 97 {
		wp, wok := single.Get(id, now)
		for name, st := range variants {
			gp, gok := st.Get(id, now)
			if wok != gok || gp != wp {
				t.Fatalf("%s: Get(%d) = %+v,%v; single %+v,%v", name, id, gp, gok, wp, wok)
			}
		}
	}
}

// TestPartitionPruning checks that on the spatially-correlated
// mixed-speed workload, point-ish near-future queries prune shards
// under speed partitioning while hash partitioning visits everything.
func TestPartitionPruning(t *testing.T) {
	_, variants := openPartitioned(t)
	reports := mixedSpeedWorkload(3000, 5, 0)
	for name, st := range variants {
		if err := st.UpdateBatch(reports, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	visitsBefore, queueBefore := map[string]uint64{}, map[string]uint64{}
	for name, st := range variants {
		visitsBefore[name] = st.Metrics().ShardVisits
		queueBefore[name] = queueWaitCount(t, st)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		lo := Vec{rng.Float64() * 960, rng.Float64() * 960}
		r := Rect{Lo: lo, Hi: Vec{lo[0] + 40, lo[1] + 40}}
		at := rng.Float64() * 5
		for name, st := range variants {
			if _, err := st.Window(r, at, at+2, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	// A pruned shard must cost the fan-out nothing: no goroutine, no
	// worker slot, so no queue-wait observation either.
	for name, st := range variants {
		visits := st.Metrics().ShardVisits - visitsBefore[name]
		if waits := queueWaitCount(t, st) - queueBefore[name]; waits != visits {
			t.Errorf("%s: %d queue_wait observations for %d shard visits", name, waits, visits)
		}
	}
	speed := variants["speed-fixed"].Metrics()
	hash := variants["hash"].Metrics()
	if speed.ShardsPruned == 0 {
		t.Error("speed partitioning pruned no shards on a correlated workload")
	}
	if speed.ShardVisits >= hash.ShardVisits {
		t.Errorf("speed partitioning visited %d shards, hash %d; want fewer", speed.ShardVisits, hash.ShardVisits)
	}
	t.Logf("visits: speed-fixed %d, speed-auto %d, hash %d (pruned %d / %d / %d)",
		speed.ShardVisits, variants["speed-auto"].Metrics().ShardVisits, hash.ShardVisits,
		speed.ShardsPruned, variants["speed-auto"].Metrics().ShardsPruned, hash.ShardsPruned)
}

// queueWaitCount reads the aggregate queue_wait phase count from the
// index's Prometheus exposition.
func queueWaitCount(t *testing.T, st *ShardedTree) uint64 {
	t.Helper()
	var buf strings.Builder
	if err := st.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	const series = `rexp_phase_duration_seconds_count{phase="queue_wait"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s%s: %v", series, v, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %s", series)
	return 0
}

// TestShardManifest checks the partition sidecar: created on open,
// validated on reopen, and persisting self-tuned bands across close.
func TestShardManifest(t *testing.T) {
	base := filepath.Join(t.TempDir(), "idx")
	open := func(so ShardedOptions) (*ShardedTree, error) {
		so.Path = base
		return OpenSharded(so)
	}

	st, err := open(ShardedOptions{Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, TuneAfter: 200})
	if err != nil {
		t.Fatal(err)
	}
	reports := mixedSpeedWorkload(600, 8, 0)
	for _, r := range reports {
		if err := st.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}
	bands := st.SpeedBands()
	if len(bands) != 3 {
		t.Fatalf("self-tuning did not fix bands: %v", bands)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong shard count and wrong policy must both be refused.
	if _, err := open(ShardedOptions{Options: DefaultOptions(), Shards: 8, Partition: PartitionSpeed}); err == nil {
		t.Fatal("reopen with mismatched shard count succeeded")
	} else if !strings.Contains(err.Error(), "shards") {
		t.Errorf("shard-count mismatch error %q does not mention shards", err)
	}
	if _, err := open(ShardedOptions{Options: DefaultOptions(), Shards: 4}); err == nil {
		t.Fatal("reopen with mismatched partition policy succeeded")
	} else if !strings.Contains(err.Error(), "partition") {
		t.Errorf("policy mismatch error %q does not mention the partition", err)
	}

	// A matching reopen restores the data, the tuned bands and the
	// object→shard routing.
	st2, err := open(ShardedOptions{Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.SpeedBands()
	if len(got) != len(bands) {
		t.Fatalf("reopened bands %v, want %v", got, bands)
	}
	for i := range bands {
		if got[i] != bands[i] {
			t.Fatalf("reopened bands %v, want %v", got, bands)
		}
	}
	if st2.Len() != len(reports) {
		t.Fatalf("reopened Len = %d, want %d", st2.Len(), len(reports))
	}
	for _, r := range reports[:50] {
		if _, ok := st2.Get(r.ID, 1); !ok {
			t.Fatalf("object %d lost across reopen", r.ID)
		}
	}
	// Updating a reopened object must not duplicate it (the routing
	// table was rebuilt from the shard files).
	p := reports[0].Point
	p.Time, p.Expires = 1, 300
	if err := st2.Update(reports[0].ID, p, 1); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != len(reports) {
		t.Fatalf("Len after reopen+update = %d, want %d", st2.Len(), len(reports))
	}
}

// TestShardBufferSizing checks the per-shard buffer-pool budget rules
// and their exposure through Metrics.
func TestShardBufferSizing(t *testing.T) {
	cases := []struct {
		name     string
		perShard int
		total    int
		want     int // aggregate BufferPoolPages over 4 shards
	}{
		{"explicit per shard", 20, 0, 80},
		{"total budget split", 0, 120, 120},
		{"floor of 8", 0, 12, 32},
		{"default", 0, 0, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := ShardedOptions{Options: DefaultOptions(), Shards: 4,
				BufferPagesPerShard: c.perShard}
			opts.BufferPages = c.total
			st, err := OpenSharded(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Metrics().BufferPoolPages; got != c.want {
				t.Errorf("aggregate BufferPoolPages = %d, want %d", got, c.want)
			}
		})
	}
	if _, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), BufferPagesPerShard: -1}); err == nil {
		t.Error("negative BufferPagesPerShard accepted")
	}
}

// TestShardedOptionValidation covers the partition-option error paths.
func TestShardedOptionValidation(t *testing.T) {
	for name, so := range map[string]ShardedOptions{
		"bands with hash":  {Options: DefaultOptions(), Shards: 4, SpeedBands: []float64{1}},
		"wrong band count": {Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, SpeedBands: []float64{1, 2}},
		"descending bands": {Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, SpeedBands: []float64{3, 2, 1}},
		"negative band":    {Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, SpeedBands: []float64{-1, 2, 3}},
		"NaN band":         {Options: DefaultOptions(), Shards: 2, Partition: PartitionSpeed, SpeedBands: []float64{math.NaN()}},
		"infinite band":    {Options: DefaultOptions(), Shards: 2, Partition: PartitionSpeed, SpeedBands: []float64{math.Inf(1)}},
		"unknown policy":   {Options: DefaultOptions(), Shards: 4, Partition: PartitionPolicy(9)},
	} {
		if _, err := OpenSharded(so); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// A file-backed open must refuse the options before it creates
		// any shard file or manifest.
		dir := t.TempDir()
		so.Path = filepath.Join(dir, "idx")
		if _, err := OpenSharded(so); err == nil {
			t.Errorf("%s: file-backed open accepted", name)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%s: rejected open left %d files behind", name, len(files))
		}
	}
	// Equal neighbors leave a band empty; the live reshard engine and the
	// manifest accept and persist them, so the constructor must too.
	st, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4, Partition: PartitionSpeed, SpeedBands: []float64{1, 1, 2}})
	if err != nil {
		t.Fatalf("equal neighboring bands: %v", err)
	}
	st.Close()
	if _, err := ParsePartitionPolicy("speed"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePartitionPolicy("bogus"); err == nil {
		t.Error("ParsePartitionPolicy accepted bogus")
	}
}

// TestConcurrentQueriesDuringReroute races queries of every type
// against updates that oscillate objects across speed bands (so shards
// continuously exchange objects).  Run under -race; correctness here
// is the absence of data races, errors and panics.
func TestConcurrentQueriesDuringReroute(t *testing.T) {
	st, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4,
		Partition: PartitionSpeed, SpeedBands: speedClassBands})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seed := mixedSpeedWorkload(400, 21, 0)
	if err := st.UpdateBatch(seed, 0); err != nil {
		t.Fatal(err)
	}

	const writers, readers, iters = 3, 3, 300
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				id := uint32(rng.Intn(400) + 1)
				// Alternate slow and fast so the object keeps
				// crossing band boundaries.
				sp := 0.2
				if i%2 == 0 {
					sp = 15
				}
				p := Point{
					Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
					Vel:     Vec{sp, 0},
					Time:    1,
					Expires: 500,
				}
				if err := st.Update(id, p, 1); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if i%50 == 0 {
					if err := st.UpdateBatch(mixedSpeedWorkload(50, int64(i), i%3), 1); err != nil {
						errc <- fmt.Errorf("writer %d batch: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < iters; i++ {
				lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
				rect := Rect{Lo: lo, Hi: Vec{lo[0] + 80, lo[1] + 80}}
				at := 1 + rng.Float64()*10
				var err error
				switch i % 4 {
				case 0:
					_, err = st.Window(rect, at, at+5, 1)
				case 1:
					_, err = st.Timeslice(rect, at, 1)
				case 2:
					_, err = st.Nearest(Vec{rng.Float64() * 1000, rng.Float64() * 1000}, at, 5, 1)
				default:
					st.Get(uint32(rng.Intn(400)+1), 1)
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
