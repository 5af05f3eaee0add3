package core

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

// recorder captures the event stream of one operation at a time.
type recorder struct{ events []obs.Event }

func (r *recorder) Observe(e obs.Event) { r.events = append(r.events, e) }
func (r *recorder) reset()              { r.events = r.events[:0] }

func obsConfig() (Config, *obs.Metrics, *recorder) {
	met := obs.New()
	rec := &recorder{}
	met.Observer = rec
	cfg := rexpConfig()
	cfg.Metrics = met
	return cfg, met, rec
}

func randPoint(rng *rand.Rand, texp float64) geom.MovingPoint {
	return geom.MovingPoint{
		Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
		Vel:  geom.Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
		TExp: texp,
	}
}

// TestObserverInsertSplitOrdering fills the root leaf to overflow: the
// overflowing insertion must deliver exactly one split event (the root
// never uses forced reinsertion), with counters in agreement.
func TestObserverInsertSplitOrdering(t *testing.T) {
	cfg, met, rec := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(7))
	cap := tr.LeafCapacity()
	for i := 0; i < cap; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 1e9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if met.Load(obs.Splits) != 0 {
		t.Fatalf("splits = %d before overflow", met.Load(obs.Splits))
	}
	rec.reset()
	if err := tr.Insert(uint32(cap), randPoint(rng, 1e9), 0); err != nil {
		t.Fatal(err)
	}
	var splits []obs.Event
	for _, e := range rec.events {
		switch e.Kind {
		case obs.EvSplit:
			splits = append(splits, e)
		case obs.EvCondense, obs.EvPurge, obs.EvForcedReinsert:
			t.Errorf("unexpected %v event during root split", e.Kind)
		}
	}
	if len(splits) != 1 {
		t.Fatalf("split events = %d, want 1", len(splits))
	}
	if splits[0].Level != 0 || splits[0].N < 1 {
		t.Errorf("split event = %+v, want level 0, N >= 1", splits[0])
	}
	if met.Load(obs.Splits) != 1 {
		t.Errorf("splits counter = %d, want 1", met.Load(obs.Splits))
	}
	if tr.Height() != 2 {
		t.Errorf("height = %d after root split, want 2", tr.Height())
	}
}

// checkOrphanOrdering verifies the stream invariant that every
// orphan-reinserted event is preceded by the condense or forced-
// reinsert events that produced the orphans: at every prefix of the
// stream, the orphans reinserted never exceed the orphans created.
func checkOrphanOrdering(t *testing.T, events []obs.Event) {
	t.Helper()
	created, reinserted := 0, 0
	for i, e := range events {
		switch e.Kind {
		case obs.EvCondense, obs.EvForcedReinsert:
			created += e.N
		case obs.EvOrphanReinserted:
			reinserted += e.N
		}
		if reinserted > created {
			t.Fatalf("event %d: %d orphans reinserted but only %d created so far", i, reinserted, created)
		}
	}
}

// TestObserverForcedReinsertOrdering grows the tree past one level and
// checks that forced reinsertion announces the displaced entries
// before they are reinserted as orphans.
func TestObserverForcedReinsertOrdering(t *testing.T) {
	cfg, met, rec := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(8))
	n := 3 * tr.LeafCapacity()
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 1e9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if met.Load(obs.ForcedReinserts) == 0 {
		t.Fatal("no forced reinsertion in an overflowing workload")
	}
	if met.Load(obs.OrphansReinserted) == 0 {
		t.Fatal("no orphans reinserted despite forced reinsertion")
	}
	checkOrphanOrdering(t, rec.events)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestObserverDeleteCondenseOrdering deletes entries until a leaf
// underflows: the dissolving node's condense event must precede the
// reinsertion events of the entries it orphaned.
func TestObserverDeleteCondenseOrdering(t *testing.T) {
	cfg, met, rec := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(9))
	n := 3 * tr.LeafCapacity()
	pts := make([]geom.MovingPoint, n)
	for i := range pts {
		pts[i] = randPoint(rng, 1e9)
		if err := tr.Insert(uint32(i), pts[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d; need internal nodes to underflow a leaf", tr.Height())
	}
	sawCondense := false
	for i := 0; i < n && !sawCondense; i++ {
		rec.reset()
		found, err := tr.Delete(uint32(i), pts[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("entry %d not found", i)
		}
		firstCondense, firstOrphan := -1, -1
		condensed, orphaned := 0, 0
		for j, e := range rec.events {
			switch e.Kind {
			case obs.EvCondense:
				if firstCondense < 0 {
					firstCondense = j
				}
				condensed += e.N
			case obs.EvOrphanReinserted:
				if firstOrphan < 0 {
					firstOrphan = j
				}
				orphaned += e.N
			}
		}
		if firstCondense < 0 {
			continue
		}
		sawCondense = true
		if firstOrphan >= 0 && firstOrphan < firstCondense {
			t.Fatalf("orphan reinserted (event %d) before the condense that created it (event %d)", firstOrphan, firstCondense)
		}
		if orphaned < condensed {
			t.Errorf("condense orphaned %d entries but only %d were reinserted", condensed, orphaned)
		}
		checkOrphanOrdering(t, rec.events)
	}
	if !sawCondense {
		t.Fatal("no condense observed across the deletion sweep")
	}
	if met.Load(obs.Condenses) == 0 {
		t.Error("condense counter still zero")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryCountersAccumulate checks the per-query node-visit and
// leaf-scan counters and the ChooseSubtree descent counter.
func TestQueryCountersAccumulate(t *testing.T) {
	cfg, met, _ := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(10))
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 1e9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if met.Load(obs.ChooseSubtree) == 0 {
		t.Error("no ChooseSubtree descents counted during insertions")
	}
	visits, scans := met.Load(obs.NodeVisits), met.Load(obs.LeafScans)
	if visits != 0 || scans != 0 {
		t.Fatalf("query counters moved before any query: visits=%d scans=%d", visits, scans)
	}
	world := geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}
	res, err := tr.Search(geom.Timeslice(world, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("whole-world query found %d of %d", len(res), n)
	}
	if met.Load(obs.NodeVisits) == 0 {
		t.Error("search did not count node visits")
	}
	if met.Load(obs.LeafScans) < n {
		t.Errorf("leaf scans = %d after a whole-world query over %d entries", met.Load(obs.LeafScans), n)
	}
	// Nearest-neighbor queries share the counters.
	visits = met.Load(obs.NodeVisits)
	if _, err := tr.Nearest(geom.Vec{500, 500}, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if met.Load(obs.NodeVisits) <= visits {
		t.Error("nearest did not count node visits")
	}
}

// TestPurgeCountersMassExpiry replays the Figure 8 cascade with
// instrumentation attached: lazy purging must account the dropped
// entries and freed subtrees, with events matching the counters.
func TestPurgeCountersMassExpiry(t *testing.T) {
	cfg, met, rec := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(11))
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 10+rng.Float64()*5), 1); err != nil {
			t.Fatal(err)
		}
	}
	rec.reset()
	// Everything is dead by t=15; the next insertions purge lazily.
	for i := 0; i < 40; i++ {
		if err := tr.Insert(uint32(n+i), randPoint(rng, 200), 100); err != nil {
			t.Fatal(err)
		}
	}
	purged := met.Load(obs.ExpiredPurged)
	if purged == 0 {
		t.Fatal("mass expiry purged nothing")
	}
	var purgeEventN, freedEvents uint64
	for _, e := range rec.events {
		switch e.Kind {
		case obs.EvPurge:
			if e.N < 1 {
				t.Errorf("purge event with N=%d", e.N)
			}
			purgeEventN += uint64(e.N)
		case obs.EvSubtreeFreed:
			freedEvents += uint64(e.N)
		}
	}
	if purgeEventN == 0 {
		t.Error("no purge events despite purged entries")
	}
	// Entries dropped via freed subtrees are counted on top of the
	// per-node purge events.
	if purged < purgeEventN {
		t.Errorf("ExpiredPurged = %d, less than the %d announced by purge events", purged, purgeEventN)
	}
	if met.Load(obs.SubtreesFreed) != freedEvents {
		t.Errorf("SubtreesFreed = %d but events announced %d", met.Load(obs.SubtreesFreed), freedEvents)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
