package rexptree

import (
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/manifest"
	"rexptree/internal/obs"
)

// ShardedOptions configures a ShardedTree.  The embedded Options apply
// to every shard; Path, when set, names the base of the per-shard page
// files (shard i is stored at "<Path>.s<i>" — or "<Path>.g<G>.s<i>"
// after a reshard bumped the file generation to G — and a
// "<Path>.manifest" sidecar records the partition and generation so
// the index cannot be reopened wrongly).
type ShardedOptions struct {
	Options

	// Shards is the number of independent sub-trees objects are
	// partitioned across (default 4).  It must be the same when a
	// file-backed sharded index is reopened, because the partition of
	// the stored objects depends on it.
	Shards int

	// Workers bounds how many shards are searched concurrently during a
	// query fan-out (default: one worker per shard).  The same pool
	// bounds the per-shard application of UpdateBatch.
	Workers int

	// Partition selects the object→shard assignment: PartitionHash
	// (default) routes by id hash; PartitionSpeed routes by |velocity|
	// band, which groups objects of similar speed so the per-shard
	// time-parameterized summaries stay tight and queries can prune
	// whole shards.
	Partition PartitionPolicy

	// SpeedBands are the |velocity| boundaries between consecutive
	// speed bands under PartitionSpeed: exactly Shards-1 finite,
	// non-negative, non-descending values (equal neighbors leave a band
	// empty), band i covering [SpeedBands[i-1], SpeedBands[i]).  Leave
	// empty for self-tuning: the index hash-routes while observing the
	// first TuneAfter reported speeds, then picks quantile boundaries;
	// objects migrate to their band's shard on their next update.
	SpeedBands []float64

	// TuneAfter is how many speed observations self-tuning collects
	// before fixing the band boundaries (default 1000).
	TuneAfter int

	// BufferPagesPerShard sets each shard's buffer-pool page capacity
	// directly.  When zero, Options.BufferPages (if set) is treated as
	// a total budget divided evenly across shards with a floor of 8
	// pages per shard; when that is zero too, each shard gets the
	// stand-alone default (50 pages, paper §5.1).
	BufferPagesPerShard int

	// AutoReshard enables the drift detector: a background loop that
	// watches routing skew and re-route churn and triggers a live
	// reshard with re-derived speed bands when they drift past the
	// configured thresholds.  Requires PartitionSpeed.
	AutoReshard AutoReshardOptions
}

// generation is one complete shard set: the trees, their pruning
// summaries and the partitioner routing objects among them.  The
// ShardedTree points at its current generation; a live reshard builds
// the next generation beside it and retires this one at cutover, so a
// generation is immutable in shape (shards, partitioner identity)
// once published while its contents keep mutating.
//
// Readers pin a generation (refs) so a cutover can retire the old one
// only after every in-flight traversal has left it; mutations instead
// hold the front-end rerouteMu, which the cutover takes exclusively.
type generation struct {
	shards []*Tree
	sums   []shardSummary
	part   partitioner
	gen    int // shard-file generation recorded in the manifest

	refs atomic.Int64 // in-flight readers; see ShardedTree.pin
}

// ShardedTree partitions a moving-object index across Shards
// independent Trees, each with its own page store, buffer pool and
// lock, following the scale-out design of partitioned moving-object
// indexes (MOIST; Jiang et al.): updates touch exactly one shard, so
// they proceed concurrently on different shards, and queries fan out
// across the shards through a bounded worker pool, with the per-shard
// result sets merged.
//
// Objects are assigned to shards by the configured PartitionPolicy:
// by id hash (the default), or by speed band (PartitionSpeed), which
// re-routes an object to its new band's shard when an update moves its
// speed across a boundary.  Each shard also maintains a conservative
// time-parameterized summary of its live objects — widened on every
// insert, periodically retightened from the shard's root — and queries
// consult the summaries first, skipping shards the query trapezoid
// provably cannot touch (Nearest instead visits shards in ascending
// summary distance and stops once the remaining shards cannot beat the
// current k-th candidate).  Pruning is strictly conservative, so
// results are identical to the unpruned fan-out and to a single Tree.
//
// Query results are merged in ascending object-id order (Nearest:
// ascending distance order), which makes the output deterministic
// regardless of shard completion order — and, for the same workload,
// element-wise identical to a single Tree's sorted results.
//
// The shard set itself can be replaced while the index serves traffic:
// Reshard/StartReshard build a new generation under a new shard count
// or partition policy, mirror every concurrent mutation into it, and
// cut over atomically; see livereshard.go.
//
// All methods are safe for concurrent use.
type ShardedTree struct {
	// cur is the current generation.  Readers pin it (see pin);
	// mutations load it under rerouteMu, whose exclusive side the
	// cutover holds while swapping the pointer.
	cur atomic.Pointer[generation]

	dims int
	sem  chan struct{} // bounded fan-out worker pool
	m    *obs.Metrics  // front-end registry: fan-out latencies, pruning counters
	rec  *obs.Recorder // fan-out flight recorder; nil unless Options.FlightRecorder > 0

	// batched counts the reports received through UpdateBatch: with the
	// front end's update count, the drift detector's churn denominator.
	// The shards count the reports they apply under the
	// batched-updates family.
	batched atomic.Uint64

	manifestPath string // "" when memory-backed
	basePath     string // ShardedOptions.Path
	durability   Durability
	opts         ShardedOptions // retained to derive a reshard target's per-shard Options

	closeMu  sync.Mutex // Close is idempotent; see Close
	closed   bool
	closeErr error
	closing  atomic.Bool // set by Close/Abandon so a live reshard aborts early

	// Re-routing discipline: every mutation holds rerouteMu shared
	// (single-object updates of re-routing policies — and all updates
	// while a live reshard is in flight — additionally hold the
	// object's stripe, so the delete-from-old/insert-into-new pair of
	// one object never interleaves with another update of the same
	// object), while UpdateBatch under a re-routing policy or a live
	// reshard holds rerouteMu exclusively.  The live-reshard cutover
	// takes rerouteMu exclusively too: a mutation therefore observes a
	// stable (generation, in-flight-reshard) pair for its whole
	// critical section.
	rerouteMu sync.RWMutex
	stripes   [64]sync.Mutex

	// replSink, when set, observes every applied mutation (see
	// replication.go).  Written under rerouteMu's exclusive side; the
	// live-reshard cutover re-attaches it to the target generation.
	replSink ReplSink

	// Live-reshard state; see livereshard.go.  lr is non-nil exactly
	// while a reshard's dual-apply window is open; it is published and
	// cleared only under rerouteMu's exclusive side.
	lr        atomic.Pointer[liveReshard]
	reshardMu sync.Mutex            // held by the reshard engine for a whole run
	speedWin  *manifest.SpeedWindow // sliding window of observed speeds; nil unless AutoReshard
	autoStop  chan struct{}
	autoDone  chan struct{}

	// statusMu guards the reshard status.  admitted is the spec of the
	// reshard holding reshardMu, from admission until its outcome is
	// recorded in lastReshardErr; cancelAdmitted is a CancelReshard
	// that arrived before that reshard's dual-apply window opened.
	statusMu       sync.Mutex
	admitted       *ReshardSpec
	cancelAdmitted bool
	lastReshardErr error

	// testReshardHook, when set, is invoked at every live-reshard
	// phase boundary; a non-nil return simulates a crash at that
	// point (the engine stops dead, leaving files as they are).
	testReshardHook func(point string) error
}

// shardSummary is one shard's pruning summary plus its staleness
// counter.  The mutex orders widens, retightens and query-side reads;
// retightening reads the shard root while holding it, so a widen that
// happened-before the retighten is always covered by the fresh bound.
type shardSummary struct {
	mu    sync.Mutex
	sum   geom.Summary
	dirty int // widens since the last retighten
}

// retightenEvery is how many widens a shard summary absorbs before it
// is recomputed from the shard's root node (which is pinned in the
// buffer pool, so the recomputation costs no I/O).
const retightenEvery = 256

// pin returns the current generation with a reader reference held.
// The load-ref-recheck loop closes the race against a concurrent
// cutover: if the pointer moved between the load and the ref, the ref
// landed on a generation that may already be draining, so it is
// released and the load retried.  Callers must unpin exactly once.
func (s *ShardedTree) pin() *generation {
	for {
		g := s.cur.Load()
		g.refs.Add(1)
		if s.cur.Load() == g {
			return g
		}
		g.refs.Add(-1)
	}
}

func (g *generation) unpin() { g.refs.Add(-1) }

// perShardBuffer resolves the per-shard buffer-pool capacity for a
// given shard count: an explicit per-shard capacity wins, else
// Options.BufferPages is a total budget split across shards with a
// floor of 8 pages; 0 means the stand-alone default.
func perShardBuffer(opts ShardedOptions, shards int) int {
	perShard := opts.BufferPagesPerShard
	if perShard == 0 && opts.BufferPages > 0 {
		perShard = opts.BufferPages / shards
		if perShard < 8 {
			perShard = 8
		}
	}
	return perShard
}

// shardOptions derives shard i's stand-alone Options for generation
// gen from the front-end options — the same derivation for an open, a
// reopen and a live reshard's target shards, so a resharded shard
// behaves exactly like a reopened one.
func shardOptions(opts ShardedOptions, gen, i, perShard int) Options {
	so := opts.Options
	if so.Path != "" {
		so.Path = manifest.ShardPath(opts.Path, gen, i)
	}
	if perShard > 0 {
		so.BufferPages = perShard
	}
	// Distinct seeds keep the shards' tie-breaking streams
	// independent while remaining deterministic.
	so.Seed = opts.Seed + int64(i)
	// The observability hooks reach every shard tagged with its id, so
	// a consumer can tell which shard split, purged, or ran slow.
	if userObs := opts.Observer; userObs != nil {
		shard := i
		so.Observer = func(e ObserverEvent) {
			e.Shard = shard
			userObs(e)
		}
	}
	if opts.SlowOpThreshold > 0 {
		shard := i
		userSlow := opts.SlowOp
		if userSlow == nil {
			threshold := opts.SlowOpThreshold
			userSlow = func(op string, d time.Duration) {
				log.Printf("rexptree: slow %s: %v (threshold %v)", op, d, threshold)
			}
		}
		so.SlowOp = func(op string, d time.Duration) {
			userSlow(fmt.Sprintf("shard%d/%s", shard, op), d)
		}
	}
	return so
}

// openGeneration opens (or creates) the shard trees of one generation
// concurrently: each open is independent, and after an unclean
// shutdown each shard replays its own write-ahead log, so recovery
// time is bounded by the largest shard, not the sum.
func openGeneration(opts ShardedOptions, shards, gen int) ([]*Tree, error) {
	perShard := perShardBuffer(opts, shards)
	out := make([]*Tree, shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := range out {
		wg.Add(1)
		go func(i int, so Options) {
			defer wg.Done()
			t, err := Open(so)
			if err != nil {
				errs[i] = fmt.Errorf("rexptree: opening shard %d: %w", i, err)
				return
			}
			out[i] = t
		}(i, shardOptions(opts, gen, i, perShard))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, open := range out {
				if open != nil {
					open.Close()
				}
			}
			return nil, err
		}
	}
	return out, nil
}

// OpenSharded creates (or, with a Path to existing shard files,
// reopens) a sharded tree.  Reopening validates the shard manifest:
// a mismatched shard count or partition policy is refused, because the
// stored object placement depends on both.
func OpenSharded(opts ShardedOptions) (*ShardedTree, error) {
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("rexptree: invalid shard count %d", opts.Shards)
	}
	if opts.Workers == 0 {
		opts.Workers = opts.Shards
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("rexptree: invalid worker count %d", opts.Workers)
	}
	if opts.Partition != PartitionHash && opts.Partition != PartitionSpeed {
		return nil, fmt.Errorf("rexptree: unknown partition policy %d", int(opts.Partition))
	}
	if opts.Partition == PartitionHash && len(opts.SpeedBands) > 0 {
		return nil, fmt.Errorf("rexptree: SpeedBands set but partition policy is %s", opts.Partition)
	}
	if opts.AutoReshard.Enabled && opts.Partition != PartitionSpeed {
		return nil, fmt.Errorf("rexptree: AutoReshard requires PartitionSpeed")
	}
	if err := manifest.ValidateBands(opts.SpeedBands, opts.Shards); err != nil {
		return nil, fmt.Errorf("rexptree: %w", err)
	}
	bands := append([]float64(nil), opts.SpeedBands...)
	if opts.TuneAfter <= 0 {
		opts.TuneAfter = 1000
	}

	// Validate the manifest before touching any shard file.
	autoTuned := false
	manifestPath := ""
	gen := 0
	if opts.Path != "" {
		manifestPath = manifest.Path(opts.Path)
		man, found, err := manifest.Read(manifestPath)
		if err != nil {
			return nil, fmt.Errorf("rexptree: %w", err)
		}
		if found {
			if man.Shards != opts.Shards {
				return nil, fmt.Errorf("rexptree: shard manifest %s: index has %d shards, options request %d", manifestPath, man.Shards, opts.Shards)
			}
			if man.Partition != opts.Partition.String() {
				return nil, fmt.Errorf("rexptree: shard manifest %s: index is %s-partitioned, options request %s", manifestPath, man.Partition, opts.Partition)
			}
			if len(man.SpeedBands) > 0 && len(bands) == 0 {
				bands = man.SpeedBands
				autoTuned = man.AutoTuned
			}
			gen = man.Generation
		}
	}
	if opts.BufferPagesPerShard < 0 {
		return nil, fmt.Errorf("rexptree: invalid BufferPagesPerShard %d", opts.BufferPagesPerShard)
	}

	s := &ShardedTree{
		sem:          make(chan struct{}, opts.Workers),
		m:            obs.New(),
		rec:          newRecorder(opts.Options),
		manifestPath: manifestPath,
		basePath:     opts.Path,
		durability:   opts.Durability,
		opts:         opts,
	}
	// The front end observes every fan-out as one operation; slow
	// fan-outs are reported with a "fanout/" tag so they are
	// distinguishable from the per-shard events the shards emit.
	if opts.SlowOpThreshold > 0 {
		slow := opts.SlowOp
		if slow == nil {
			threshold := opts.SlowOpThreshold
			slow = func(op string, d time.Duration) {
				log.Printf("rexptree: slow %s: %v (threshold %v)", op, d, threshold)
			}
		}
		s.m.SetSlowOp(opts.SlowOpThreshold, func(op obs.Op, d time.Duration) {
			slow("fanout/"+op.String(), d)
		})
	}

	trees, err := openGeneration(opts, opts.Shards, gen)
	if err != nil {
		return nil, err
	}
	s.dims = trees[0].dims

	g := &generation{shards: trees, sums: make([]shardSummary, opts.Shards), gen: gen}
	switch opts.Partition {
	case PartitionSpeed:
		sp := newSpeedPartitioner(opts.Shards, s.dims, opts.TuneAfter, bands,
			func(b []float64) { s.setSpeedGauges(g, b) })
		sp.tuned = autoTuned
		g.part = sp
		if len(bands) > 0 {
			s.setSpeedGauges(g, bands)
		}
		// Rebuild the object→shard table from the stored records.
		for i, t := range g.shards {
			t.mu.RLock()
			for id := range t.objects {
				sp.loc[id] = i
			}
			t.mu.RUnlock()
		}
	default:
		g.part = hashPartitioner{n: opts.Shards}
	}

	// Seed each shard's pruning summary from its root bound.
	for i := range g.shards {
		ss := &g.sums[i]
		ss.mu.Lock()
		s.retightenLocked(g, i)
		ss.mu.Unlock()
	}
	s.cur.Store(g)

	if manifestPath != "" {
		if err := s.writeManifestFile(g); err != nil {
			s.Close()
			return nil, err
		}
	}
	if opts.AutoReshard.Enabled {
		w := opts.AutoReshard.Window
		if w <= 0 {
			w = 4096
		}
		s.speedWin = manifest.NewSpeedWindow(w)
		s.autoStop = make(chan struct{})
		s.autoDone = make(chan struct{})
		go s.autoReshardLoop(opts.AutoReshard)
	}
	return s, nil
}

// writeManifestFile records generation g's partition in the sidecar.
func (s *ShardedTree) writeManifestFile(g *generation) error {
	man := manifest.Manifest{
		Version:    manifest.Version,
		Shards:     len(g.shards),
		Hash:       manifest.Hash,
		Partition:  g.part.policy().String(),
		Generation: g.gen,
		Durability: s.durability.String(),
	}
	if sp, ok := g.part.(*speedPartitioner); ok {
		man.SpeedBands, man.AutoTuned = sp.Bands()
	}
	return writeManifest(s.manifestPath, man)
}

// writeManifest stores a manifest atomically (write temp + rename).
func writeManifest(path string, m manifest.Manifest) error {
	if err := manifest.Write(path, m); err != nil {
		return fmt.Errorf("rexptree: %w", err)
	}
	return nil
}

// setSpeedGauges publishes each shard's speed band on its registry.
func (s *ShardedTree) setSpeedGauges(g *generation, bands []float64) {
	for i, t := range g.shards {
		lo, hi := 0.0, math.Inf(1)
		if i > 0 {
			lo = bands[i-1]
		}
		if i < len(bands) {
			hi = bands[i]
		}
		t.m.SetFloat(obs.SpeedBandLo, lo)
		t.m.SetFloat(obs.SpeedBandHi, hi)
	}
}

// NumShards returns the number of shards of the current generation.
func (s *ShardedTree) NumShards() int { return len(s.cur.Load().shards) }

// Dims returns the dimensionality of the indexed space.
func (s *ShardedTree) Dims() int { return s.dims }

// Generation returns the shard-file generation recorded in the
// manifest: 0 for a freshly created index, bumped by every reshard —
// offline (rexpreshard) or live (Reshard/StartReshard) — whose commit
// writes the new generation's files and switches the manifest to them
// atomically.
func (s *ShardedTree) Generation() int { return s.cur.Load().gen }

// Partition returns the current partition policy (a live reshard can
// change it).
func (s *ShardedTree) Partition() PartitionPolicy { return s.cur.Load().part.policy() }

// SpeedBands returns the active |velocity| band boundaries (nil under
// hash partitioning or while self-tuning is still sampling).
func (s *ShardedTree) SpeedBands() []float64 {
	if sp, ok := s.cur.Load().part.(*speedPartitioner); ok {
		b, _ := sp.Bands()
		return b
	}
	return nil
}

// shardIndex hashes an object id onto a shard.  The scheme (the
// murmur3 finalizer, recorded in the manifest) lives in
// internal/manifest, so every reader of a stored index routes alike.
func shardIndex(id uint32, n int) int {
	return manifest.ShardIndex(id, n)
}

// widenShard grows shard i's summary to cover the stored record, and
// every retightenEvery widens recomputes the summary from the shard's
// root so deletions and expirations eventually shrink it again.  The
// widen must happen after the record is inserted into the shard (see
// shardSummary).
func (s *ShardedTree) widenShard(g *generation, i int, mp geom.MovingPoint, now float64) {
	ss := &g.sums[i]
	ss.mu.Lock()
	ss.sum.WidenPoint(mp, now, s.dims)
	ss.dirty++
	if ss.dirty >= retightenEvery {
		s.retightenLocked(g, i)
	}
	ss.mu.Unlock()
}

// retightenLocked replaces shard i's summary with the tight bound read
// from the shard's root node.  The caller holds g.sums[i].mu; a read
// error keeps the current (conservative) summary.
func (s *ShardedTree) retightenLocked(g *generation, i int) {
	ss := &g.sums[i]
	ss.dirty = 0
	br, ok, err := g.shards[i].rootSummary()
	if err != nil {
		return
	}
	if !ok {
		ss.sum.Reset()
		return
	}
	ss.sum = geom.Summary{Box: br, Has: true}
}

// shardMatches reports whether the query can touch anything in shard i.
func (s *ShardedTree) shardMatches(g *generation, i int, q geom.Query) bool {
	ss := &g.sums[i]
	ss.mu.Lock()
	m := ss.sum.Matches(q, s.dims)
	ss.mu.Unlock()
	return m
}

// shardMinDist lower-bounds the distance from pos to any object of
// shard i at time at; ok is false for a provably empty shard.
func (s *ShardedTree) shardMinDist(g *generation, i int, pos Vec, at float64) (d float64, ok bool) {
	ss := &g.sums[i]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.sum.Has {
		return math.Inf(1), false
	}
	return ss.sum.MinDistAt(geom.Vec(pos), at, s.dims), true
}

// fanOut runs fn once per shard of g on the bounded worker pool and
// returns the first (lowest shard index) error.  Time spent waiting
// for a worker slot lands in the queue-wait phase histogram.
func (s *ShardedTree) fanOut(g *generation, fn func(i int, t *Tree) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.shards))
	for i, t := range g.shards {
		wg.Add(1)
		go func(i int, t *Tree) {
			defer wg.Done()
			qs := time.Now()
			s.sem <- struct{}{}
			s.m.ObservePhase(obs.PhaseQueueWait, time.Since(qs))
			defer func() { <-s.sem }()
			errs[i] = fn(i, t)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close persists the shard manifest (including self-tuned speed bands
// and the durability policy) and closes every shard, returning the
// first error.  An in-flight live reshard is canceled and awaited
// first (if its cutover already happened, the new generation is what
// gets closed).  Shard closes run concurrently — under a durability
// policy each one is a checkpoint plus fsync, so like recovery the
// cost is bounded by the largest shard.  Close is idempotent: repeated
// calls return the first call's result.
func (s *ShardedTree) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	s.shutdownReshard()
	s.closed = true
	g := s.cur.Load()
	if s.manifestPath != "" {
		if err := s.writeManifestFile(g); err != nil {
			s.closeErr = err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(g.shards))
	for i, t := range g.shards {
		wg.Add(1)
		go func(i int, t *Tree) {
			defer wg.Done()
			errs[i] = t.Close()
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	}
	return s.closeErr
}

// Abandon drops the index without checkpointing or persisting
// anything — the crash simulation used by durability tests.  Like
// Close it stops the drift detector and waits out an in-flight live
// reshard (which aborts at its next cancellation check).
func (s *ShardedTree) Abandon() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return
	}
	s.shutdownReshard()
	s.closed = true
	for _, t := range s.cur.Load().shards {
		t.Abandon()
	}
}

// Update inserts the object's report into its shard, replacing any
// previous report.  Under PartitionSpeed, a report whose speed crossed
// a band boundary first removes the object from its old shard, so the
// object migrates to its new band.  Updates to objects on different
// shards proceed concurrently; see Tree.Update for the time contract.
func (s *ShardedTree) Update(id uint32, p Point, now float64) error {
	var tc *QueryTrace
	if s.rec != nil {
		tc = newTrace("update")
	}
	start := time.Now()
	err := s.update(id, p, now, tc)
	d := time.Since(start)
	s.m.ObserveOp(obs.OpUpdate, d, err)
	tc.finishRecord(s.rec, 0, d, err)
	return err
}

func (s *ShardedTree) update(id uint32, p Point, now float64, tc *QueryTrace) error {
	ri := tc.begin(-1, "route", -1)
	s.rerouteMu.RLock()
	defer s.rerouteMu.RUnlock()
	g := s.cur.Load()
	lr := s.lr.Load()
	if g.part.policy() != PartitionHash || lr != nil {
		// Re-routing policies — and the dual-apply window of a live
		// reshard, whose touched-set and mirror apply must stay ordered
		// per object — serialize same-id updates on the id's stripe.
		// Hash partitioning outside a reshard needs neither: the shard
		// tree's own lock orders same-id updates.
		st := &s.stripes[id%uint32(len(s.stripes))]
		st.Lock()
		defer st.Unlock()
	}
	if s.speedWin != nil {
		s.speedWin.Observe(speedOf(p, s.dims))
	}
	if err := s.applyUpdate(g, id, p, now, tc, ri, true); err != nil {
		return err
	}
	if lr != nil {
		lr.noteTouched(id)
		if terr := s.applyUpdate(lr.target, id, p, now, nil, -1, false); terr != nil {
			lr.fail(terr)
		} else {
			lr.applied.Add(1)
			s.m.Inc(obs.ReshardDualApplied)
		}
	}
	return nil
}

// applyUpdate routes and applies one report to generation g.  The
// caller holds the locks the generation's policy requires; routeIdx is
// the trace span opened for routing (-1 untraced).  frontend gates the
// public re-route counter so the mirrored applies of a live reshard
// are not double-counted.
func (s *ShardedTree) applyUpdate(g *generation, id uint32, p Point, now float64, tc *QueryTrace, routeIdx int, frontend bool) error {
	target := g.part.route(id, p)
	old, hasOld := g.part.locate(id)
	tc.endAt(routeIdx)
	if hasOld && old != target {
		di := tc.begin(-1, "reroute-delete", old)
		_, err := g.shards[old].Delete(id, now)
		tc.endAt(di)
		if err != nil {
			return err
		}
		g.part.forget(id)
		if frontend {
			s.m.Inc(obs.Rerouted)
		}
	}
	t := g.shards[target]
	si := tc.begin(-1, "shard", target)
	err := t.Update(id, p, now)
	tc.endAt(si)
	if err != nil {
		return err
	}
	g.part.note(id, target)
	s.widenShard(g, target, t.storedPoint(p), now)
	return nil
}

// Delete removes the object's report from its shard; see Tree.Delete.
func (s *ShardedTree) Delete(id uint32, now float64) (bool, error) {
	var tc *QueryTrace
	if s.rec != nil {
		tc = newTrace("delete")
	}
	start := time.Now()
	ok, err := s.delete(id, now, tc)
	d := time.Since(start)
	s.m.ObserveOp(obs.OpDelete, d, err)
	tc.finishRecord(s.rec, 0, d, err)
	return ok, err
}

func (s *ShardedTree) delete(id uint32, now float64, tc *QueryTrace) (bool, error) {
	ri := tc.begin(-1, "route", -1)
	s.rerouteMu.RLock()
	defer s.rerouteMu.RUnlock()
	g := s.cur.Load()
	lr := s.lr.Load()
	if g.part.policy() != PartitionHash || lr != nil {
		st := &s.stripes[id%uint32(len(s.stripes))]
		st.Lock()
		defer st.Unlock()
	}
	removed, err := s.applyDelete(g, id, now, tc, ri)
	if err == nil && lr != nil {
		// Mark the id touched even when nothing was removed: the
		// backfill must never resurrect an object deleted during the
		// dual-apply window.
		lr.noteTouched(id)
		if _, terr := s.applyDelete(lr.target, id, now, nil, -1); terr != nil {
			lr.fail(terr)
		} else {
			lr.applied.Add(1)
			s.m.Inc(obs.ReshardDualApplied)
		}
	}
	return removed, err
}

// applyDelete removes one object from generation g; locks as for
// applyUpdate.
func (s *ShardedTree) applyDelete(g *generation, id uint32, now float64, tc *QueryTrace, routeIdx int) (bool, error) {
	i, ok := g.part.locate(id)
	tc.endAt(routeIdx)
	if !ok {
		return false, nil
	}
	si := tc.begin(-1, "shard", i)
	removed, err := g.shards[i].Delete(id, now)
	tc.endAt(si)
	if err == nil {
		g.part.forget(id)
	}
	return removed, err
}

// UpdateBatch groups the reports by target shard and applies each
// group as one Tree.UpdateBatch — a single lock acquisition per shard
// — with the per-shard batches running concurrently on the worker
// pool.  Reports for the same object keep their relative order; under
// PartitionSpeed every report of an object is applied on the shard of
// the object's final (last-report) speed band, after removing it from
// its previous shard, so the batch leaves the same state as applying
// the reports one by one.  On error the failing shard stops like
// Tree.UpdateBatch while other shards' groups still apply; the first
// error is returned.
func (s *ShardedTree) UpdateBatch(batch []Report, now float64) error {
	var tc *QueryTrace
	if s.rec != nil {
		tc = newTrace("batch")
	}
	start := time.Now()
	err := s.updateBatch(batch, now, tc)
	d := time.Since(start)
	s.m.ObserveOp(obs.OpBatch, d, err)
	s.batched.Add(uint64(len(batch)))
	tc.finishRecord(s.rec, len(batch), d, err)
	return err
}

// updateBatch records batch-level spans only (route, the reroute
// deletions, the grouped application): the fan-out goroutines never
// touch the shared trace.
func (s *ShardedTree) updateBatch(batch []Report, now float64, tc *QueryTrace) error {
	if len(batch) == 0 {
		return nil
	}
	s.rerouteMu.RLock()
	g := s.cur.Load()
	if g.part.policy() == PartitionHash && s.lr.Load() == nil {
		// Stateless routing, no reshard in flight: the grouped fan-out
		// runs under the shared lock, concurrently with other batches.
		defer s.rerouteMu.RUnlock()
		if s.speedWin != nil {
			for _, r := range batch {
				s.speedWin.Observe(speedOf(r.Point, s.dims))
			}
		}
		return s.applyBatch(g, batch, now, tc, true)
	}
	// Re-routing policies (and any batch inside a dual-apply window)
	// hold the re-route lock exclusively so the route/delete/apply
	// phases — and the mirror into the reshard target — cannot
	// interleave with other mutations.
	s.rerouteMu.RUnlock()
	s.rerouteMu.Lock()
	defer s.rerouteMu.Unlock()
	g = s.cur.Load()
	lr := s.lr.Load()
	if s.speedWin != nil {
		for _, r := range batch {
			s.speedWin.Observe(speedOf(r.Point, s.dims))
		}
	}
	err := s.applyBatch(g, batch, now, tc, true)
	if lr != nil {
		for _, r := range batch {
			lr.noteTouched(r.ID)
		}
		if err != nil {
			// The batch half-applied to the current generation; the
			// mirror can no longer be proven equivalent, so the
			// reshard aborts (the operation's own error stands).
			lr.fail(err)
			return err
		}
		if terr := s.applyBatch(lr.target, batch, now, nil, false); terr != nil {
			lr.fail(terr)
		} else {
			lr.applied.Add(uint64(len(batch)))
			s.m.Add(obs.ReshardDualApplied, uint64(len(batch)))
		}
	}
	return err
}

// applyBatch routes and applies one batch to generation g; the caller
// holds rerouteMu (shared suffices only for stateless hash routing).
func (s *ShardedTree) applyBatch(g *generation, batch []Report, now float64, tc *QueryTrace, frontend bool) error {
	if g.part.policy() == PartitionHash {
		ri := tc.begin(-1, "route", -1)
		groups := make([][]Report, len(g.shards))
		for _, r := range batch {
			i := g.part.route(r.ID, r.Point)
			groups[i] = append(groups[i], r)
		}
		tc.endAt(ri)
		ai := tc.begin(-1, "apply", -1)
		err := s.fanOut(g, func(i int, t *Tree) error {
			if len(groups[i]) == 0 {
				return nil
			}
			return t.UpdateBatch(groups[i], now)
		})
		tc.endAt(ai)
		// Widen with every report, even after a partial failure — a
		// too-wide summary is always safe.
		s.widenGroups(g, groups, now)
		return err
	}

	ri := tc.begin(-1, "route", -1)
	// Route every report; the last report fixes each object's shard.
	final := make(map[uint32]int, len(batch))
	for _, r := range batch {
		final[r.ID] = g.part.route(r.ID, r.Point)
	}

	// Remove re-routed objects from their previous shards first.
	delGroups := make([][]uint32, len(g.shards))
	for id, tgt := range final {
		if old, ok := g.part.locate(id); ok && old != tgt {
			delGroups[old] = append(delGroups[old], id)
		}
	}
	tc.endAt(ri)
	di := tc.begin(-1, "reroute-deletes", -1)
	err := s.fanOut(g, func(i int, t *Tree) error {
		ids := delGroups[i]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if _, err := t.Delete(id, now); err != nil {
				return err
			}
			g.part.forget(id)
			if frontend {
				s.m.Inc(obs.Rerouted)
			}
		}
		return nil
	})
	tc.endAt(di)
	if err != nil {
		return err
	}

	// Apply every report on its object's final shard, in batch order.
	groups := make([][]Report, len(g.shards))
	for _, r := range batch {
		i := final[r.ID]
		groups[i] = append(groups[i], r)
	}
	ai := tc.begin(-1, "apply", -1)
	err = s.fanOut(g, func(i int, t *Tree) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return t.UpdateBatch(groups[i], now)
	})
	tc.endAt(ai)
	for id, tgt := range final {
		g.part.note(id, tgt)
	}
	s.widenGroups(g, groups, now)
	return err
}

// widenGroups widens each shard's summary with its group's reports.
func (s *ShardedTree) widenGroups(g *generation, groups [][]Report, now float64) {
	for i, grp := range groups {
		for _, r := range grp {
			s.widenShard(g, i, g.shards[i].storedPoint(r.Point), now)
		}
	}
}

// query fans one search out across the shards whose summaries the
// query trapezoid can touch, counting visited and pruned shards, and
// merges the results in ascending object-id order.  Pruned shards
// spawn nothing and take no worker slot.  A visited shard's operation
// latency is measured from its goroutine's start, so it includes the
// queue wait.  When tc is non-nil, each visited shard's span block
// (shard, queue-wait, lock-wait, traverse) is preallocated before the
// fan-out so the goroutines only write their own slots.
func (s *ShardedTree) query(q geom.Query, op obs.Op, now float64, tc *QueryTrace) ([]Result, error) {
	g := s.pin()
	defer g.unpin()
	ri := tc.begin(-1, "route", -1)
	s.traceShards(tc, g, "summary-pruned")
	visit := make([]bool, len(g.shards))
	var visits uint64
	for i := range g.shards {
		if s.shardMatches(g, i, q) {
			visit[i] = true
			visits++
		}
	}
	tc.endAt(ri)
	s.m.Add(obs.ShardVisits, visits)
	s.m.Add(obs.ShardsPruned, uint64(len(g.shards))-visits)

	type spanBlock struct{ shard, queue, lock, trav int }
	blocks := make([]spanBlock, len(g.shards))
	for i := range g.shards {
		if visit[i] && tc != nil {
			sh := tc.begin(-1, "shard", i)
			blocks[i] = spanBlock{sh, tc.begin(sh, "queue-wait", i), tc.begin(sh, "lock-wait", i), tc.begin(sh, "traverse", i)}
		}
	}

	parts := make([][]Result, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, t := range g.shards {
		if !visit[i] {
			continue
		}
		wg.Add(1)
		go func(i int, t *Tree) {
			defer wg.Done()
			opStart := time.Now()
			b := blocks[i]
			tc.startAt(b.queue)
			s.sem <- struct{}{}
			s.m.ObservePhase(obs.PhaseQueueWait, time.Since(opStart))
			tc.endAt(b.queue)
			defer func() { <-s.sem }()
			parts[i], errs[i] = t.searchSpansAt(q, now, tc, b.lock, b.trav)
			tc.endAt(b.shard)
			t.m.ObserveOp(op, time.Since(opStart), errs[i])
		}(i, t)
	}
	wg.Wait()

	for i := range g.shards {
		if visit[i] {
			tc.visitedShard(i, blocks[i].shard, blocks[i].trav, len(parts[i]))
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	mi := tc.begin(-1, "merge", -1)
	ms := time.Now()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]Result, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	s.m.ObservePhase(obs.PhaseMerge, time.Since(ms))
	tc.endAt(mi)
	return out, nil
}

// Timeslice reports the objects predicted to be inside r at time at
// (Type 1 query), fanned out across the non-pruned shards; see
// Tree.Timeslice.
func (s *ShardedTree) Timeslice(r Rect, at, now float64) ([]Result, error) {
	res, _, err := observeQuery(s.m, s.rec, obs.OpTimeslice, false, func(tc *QueryTrace) ([]Result, error) {
		return s.timeslice(r, at, now, tc)
	})
	return res, err
}

func (s *ShardedTree) timeslice(r Rect, at, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkTimeslice(at, now); err != nil {
		return nil, err
	}
	return s.query(geom.Timeslice(toRect(r), at), obs.OpTimeslice, now, tc)
}

// Window reports the objects predicted to cross r during [t1, t2]
// (Type 2 query), fanned out across the non-pruned shards; see
// Tree.Window.
func (s *ShardedTree) Window(r Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := observeQuery(s.m, s.rec, obs.OpWindow, false, func(tc *QueryTrace) ([]Result, error) {
		return s.window(r, t1, t2, now, tc)
	})
	return res, err
}

func (s *ShardedTree) window(r Rect, t1, t2, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkWindow(t1, t2, now); err != nil {
		return nil, err
	}
	return s.query(geom.Window(toRect(r), t1, t2), obs.OpWindow, now, tc)
}

// Moving reports the objects predicted to cross the trapezoid
// connecting r1 at t1 to r2 at t2 (Type 3 query), fanned out across
// the non-pruned shards; see Tree.Moving.
func (s *ShardedTree) Moving(r1, r2 Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := observeQuery(s.m, s.rec, obs.OpMoving, false, func(tc *QueryTrace) ([]Result, error) {
		return s.moving(r1, r2, t1, t2, now, tc)
	})
	return res, err
}

func (s *ShardedTree) moving(r1, r2 Rect, t1, t2, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkMoving(t1, t2, now); err != nil {
		return nil, err
	}
	return s.query(geom.Moving(toRect(r1), toRect(r2), t1, t2, s.dims), obs.OpMoving, now, tc)
}

// Nearest returns the k objects whose predicted positions at time at
// are closest to pos.  Shards are visited in ascending order of their
// summaries' lower-bound distance to pos; once k candidates are in
// hand, every remaining shard whose bound exceeds the current k-th
// distance is skipped (its objects are strictly farther, so they
// cannot enter the result).  The merged list is ordered by ascending
// distance (ties by object id) and truncated to k.
func (s *ShardedTree) Nearest(pos Vec, at float64, k int, now float64) ([]Result, error) {
	res, _, err := observeQuery(s.m, s.rec, obs.OpNearest, false, func(tc *QueryTrace) ([]Result, error) {
		return s.nearest(pos, at, k, now, tc)
	})
	return res, err
}

// nearest visits the shards sequentially, so a trace's spans append
// freely.
func (s *ShardedTree) nearest(pos Vec, at float64, k int, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkTimeslice(at, now); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	g := s.pin()
	defer g.unpin()
	ri := tc.begin(-1, "route", -1)
	type shardDist struct {
		i   int
		d   float64
		has bool
	}
	ord := make([]shardDist, len(g.shards))
	for i := range g.shards {
		d, has := s.shardMinDist(g, i, pos, at)
		ord[i] = shardDist{i, d, has}
	}
	sort.Slice(ord, func(a, b int) bool {
		if ord[a].d != ord[b].d {
			return ord[a].d < ord[b].d
		}
		return ord[a].i < ord[b].i
	})
	s.traceShards(tc, g, "")
	tc.endAt(ri)

	type cand struct {
		dist float64
		r    Result
	}
	var cands []cand
	var visits, pruned uint64
	for idx, o := range ord {
		// Empty shards, and — once k candidates are in hand — shards
		// whose bound is strictly beyond the k-th distance, cannot
		// contribute; with ord sorted ascending neither can any shard
		// after them.
		if !o.has || (len(cands) >= k && o.d > cands[k-1].dist) {
			if tc != nil {
				for _, rest := range ord[idx:] {
					tc.Shards[rest.i].Reason = "empty"
					if rest.has {
						tc.Shards[rest.i].Reason = "distance-pruned"
					}
				}
			}
			pruned += uint64(len(ord) - idx)
			break
		}
		visits++
		sh := tc.begin(-1, "shard", o.i)
		li := tc.begin(sh, "lock-wait", o.i)
		ti := tc.begin(sh, "traverse", o.i)
		opStart := time.Now()
		rs, err := g.shards[o.i].nearestSpansAt(pos, at, k, now, tc, li, ti)
		g.shards[o.i].m.ObserveOp(obs.OpNearest, time.Since(opStart), err)
		tc.endAt(sh)
		tc.visitedShard(o.i, sh, ti, len(rs))
		if err != nil {
			s.m.Add(obs.ShardVisits, visits)
			return nil, err
		}
		for _, r := range rs {
			p := r.Point.At(at)
			var d float64
			for j := 0; j < s.dims; j++ {
				dd := p[j] - pos[j]
				d += dd * dd
			}
			cands = append(cands, cand{math.Sqrt(d), r})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].dist != cands[b].dist {
				return cands[a].dist < cands[b].dist
			}
			return cands[a].r.ID < cands[b].r.ID
		})
		if len(cands) > k {
			cands = cands[:k]
		}
	}
	s.m.Add(obs.ShardVisits, visits)
	s.m.Add(obs.ShardsPruned, pruned)
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = c.r
	}
	return out, nil
}

// Get returns the object's current report from its shard; see
// Tree.Get.
func (s *ShardedTree) Get(id uint32, now float64) (Point, bool) {
	g := s.pin()
	defer g.unpin()
	i, ok := g.part.locate(id)
	if !ok {
		return Point{}, false
	}
	return g.shards[i].Get(id, now)
}

// Len returns the total number of stored reports across all shards.
func (s *ShardedTree) Len() int {
	g := s.pin()
	defer g.unpin()
	n := 0
	for _, t := range g.shards {
		n += t.Len()
	}
	return n
}

// Now returns the index's logical clock: the largest reference time
// any shard has applied.  A reopened index restores it from the shard
// metadata pages, so it survives restarts.
func (s *ShardedTree) Now() float64 {
	g := s.pin()
	defer g.unpin()
	now := 0.0
	for _, t := range g.shards {
		if c := t.Now(); c > now {
			now = c
		}
	}
	return now
}

// ForEach visits every stored report, shard by shard, until fn returns
// false.  The visit order is unspecified.
func (s *ShardedTree) ForEach(now float64, fn func(Result) bool) error {
	g := s.pin()
	defer g.unpin()
	stop := false
	for _, t := range g.shards {
		if stop {
			return nil
		}
		err := t.ForEach(now, func(r Result) bool {
			if !fn(r) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the structural invariants of every shard.
func (s *ShardedTree) Validate() error {
	g := s.pin()
	defer g.unpin()
	return s.fanOut(g, func(_ int, t *Tree) error { return t.Validate() })
}

// Stats returns the summed statistics of all shards (Height is the
// tallest shard's).
func (s *ShardedTree) Stats() Stats {
	g := s.pin()
	defer g.unpin()
	var out Stats
	for _, t := range g.shards {
		st := t.Stats()
		if st.Height > out.Height {
			out.Height = st.Height
		}
		out.Pages += st.Pages
		out.LeafEntries += st.LeafEntries
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.BufferHits += st.BufferHits
		out.Evictions += st.Evictions
		out.DirtyWritebacks += st.DirtyWritebacks
		out.UIEstimate = math.Max(out.UIEstimate, st.UIEstimate)
	}
	return out
}

// snapshots freezes the aggregate and per-shard registries.  The
// aggregate folds the shard registries and the front end's under each
// family's aggregation rule (see obs.Aggregate): the per-operation
// histograms, the partitioning counters (shard visits, prunes,
// re-routes) and the live-reshard families come from the front end,
// which measures the whole fan-out including the merge, and the
// front end's fan-out phases (queue_wait, merge) fold into the summed
// shard phases.
func (s *ShardedTree) snapshots() (agg obs.Snapshot, shards []obs.Snapshot) {
	g := s.pin()
	defer g.unpin()
	shards = make([]obs.Snapshot, len(g.shards))
	for i, t := range g.shards {
		shards[i] = t.snapshot()
	}
	return obs.Aggregate(s.m.Snapshot(), shards), shards
}

// Metrics returns the aggregate instrumentation snapshot: summed
// per-shard counters, gauges and lock-wait histograms, with the
// per-operation latencies and pruning counters measured at the sharded
// front end (fan-out plus merge).  Use ShardMetrics for one shard's
// own view.
func (s *ShardedTree) Metrics() Metrics {
	agg, _ := s.snapshots()
	return fromSnapshot(agg)
}

// ShardMetrics returns the instrumentation snapshot of shard i.
func (s *ShardedTree) ShardMetrics(i int) Metrics {
	g := s.pin()
	defer g.unpin()
	return fromSnapshot(g.shards[i].snapshot())
}

// WriteMetrics writes the aggregate metrics under the rexp_ name
// prefix followed by one section per shard under rexp_shard<i>_, all
// in the Prometheus text exposition format.  docs/METRICS.md lists
// every series.
func (s *ShardedTree) WriteMetrics(w io.Writer) error {
	agg, shards := s.snapshots()
	return obs.WriteSharded(w, agg, shards)
}

// MetricsHandler returns an http.Handler serving WriteMetrics for
// mounting on a scrape endpoint.
func (s *ShardedTree) MetricsHandler() http.Handler {
	return obs.ShardedHandler(s.snapshots)
}
