package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"rexptree/internal/epoch"
	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// Tree is the page-based index engine.  Mutating operations (Insert,
// Delete, bulk loading, Sync) require external exclusive locking; the
// read-only traversals (Search, Nearest, Records, the stats walks) may
// run concurrently with each other — the buffer pool, the decoded-node
// cache and the clock are internally synchronized — but never
// concurrently with a mutation.  The public rexptree package supplies
// that discipline with a reader/writer lock.
type Tree struct {
	cfg Config
	lay layout
	bp  *storage.BufferPool
	met *obs.Metrics // nil when uninstrumented

	root   storage.PageID
	height int // number of levels; the root is at level height-1
	clk    clock
	rng    *rand.Rand

	// cache holds the decoded image of pages.  Node rectangles are
	// rounded to page (float32) precision when computed, so a cached
	// node is always bit-identical to what decoding its page would
	// produce; the buffer pool is still consulted on every access so
	// that I/O is charged exactly as without the cache.  cacheMu makes
	// the map safe for the concurrent read-only traversals the public
	// tree's shared lock admits; two readers that race to decode the
	// same page store bit-identical nodes, so either insert may win.
	cacheMu sync.RWMutex
	cache   map[storage.PageID]*node

	// Self-tuning state (§4.2.3).
	leafEntries   int   // N: leaf entries physically stored
	nodesPerLevel []int // nodes per level, for per-level horizons
	insSinceTimer int
	timerStart    float64
	ui            float64 // 0 until the first estimate is available

	// Per-operation state: bit l is set once level l has had its
	// forced reinsertion in the current Insert or Delete.
	reinsertedAt uint64

	// scratch and hw are computeBR's reusable item buffer and hull
	// workspace, so recomputing a bounding rectangle allocates nothing.
	scratch []geom.TPRect
	hw      hull.Workspace

	// Snapshot read path state (see snapshot.go).  pub is the
	// atomically published root descriptor; chains the per-page version
	// table (a dense slice indexed by PageID, grown copy-on-write);
	// dom the epoch domain readers pin; staged the pages the current
	// mutation touched, keyed by page id (nil marks a free).  The
	// remaining fields are writer-private.
	pub    atomic.Pointer[pubState]
	chains atomic.Pointer[[]atomic.Pointer[chain]]
	dom    *epoch.Domain
	staged map[storage.PageID]*node

	batchDepth       int
	pendingPub       bool
	pubSeq           uint64
	pubCount         uint64
	lastPublishNanos int64
	sweepScratch     []*chain
}

// newTreeShell builds a Tree with its runtime machinery but no pages.
func newTreeShell(cfg Config, store storage.Store) *Tree {
	t := &Tree{
		cfg:    cfg,
		lay:    newLayout(cfg),
		bp:     storage.NewBufferPool(store, cfg.BufferPages),
		met:    cfg.Metrics,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cache:  make(map[storage.PageID]*node),
		dom:    epoch.NewDomain(0),
		staged: make(map[storage.PageID]*node),
	}
	empty := make([]atomic.Pointer[chain], 0)
	t.chains.Store(&empty)
	if t.met != nil {
		t.bp.SetMetrics(t.met)
	}
	if cfg.DeferFlush {
		t.bp.SetNoSteal(true)
	}
	return t
}

// Metrics returns the attached instrument registry (nil when the tree
// is uninstrumented).
func (t *Tree) Metrics() *obs.Metrics { return t.met }

// SyncGauges pushes the tree's structural state (height, pages, leaf
// entries, buffered pages, UI and horizon estimates) into the metric
// gauges.  Call it before taking a snapshot; it is not needed on hot
// paths because gauges only matter at observation time.
func (t *Tree) SyncGauges() {
	if t.met == nil {
		return
	}
	t.met.SetGauge(obs.Height, int64(t.height))
	t.met.SetGauge(obs.Pages, int64(t.Size()))
	t.met.SetGauge(obs.LeafEntries, int64(t.leafEntries))
	t.met.SetGauge(obs.BufResident, int64(t.bp.Resident()))
	t.met.SetGauge(obs.BufPoolPages, int64(t.bp.Cap()))
	t.met.SetFloat(obs.UI, t.UI())
	t.met.SetFloat(obs.Horizon, t.metricH())
}

// BufferPoolPages returns the buffer pool's page capacity.
func (t *Tree) BufferPoolPages() int { return t.bp.Cap() }

// RootBR returns a conservative time-parameterized bound over every
// entry currently stored in the tree — the union of the root node's
// entry rectangles, which is valid for all t >= the tree's current
// time — and ok=false when the tree is empty.  It reads only the root
// page (pinned in the buffer pool, so no I/O is charged) and is the
// retightening source for the sharded front-end's per-shard summaries.
// Like the other read-only traversals it may run concurrently with
// queries but not with a mutation.
func (t *Tree) RootBR() (br geom.TPRect, ok bool, err error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return geom.TPRect{}, false, err
	}
	if len(n.entries) == 0 {
		return geom.TPRect{}, false, nil
	}
	now := t.Now()
	br = n.entries[0].rect
	for i := 1; i < len(n.entries); i++ {
		br = geom.UnionConservative(br, n.entries[i].rect, now, t.cfg.Dims)
	}
	br.TExp = math.Inf(1)
	return br, true, nil
}

// New creates an empty tree over the given (empty) store.  Use Open to
// load a store that already holds a Synced tree.
func New(cfg Config, store storage.Store) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := newTreeShell(cfg, store)
	if err := t.initMeta(); err != nil {
		return nil, err
	}
	root, err := t.allocNode(0)
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.root = root.id
	t.height = 1
	if err := t.bp.Pin(t.root); err != nil {
		return nil, err
	}
	t.publishOp()
	return t, nil
}

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Now returns the latest time the tree has observed.  It is an
// atomic read, safe without any lock, so concurrent queries can check
// expiration while an update advances the clock.
func (t *Tree) Now() float64 { return t.clk.Load() }

// Height returns the number of tree levels.
func (t *Tree) Height() int { return t.height }

// LeafEntries returns the number of leaf entries physically stored
// (live plus not-yet-purged expired ones).
func (t *Tree) LeafEntries() int { return t.leafEntries }

// Size returns the number of allocated pages — the index-size metric
// of the experiments (Figure 15).
func (t *Tree) Size() int { return t.bp.Store().Len() }

// IOStats returns the accumulated buffer-pool I/O counters.
func (t *Tree) IOStats() storage.Stats { return t.bp.Stats() }

// ResetIOStats zeroes the I/O counters.
func (t *Tree) ResetIOStats() { t.bp.ResetStats() }

// LeafCapacity returns the number of entries in a full leaf node.
func (t *Tree) LeafCapacity() int { return t.lay.leafCap }

// InternalCapacity returns the number of entries in a full internal
// node.
func (t *Tree) InternalCapacity() int { return t.lay.innerCap }

// UI returns the current update-interval estimate (§4.2.3).
func (t *Tree) UI() float64 {
	if t.ui > 0 && !t.cfg.DisableAutoTune {
		return t.ui
	}
	return t.cfg.InitialUI
}

// W returns the assumed querying-window length.
func (t *Tree) W() float64 {
	if t.cfg.FixedW > 0 {
		return t.cfg.FixedW
	}
	return t.cfg.Beta * t.UI()
}

// metricH is the time horizon H = UI + W used by the insertion
// heuristics (§4.2.1).
func (t *Tree) metricH() float64 { return t.UI() + t.W() }

// brHorizon is the horizon used when computing the bounding rectangle
// of a node at the given level: the expected time until the rectangle
// is recomputed — UI scaled down by the number of leaf entries per
// node at this level — plus the querying window (§4.2.3).
func (t *Tree) brHorizon(level int) float64 {
	h := t.UI()
	if t.leafEntries > 0 && level < len(t.nodesPerLevel) && t.nodesPerLevel[level] > 0 {
		h *= float64(t.nodesPerLevel[level]) / float64(t.leafEntries)
	}
	return h + t.W()
}

// clock is the tree's monotonic time.  It is atomic so that query
// paths (which hold only a shared lock in the public tree) can read
// and advance it while racing with each other.
type clock struct{ bits atomic.Uint64 }

// Load returns the current time.
func (c *clock) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Store sets the clock unconditionally (used when loading persisted
// state).
func (c *clock) Store(v float64) { c.bits.Store(math.Float64bits(v)) }

// Advance moves the clock to v unless it is already later.
func (c *clock) Advance(v float64) {
	for {
		old := c.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// advance moves the tree clock forward (time never runs backwards).
func (t *Tree) advance(now float64) { t.clk.Advance(now) }

// tickUI counts one insertion toward the update-interval estimate and
// refreshes the estimate every leaf-capacity insertions (§4.2.3).
func (t *Tree) tickUI() {
	t.insSinceTimer++
	b := t.lay.leafCap
	if t.insSinceTimer < b {
		return
	}
	if dt := t.Now() - t.timerStart; dt > 0 && t.leafEntries > 0 {
		t.ui = dt / float64(b) * float64(t.leafEntries)
	}
	t.timerStart = t.Now()
	t.insSinceTimer = 0
}

// prepare quantizes an incoming trajectory record to page precision
// and, when static bounding rectangles are in use, replaces an
// infinite expiration time by the trivial upper bound derived from the
// finite world extent (§2.1): a zero-velocity rectangle cannot bound a
// moving trajectory forever, but beyond its world-exit time the
// trajectory cannot match any in-world query.
func (t *Tree) prepare(p geom.MovingPoint) geom.MovingPoint {
	p = quantize(p, t.cfg.Dims)
	if !t.cfg.ExpireAware {
		// The page format of a plain TPR-tree has no expiration field.
		p.TExp = math.Inf(1)
	}
	if t.cfg.BRKind == hull.KindStatic && t.cfg.ExpireAware && !geom.IsFinite(p.TExp) {
		if exit := geom.ExitTime(p, t.cfg.World, t.Now(), t.cfg.Dims); geom.IsFinite(exit) {
			p.TExp = float64(f32Up(exit))
		}
	}
	return p
}

// Stored returns the record exactly as the tree stores it: quantized
// to page precision, with any derived expiration bound applied.
// Callers that later delete the record should pass this form.
func (t *Tree) Stored(p geom.MovingPoint) geom.MovingPoint { return t.prepare(p) }

// effExp returns the expiration time of an entry as the engine's
// algorithms see it: the recorded time for leaf entries (and for
// internal entries when StoreBRExp is set), the derived expiration of
// shrinking rectangles otherwise, and +Inf when the engine is not
// expiration-aware.
func (t *Tree) effExp(r *geom.TPRect, level int) float64 {
	if !t.cfg.ExpireAware {
		return math.Inf(1)
	}
	if level == 0 || t.cfg.StoreBRExp {
		return r.TExp
	}
	return geom.DerivedExp(r, t.Now(), t.cfg.Dims)
}

// isExpired reports whether the entry (stored at the given node level)
// is dead at the tree's current time.
func (t *Tree) isExpired(r *geom.TPRect, level int) bool {
	if !t.cfg.ExpireAware {
		return false
	}
	if level == 0 || t.cfg.StoreBRExp {
		return r.TExp < t.Now()
	}
	return geom.DerivedExp(r, t.Now(), t.cfg.Dims) < t.Now()
}

// decisionExp returns the expiration time the insertion heuristics use
// for an entry (Eq. 1): the effective expiration when AlgsUseExp is
// set, +Inf otherwise (§4.2.2).
func (t *Tree) decisionExp(r *geom.TPRect, level int) float64 {
	if !t.cfg.AlgsUseExp {
		return math.Inf(1)
	}
	return t.effExp(r, level)
}

// metricEnd returns the upper integration bound now+min(H, texp-now)
// of Eq. 1, given the expiration times of the rectangles involved.
func (t *Tree) metricEnd(texps ...float64) float64 {
	end := t.Now() + t.metricH()
	m := math.Inf(-1)
	for _, e := range texps {
		m = math.Max(m, e)
	}
	if m < end {
		end = m
	}
	if end < t.Now() {
		end = t.Now()
	}
	return end
}

// computeBR computes the bounding rectangle of a node's entries with
// the configured bounding-rectangle type.
func (t *Tree) computeBR(n *node) geom.TPRect {
	if cap(t.scratch) < len(n.entries) {
		t.scratch = make([]geom.TPRect, 0, max(len(n.entries), t.lay.leafCap+1))
	}
	items := t.scratch[:len(n.entries)]
	for i := range n.entries {
		items[i] = n.entries[i].rect
		items[i].TExp = t.effExp(&items[i], n.level)
	}
	var perm [geom.MaxDims]int
	var order []int
	if t.cfg.BRKind == hull.KindNearOptimal {
		order = t.dimOrder(&perm)
	}
	br := t.hw.Compute(t.cfg.BRKind, items, t.Now(), t.brHorizon(n.level), t.cfg.Dims, t.cfg.World, order)
	if !t.cfg.StoreBRExp {
		br.TExp = math.Inf(1)
	}
	return t.roundBR(br)
}

// dimOrder draws the random dimension order of a near-optimal
// bounding rectangle into perm and returns it.  It consumes the tree's
// random source exactly as rand.Perm(Dims) would — one Intn(i+1) per
// dimension, the same inside-out shuffle — so the order, and every
// rectangle computed from it, is unchanged, but nothing is allocated.
func (t *Tree) dimOrder(perm *[geom.MaxDims]int) []int {
	for i := 0; i < t.cfg.Dims; i++ {
		j := t.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return perm[:t.cfg.Dims]
}

// roundBR rounds a bounding rectangle outward to the float32 precision
// of the page format, so in-memory rectangles are identical to their
// decoded page image and outer bounds never tighten through round-off.
func (t *Tree) roundBR(r geom.TPRect) geom.TPRect {
	for i := 0; i < t.cfg.Dims; i++ {
		r.Lo[i] = float64(f32Down(r.Lo[i]))
		r.Hi[i] = float64(f32Up(r.Hi[i]))
		r.VLo[i] = float64(f32Down(r.VLo[i]))
		r.VHi[i] = float64(f32Up(r.VHi[i]))
	}
	if t.cfg.StoreBRExp {
		r.TExp = float64(f32Up(r.TExp))
	}
	return r
}

// readNode loads the node.  The buffer pool is consulted first so
// that misses are charged as reads; decoding is skipped when the
// node's image is cached.  The returned node is shared: a caller that
// mutates it must writeNode it before the operation ends (mutation
// requires the public tree's exclusive lock, which keeps concurrent
// readers out).
func (t *Tree) readNode(id storage.PageID) (*node, error) {
	return t.readNodeStats(id, nil)
}

// readNodeStats is readNode plus per-traversal page accounting: when
// st is non-nil, the buffer-pool hit or miss is tallied into it.  The
// pool is consulted first either way so buffered pages stay charged
// and LRU-ordered exactly as on the untraced path.
func (t *Tree) readNodeStats(id storage.PageID, st *TravStats) (*node, error) {
	var buf []byte
	var err error
	if st == nil {
		buf, err = t.bp.Get(id)
	} else {
		var hit bool
		buf, hit, err = t.bp.GetTracked(id)
		if err == nil {
			if hit {
				st.Hits++
			} else {
				st.Reads++
			}
		}
	}
	if err != nil {
		return nil, err
	}
	t.cacheMu.RLock()
	n, ok := t.cache[id]
	t.cacheMu.RUnlock()
	if ok {
		return n, nil
	}
	n, err = t.lay.decode(id, buf)
	if err != nil {
		return nil, err
	}
	t.cacheMu.Lock()
	t.cache[id] = n
	t.cacheMu.Unlock()
	return n, nil
}

// writeNode encodes the node into its buffered page and marks it
// dirty; the page reaches the store at the end of the operation or on
// eviction.
func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.lay.cap(n.level) {
		return fmt.Errorf("core: node %d overflow: %d entries (cap %d)", n.id, len(n.entries), t.lay.cap(n.level))
	}
	buf, err := t.bp.Get(n.id)
	if err != nil {
		return err
	}
	t.lay.encode(n, buf)
	t.cacheMu.Lock()
	t.cache[n.id] = n
	t.cacheMu.Unlock()
	t.stageWrite(n)
	return t.bp.MarkDirty(n.id)
}

// allocNode creates an empty node at the given level.
func (t *Tree) allocNode(level int) (*node, error) {
	id, _, err := t.bp.Allocate()
	if err != nil {
		return nil, err
	}
	for len(t.nodesPerLevel) <= level {
		t.nodesPerLevel = append(t.nodesPerLevel, 0)
	}
	t.nodesPerLevel[level]++
	return &node{id: id, level: level}, nil
}

// freeNode releases the node's page.
func (t *Tree) freeNode(n *node) error {
	if n.level < len(t.nodesPerLevel) {
		t.nodesPerLevel[n.level]--
	}
	t.cacheMu.Lock()
	delete(t.cache, n.id)
	t.cacheMu.Unlock()
	t.stageFree(n.id)
	return t.bp.Free(n.id)
}

// freeSubtree deallocates the whole subtree rooted at the given page
// (paper §4.3: discarding an expired internal entry deallocates its
// subtree).  Reading the interior pages to find their children costs
// I/O, which is charged as usual.
func (t *Tree) freeSubtree(id storage.PageID, level int) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if n.level == 0 {
		t.leafEntries -= len(n.entries)
		if t.met != nil {
			t.met.Add(obs.ExpiredPurged, uint64(len(n.entries)))
		}
	} else {
		for _, e := range n.entries {
			if err := t.freeSubtree(e.child(), n.level-1); err != nil {
				return err
			}
		}
	}
	return t.freeNode(n)
}

// purgeNode drops the node's expired entries, deallocating expired
// subtrees.  It does nothing unless the engine is expiration-aware.
// The caller is responsible for writing the node afterwards and for
// handling a resulting underflow.
func (t *Tree) purgeNode(n *node) error {
	if !t.cfg.ExpireAware {
		return nil
	}
	first := 0
	for first < len(n.entries) && !t.isExpired(&n.entries[first].rect, n.level) {
		first++
	}
	if first == len(n.entries) {
		return nil // nothing expired: leave the node untouched
	}
	// Entries before the first expired one are already in place; only
	// the tail is compacted.
	keep := n.entries[:first]
	dropped, freed := 0, 0
	for i := first; i < len(n.entries); i++ {
		e := &n.entries[i]
		if !t.isExpired(&e.rect, n.level) {
			keep = append(keep, *e)
			continue
		}
		dropped++
		if n.level == 0 {
			t.leafEntries--
		} else {
			freed++
			if err := t.freeSubtree(e.child(), n.level-1); err != nil {
				return err
			}
		}
	}
	n.entries = keep
	if t.met != nil && dropped > 0 {
		if n.level == 0 {
			t.met.Add(obs.ExpiredPurged, uint64(dropped))
		}
		if freed > 0 {
			t.met.Add(obs.SubtreesFreed, uint64(freed))
			t.met.Emit(obs.Event{Kind: obs.EvSubtreeFreed, Level: n.level, N: freed})
		}
		t.met.Emit(obs.Event{Kind: obs.EvPurge, Level: n.level, N: dropped})
	}
	return nil
}

// finishOp flushes dirty pages, implementing the paper's write-back
// policy: nodes modified during an operation are written at its end.
// Under DeferFlush the write-ahead log carries durability and dirty
// pages stay buffered until the next checkpoint, so nothing is done.
func (t *Tree) finishOp() error {
	if t.cfg.DeferFlush {
		return nil
	}
	return t.bp.Flush()
}

// setRoot repins the buffer frame of the root page.
func (t *Tree) setRoot(id storage.PageID) error {
	if err := t.bp.Unpin(t.root); err != nil {
		return err
	}
	t.root = id
	return t.bp.Pin(id)
}
