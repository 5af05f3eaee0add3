package core

import (
	"math"
	"sync/atomic"
	"time"

	"rexptree/internal/epoch"
	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// This file is the lock-free snapshot read path.  Writers publish an
// immutable, columnar copy of every page they touched (a vnode) onto a
// per-page version chain, then swap in a new root/clock descriptor
// (pubState) with one atomic store.  Readers pin the published
// sequence in an epoch domain and traverse the version chains without
// taking the tree's reader/writer lock or the buffer-pool mutex; the
// writer reclaims versions no pinned reader can still need after each
// publication.
//
// The legacy locked traversals (Search, Nearest, the stats walks)
// remain untouched beside this path: they are the semantics baseline
// the equivalence tests compare against, and the paper's I/O-counting
// experiments keep charging the buffer pool exactly as before.

// pubState is the atomically published root descriptor: everything a
// reader needs to start a traversal of one consistent tree snapshot.
type pubState struct {
	seq    uint64
	root   storage.PageID
	height int
	clock  float64 // tree clock at publication time (informational)
}

// vnode is the immutable columnar image of one node version.  Entry
// coordinates are stored as four parallel column slices cut from one
// backing array, so the intersection kernel runs as a single sweep of
// contiguous memory per node instead of per-entry pointer chasing.
// For leaves the hi/vhi columns alias lo/vlo (a leaf entry is a
// degenerate rectangle), so a single kernel serves both node kinds.
type vnode struct {
	level int
	count int
	oids  []uint32  // object ids (leaf) or child page ids (internal)
	texp  []float64 // recorded expiration times (+Inf when absent)
	lo    []float64 // count*dims, entry-major: lo[i*dims+d]
	hi    []float64
	vlo   []float64
	vhi   []float64
}

// point reconstructs the leaf entry's trajectory record, identical to
// entry.point() on the node the vnode was copied from.
func (v *vnode) point(i, dims int) geom.MovingPoint {
	var p geom.MovingPoint
	b := i * dims
	for d := 0; d < dims; d++ {
		p.Pos[d] = v.lo[b+d]
		p.Vel[d] = v.vlo[b+d]
	}
	p.TExp = v.texp[i]
	return p
}

// vnodeOf deep-copies a node into its immutable columnar image.  The
// copy is what makes in-place node mutation by later operations (purge
// splices, split redistributions) invisible to pinned readers.
func vnodeOf(n *node, dims int) *vnode {
	c := len(n.entries)
	v := &vnode{
		level: n.level,
		count: c,
		oids:  make([]uint32, c),
		texp:  make([]float64, c),
	}
	if n.level == 0 {
		backing := make([]float64, 2*c*dims)
		v.lo, v.vlo = backing[:c*dims], backing[c*dims:]
		v.hi, v.vhi = v.lo, v.vlo
		for i := range n.entries {
			e := &n.entries[i]
			v.oids[i] = e.id
			v.texp[i] = e.rect.TExp
			b := i * dims
			for d := 0; d < dims; d++ {
				v.lo[b+d] = e.rect.Lo[d]
				v.vlo[b+d] = e.rect.VLo[d]
			}
		}
		return v
	}
	backing := make([]float64, 4*c*dims)
	v.lo = backing[:c*dims]
	v.hi = backing[c*dims : 2*c*dims]
	v.vlo = backing[2*c*dims : 3*c*dims]
	v.vhi = backing[3*c*dims:]
	for i := range n.entries {
		e := &n.entries[i]
		v.oids[i] = e.id
		v.texp[i] = e.rect.TExp
		b := i * dims
		for d := 0; d < dims; d++ {
			v.lo[b+d] = e.rect.Lo[d]
			v.hi[b+d] = e.rect.Hi[d]
			v.vlo[b+d] = e.rect.VLo[d]
			v.vhi[b+d] = e.rect.VHi[d]
		}
	}
	return v
}

// version is one link of a page's version chain.  n is nil for a
// tombstone (the page was freed at seq).  prev is atomic because the
// writer trims chains while readers walk them.
type version struct {
	seq  uint64
	n    *vnode
	prev atomic.Pointer[version]
}

// chain is the per-page version list, newest first.
type chain struct {
	head atomic.Pointer[version]
}

// stageWrite records that the node's page changed during the current
// mutation; publish turns the staged set into new chain versions.
// Staging keeps only the live *node pointer — the columnar copy is
// taken once, at publication, after the operation's final state is
// known.
func (t *Tree) stageWrite(n *node) { t.staged[n.id] = n }

// stageFree records that the page was freed (a tombstone version).
func (t *Tree) stageFree(id storage.PageID) { t.staged[id] = nil }

// BeginBatch suppresses snapshot publication until the matching
// EndBatch, so a multi-operation mutation (an Update's delete+insert,
// a whole UpdateBatch) becomes visible to snapshot readers atomically.
// Calls nest.  Requires the caller's exclusive lock, like every
// mutation.
func (t *Tree) BeginBatch() { t.batchDepth++ }

// EndBatch closes a BeginBatch scope and publishes any mutations
// staged inside it.
func (t *Tree) EndBatch() {
	if t.batchDepth > 0 {
		t.batchDepth--
	}
	if t.batchDepth == 0 && t.pendingPub {
		t.publish()
	}
}

// publishOp is called at the end of every mutating core operation.
// Inside a batch it only marks the publication pending.
func (t *Tree) publishOp() {
	if len(t.staged) == 0 {
		return
	}
	if t.batchDepth > 0 {
		t.pendingPub = true
		return
	}
	t.publish()
}

// chainSweepEvery is how many publications pass between full-table
// trim sweeps.  Per-publication trims only visit the chains that
// publication staged; the periodic sweep reclaims retired versions on
// chains that have gone cold since a long-pinned reader released them.
const chainSweepEvery = 256

// publish makes the staged mutations visible to snapshot readers:
// it pushes a new version (or tombstone) onto each staged page's
// chain, swaps in the new root descriptor, and trims versions that no
// pinned reader can still reach.  Single-writer: the caller holds the
// public tree's exclusive lock.
func (t *Tree) publish() {
	start := time.Now()
	t.pendingPub = false
	seq := t.pubSeq + 1
	t.pubSeq = seq

	// Grow the chain table first so every staged page has a slot.
	tbl := *t.chains.Load()
	maxID := -1
	for id := range t.staged {
		if int(id) > maxID {
			maxID = int(id)
		}
	}
	if maxID >= len(tbl) {
		n := 2 * len(tbl)
		if n < maxID+1 {
			n = maxID + 1
		}
		if n < 64 {
			n = 64
		}
		grown := make([]atomic.Pointer[chain], n)
		for i := range tbl {
			grown[i].Store(tbl[i].Load())
		}
		t.chains.Store(&grown)
		tbl = grown
	}

	touched := t.sweepScratch[:0]
	for id, n := range t.staged {
		c := tbl[id].Load()
		if c == nil {
			c = &chain{}
			tbl[id].Store(c)
		}
		v := &version{seq: seq}
		if n != nil {
			v.n = vnodeOf(n, t.cfg.Dims)
		}
		v.prev.Store(c.head.Load())
		c.head.Store(v)
		touched = append(touched, c)
	}
	t.sweepScratch = touched[:0]
	clear(t.staged)

	// The swap: readers that load this descriptor are guaranteed to
	// find a version with seq <= t.pubSeq on every reachable chain,
	// because the chain pushes above happen before this store.
	t.pub.Store(&pubState{seq: seq, root: t.root, height: t.height, clock: t.Now()})

	// Reclaim: anything older than the newest version at or below the
	// minimum pinned sequence is unreachable by every present and
	// future reader (readers re-load the descriptor after pinning, so
	// a pin taken concurrently with this publication traverses at a
	// sequence >= what Min reports).
	min := t.dom.Min(seq)
	var trimmed uint64
	for _, c := range touched {
		trimmed += trimChain(c, min)
	}
	t.pubCount++
	if t.pubCount%chainSweepEvery == 0 {
		for i := range tbl {
			if c := tbl[i].Load(); c != nil {
				trimmed += trimChain(c, min)
			}
		}
	}
	t.lastPublishNanos = time.Since(start).Nanoseconds()
	if t.met != nil {
		t.met.Inc(obs.SnapPublishes)
		if trimmed > 0 {
			t.met.Add(obs.SnapVersionsTrimmed, trimmed)
		}
	}
}

// trimChain cuts every version strictly older than the newest version
// with seq <= min, returning how many links were retired.  The kept
// version's prev store is the only mutation concurrent readers can
// observe, and they only ever walk from the head, so a reader either
// sees the old tail (still intact — Go's GC keeps it alive through the
// reader's own pointer) or the cut.
func trimChain(c *chain, min uint64) uint64 {
	v := c.head.Load()
	for v != nil && v.seq > min {
		v = v.prev.Load()
	}
	if v == nil {
		return 0
	}
	tail := v.prev.Load()
	if tail == nil {
		return 0
	}
	v.prev.Store(nil)
	var n uint64
	for ; tail != nil; tail = tail.prev.Load() {
		n++
	}
	return n
}

// installSnapshots walks the whole tree and publishes a base version
// for every live page.  Open runs it so that a reopened tree's
// snapshot readers never miss a chain: after it, every page reachable
// from any published root has a version at or below the reader's
// pinned sequence.
func (t *Tree) installSnapshots() error {
	err := t.walk(t.root, func(n *node) error {
		t.staged[n.id] = n
		return nil
	})
	if err != nil {
		return err
	}
	t.publishOp()
	return nil
}

// SnapshotSeq returns the currently published snapshot sequence (0
// before the first publication).
func (t *Tree) SnapshotSeq() uint64 {
	if p := t.pub.Load(); p != nil {
		return p.seq
	}
	return 0
}

// LastPublishNanos returns the duration of the most recent version
// publication in nanoseconds.  Like all mutation state it is only
// meaningful under the caller's exclusive lock (the traced update path
// reads it right after the mutation it timed).
func (t *Tree) LastPublishNanos() int64 { return t.lastPublishNanos }

// EpochsPinned reports how many reader epochs are currently pinned
// (for gauges and tests; immediately stale).
func (t *Tree) EpochsPinned() int { return t.dom.Pinned() }

// pinSnapshot pins the published snapshot for a traversal.  The
// re-load after pinning is what makes the pin safe: a writer that
// published (and trimmed) between our first load and the slot store
// can only have reclaimed versions the re-loaded, newer descriptor no
// longer references — and our pinned (older) sequence keeps the
// writer's *next* trim conservative.  ok is false before the first
// publication, when the caller must fall back to the locked path.
func (t *Tree) pinSnapshot() (p *pubState, pin epoch.Pin, ok bool) {
	p = t.pub.Load()
	if p == nil {
		return nil, epoch.Pin{}, false
	}
	pin = t.dom.Pin(p.seq)
	if q := t.pub.Load(); q != p {
		p = q
	}
	return p, pin, true
}

// snapNode resolves the page's newest version at or below the pinned
// sequence without any lock.  The defensive fallback reads through the
// buffer pool (taking its mutex); it cannot fire for pages reachable
// from a published root — Open installs base versions for every live
// page and every later mutation publishes before it becomes reachable
// — but keeps a bug from turning into a wrong result silently.
func (t *Tree) snapNode(p *pubState, id storage.PageID, hits, misses *uint64, st *TravStats) (*vnode, error) {
	tbl := *t.chains.Load()
	if int(id) < len(tbl) {
		if c := tbl[id].Load(); c != nil {
			for v := c.head.Load(); v != nil; v = v.prev.Load() {
				if v.seq <= p.seq {
					if v.n == nil {
						break // freed at p.seq: unreachable; fall back
					}
					*hits++
					return v.n, nil
				}
			}
		}
	}
	*misses++
	n, err := t.readNodeStats(id, st)
	if err != nil {
		return nil, err
	}
	return vnodeOf(n, t.cfg.Dims), nil
}

// addSnapStats folds a snapshot traversal's locally accumulated chain
// accounting into the metric counters and the per-traversal stats.
func (t *Tree) addSnapStats(hits, misses uint64, st *TravStats) {
	if st != nil {
		st.Hits += hits // chain hits are pages served without store I/O
		st.SnapHits += hits
		st.SnapMisses += misses
	}
	if t.met == nil {
		return
	}
	t.met.Inc(obs.EpochPins)
	t.met.Add(obs.SnapNodeHits, hits)
	if misses > 0 {
		t.met.Add(obs.SnapNodeMisses, misses)
	}
}

// snapIntersects is geom.Intersects(q.Region, entry i, t1, t2) over
// the vnode's columns: the same clip sequence, term for term, so the
// verdict is bit-identical to the locked path's.
func snapIntersects(r *geom.TPRect, v *vnode, i, dims int, t1, t2 float64) bool {
	if t1 > t2 {
		return false
	}
	iv := geom.Interval{Lo: t1, Hi: t2}
	b := i * dims
	for d := 0; d < dims && !iv.Empty(); d++ {
		iv = geom.ClipLE(iv, r.Lo[d], r.VLo[d], v.hi[b+d], v.vhi[b+d])
		iv = geom.ClipLE(iv, v.lo[b+d], v.vlo[b+d], r.Hi[d], r.VHi[d])
	}
	return !iv.Empty()
}

// snapDerivedExp is geom.DerivedExp over the vnode's columns.
func snapDerivedExp(v *vnode, i, dims int, now float64) float64 {
	e := math.Inf(1)
	b := i * dims
	for d := 0; d < dims; d++ {
		dv := v.vhi[b+d] - v.vlo[b+d]
		if dv >= 0 {
			continue
		}
		ext := (v.hi[b+d] - v.lo[b+d]) + dv*now
		if ext <= 0 {
			return now
		}
		if tz := now + ext/(-dv); tz < e {
			e = tz
		}
	}
	return e
}

// snapEffExp mirrors Tree.effExp for a vnode entry, with the
// evaluation time passed in (the snapshot path fixes it once per
// traversal instead of re-reading the clock per entry).
func (t *Tree) snapEffExp(v *vnode, i int, now float64) float64 {
	if !t.cfg.ExpireAware {
		return math.Inf(1)
	}
	if v.level == 0 || t.cfg.StoreBRExp {
		return v.texp[i]
	}
	return snapDerivedExp(v, i, t.cfg.Dims, now)
}

// SearchSnap is Search on the snapshot read path: same query
// semantics, same results on a quiesced tree, but no tree lock and no
// pool mutex — safe to run concurrently with mutations.
func (t *Tree) SearchSnap(q geom.Query, now float64) ([]Result, error) {
	return t.SearchSnapStats(q, now, nil)
}

// SearchSnapStats is SearchSnap plus per-traversal accounting.
func (t *Tree) SearchSnapStats(q geom.Query, now float64, st *TravStats) ([]Result, error) {
	var out []Result
	err := t.SearchFuncSnapStats(q, now, st, func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// SearchFuncSnap streams matching objects from the pinned snapshot.
// Like SearchFunc it runs without heap allocations once warm.
func (t *Tree) SearchFuncSnap(q geom.Query, now float64, fn func(Result) bool) error {
	return t.SearchFuncSnapStats(q, now, nil, fn)
}

// SearchFuncSnapStats is the snapshot traversal kernel.  Per node it
// runs one columnar sweep: expiration filter and trapezoid
// intersection over the four coordinate columns, leaves and internal
// nodes through the same clip sequence.
func (t *Tree) SearchFuncSnapStats(q geom.Query, now float64, st *TravStats, fn func(Result) bool) error {
	t.advance(now)
	var pinStart time.Time
	if st != nil {
		pinStart = time.Now()
	}
	p, pin, ok := t.pinSnapshot()
	if !ok {
		return t.SearchFuncStats(q, now, st, fn)
	}
	defer pin.Unpin()
	if st != nil {
		st.PinNanos += time.Since(pinStart).Nanoseconds()
	}
	eval := t.Now()
	dims := t.cfg.Dims
	useExp := t.cfg.ExpireAware
	var nodes, leaves, hits, misses uint64
	flush := func() {
		t.addQueryStats(nodes, leaves, st)
		t.addSnapStats(hits, misses, st)
	}
	sp := stackPool.Get().(*[]storage.PageID)
	stack := append((*sp)[:0], p.root)
	defer func() {
		*sp = stack[:0]
		stackPool.Put(sp)
	}()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.snapNode(p, id, &hits, &misses, st)
		if err != nil {
			flush()
			return err
		}
		nodes++
		if v.level == 0 {
			leaves += uint64(v.count)
			for i := 0; i < v.count; i++ {
				texp := v.texp[i]
				if useExp && texp < eval {
					continue
				}
				t2 := q.T2
				if useExp && texp < t2 {
					t2 = texp
				}
				if snapIntersects(&q.Region, v, i, dims, q.T1, t2) {
					if !fn(Result{OID: v.oids[i], Point: v.point(i, dims)}) {
						flush()
						return nil
					}
				}
			}
			continue
		}
		for i := 0; i < v.count; i++ {
			texp := t.snapEffExp(v, i, eval)
			if useExp && texp < eval {
				continue
			}
			t2 := q.T2
			if useExp && texp < t2 {
				t2 = texp
			}
			if snapIntersects(&q.Region, v, i, dims, q.T1, t2) {
				stack = append(stack, storage.PageID(v.oids[i]))
			}
		}
	}
	flush()
	return nil
}

// PubClock returns the tree clock recorded by the most recent snapshot
// publication, without any lock.  ok is false before the first
// publication, when the caller must read the clock under the tree lock
// instead.
func (t *Tree) PubClock() (float64, bool) {
	if p := t.pub.Load(); p != nil {
		return p.clock, true
	}
	return 0, false
}

// ExportSnap streams every stored record — live and expired alike, like
// Records — from the pinned snapshot, without the tree lock or the pool
// mutex.  It is the scan primitive of the live reshard: the scan runs
// against one consistent publication while mutations keep landing on
// the tree.  ok is false before the first publication, when the caller
// must fall back to the locked Records walk.
func (t *Tree) ExportSnap(fn func(oid uint32, p geom.MovingPoint) error) (ok bool, err error) {
	p, pin, ok := t.pinSnapshot()
	if !ok {
		return false, nil
	}
	defer pin.Unpin()
	dims := t.cfg.Dims
	var hits, misses uint64
	defer func() { t.addSnapStats(hits, misses, nil) }()
	sp := stackPool.Get().(*[]storage.PageID)
	stack := append((*sp)[:0], p.root)
	defer func() {
		*sp = stack[:0]
		stackPool.Put(sp)
	}()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.snapNode(p, id, &hits, &misses, nil)
		if err != nil {
			return true, err
		}
		if v.level == 0 {
			for i := 0; i < v.count; i++ {
				if err := fn(v.oids[i], v.point(i, dims)); err != nil {
					return true, err
				}
			}
			continue
		}
		for i := 0; i < v.count; i++ {
			stack = append(stack, storage.PageID(v.oids[i]))
		}
	}
	return true, nil
}

// NearestSnap is Nearest on the snapshot read path.
func (t *Tree) NearestSnap(q geom.Vec, at float64, k int, now float64) ([]Result, error) {
	return t.NearestSnapStats(q, at, k, now, nil)
}

// NearestSnapStats runs the best-first nearest-neighbor traversal over
// the pinned snapshot, with the distance arithmetic evaluated over the
// vnode columns exactly as the locked path evaluates it over decoded
// entries (same heap, same tie order).
func (t *Tree) NearestSnapStats(q geom.Vec, at float64, k int, now float64, st *TravStats) ([]Result, error) {
	t.advance(now)
	var pinStart time.Time
	if st != nil {
		pinStart = time.Now()
	}
	p, pin, ok := t.pinSnapshot()
	if !ok {
		return t.NearestStats(q, at, k, now, st)
	}
	defer pin.Unpin()
	if st != nil {
		st.PinNanos += time.Since(pinStart).Nanoseconds()
	}
	eval := t.Now()
	if at < now {
		return nil, errNearestPast(at, now)
	}
	if k <= 0 {
		return nil, nil
	}
	dims := t.cfg.Dims
	useExp := t.cfg.ExpireAware
	var nodes, leaves, hits, misses uint64
	flush := func() {
		t.addQueryStats(nodes, leaves, st)
		t.addSnapStats(hits, misses, st)
	}
	qp := nnQueuePool.Get().(*nnQueue)
	pq := (*qp)[:0]
	defer func() {
		*qp = pq[:0]
		nnQueuePool.Put(qp)
	}()
	pq = pq.push(nnItem{dist: 0, page: p.root, isNode: true})
	var out []Result
	for len(pq) > 0 && len(out) < k {
		var it nnItem
		pq, it = pq.pop()
		if !it.isNode {
			out = append(out, Result{OID: it.oid, Point: it.point})
			continue
		}
		v, err := t.snapNode(p, it.page, &hits, &misses, st)
		if err != nil {
			flush()
			return nil, err
		}
		nodes++
		if v.level == 0 {
			leaves += uint64(v.count)
		}
		for i := 0; i < v.count; i++ {
			if useExp && t.snapEffExp(v, i, eval) < at {
				continue
			}
			b := i * dims
			if v.level == 0 {
				var s float64
				for d := 0; d < dims; d++ {
					dd := q[d] - (v.lo[b+d] + v.vlo[b+d]*at)
					s += dd * dd
				}
				pq = pq.push(nnItem{
					dist:  math.Sqrt(s),
					oid:   v.oids[i],
					point: v.point(i, dims),
				})
				continue
			}
			var s float64
			for d := 0; d < dims; d++ {
				lo := v.lo[b+d] + v.vlo[b+d]*at
				hi := v.hi[b+d] + v.vhi[b+d]*at
				switch {
				case q[d] < lo:
					dd := lo - q[d]
					s += dd * dd
				case q[d] > hi:
					dd := q[d] - hi
					s += dd * dd
				}
			}
			pq = pq.push(nnItem{
				dist:   math.Sqrt(s),
				page:   storage.PageID(v.oids[i]),
				isNode: true,
			})
		}
	}
	flush()
	return out, nil
}
