package rexptree

import (
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// Tree is a thread-safe moving-object index.  It keeps an in-memory
// table of each object's current report (the primary store of a
// moving-objects database), so updates and deletions need only the
// object id.
//
// Concurrency: the four index queries (Timeslice, Window, Moving,
// Nearest) run on a lock-free snapshot read path — they pin an epoch,
// traverse the immutable page versions last published by a writer, and
// never block behind Update, Delete or UpdateBatch (which still take
// the exclusive lock against each other).  Object-table reads (Get,
// Len, Stats, ForEach, Validate) take the shared lock.  The time a
// caller spends waiting for a lock is recorded in the lock-wait
// histograms of Metrics; Options.LockedReads restores the legacy
// behaviour where queries take the shared lock too.  For workloads
// that need concurrent updates, see ShardedTree, which partitions
// objects across independent Trees.
type Tree struct {
	mu    sync.RWMutex
	t     *core.Tree
	store storage.Store
	dims  int

	// lockedReads serves queries under mu instead of the snapshot
	// path (Options.LockedReads).
	lockedReads bool
	objects     map[uint32]geom.MovingPoint
	m           *obs.Metrics  // always non-nil; see Metrics and WriteMetrics
	rec         *obs.Recorder // flight recorder; nil unless Options.FlightRecorder > 0

	// Durability state; all nil/zero when Durability is DurabilityNone.
	fs          *storage.FileStore // the unwrapped page file
	wal         *wal.Writer        // nil means no WAL (legacy mode)
	walPath     string
	durability  Durability
	syncEvery   time.Duration
	ckptBytes   int64
	lastWALSync time.Time
	walBuf      []byte // reused encoding scratch

	// Replication hooks; see replication.go.  path is Options.Path (""
	// for a memory-backed tree).  replSink, when set, observes every
	// applied mutation under mu.  ckptHold > 0 defers checkpoints while
	// a backup streams this tree's files; snapEpoch counts the events
	// that invalidate such a stream (checkpoints, WAL rewinds).
	path      string
	replSink  ReplSink
	ckptHold  atomic.Int32
	snapEpoch atomic.Uint64

	// walPoison, when non-nil, refuses every further mutation: a
	// mutation failed after its WAL record was appended and the record
	// could not be rewound, so any later commit or checkpoint would make
	// the failed operation durable.  Close keeps the file dirty; the
	// next Open recovers the last consistent state.
	walPoison error

	closed   bool
	closeErr error
}

// lock takes the exclusive lock, recording the wait time.
func (tr *Tree) lock() {
	start := time.Now()
	tr.mu.Lock()
	tr.m.Observe(obs.LockWaitWrite, time.Since(start))
}

// rlock takes the shared lock, recording the wait time.
func (tr *Tree) rlock() {
	start := time.Now()
	tr.mu.RLock()
	tr.m.Observe(obs.LockWaitRead, time.Since(start))
}

// Open creates a tree with the given options.  When Options.Path names
// an existing index file (previously Closed cleanly), the stored tree
// is reopened and its object table rebuilt; otherwise a fresh index is
// created.
//
// With a durability policy set (Options.Durability), Open also detects
// an unclean shutdown and recovers: it re-applies the last complete
// checkpoint's page images, verifies every reachable page's checksum,
// and replays the write-ahead log's logical tail.  Without one, a file
// left behind by a crashed durable session is refused rather than
// silently opened against a stale base.
func Open(opts Options) (*Tree, error) { return open(opts, false) }

// open implements Open; retried guards the one recursion that recreates
// the files after a crash during a fresh tree's first checkpoint.
func open(opts Options, retried bool) (*Tree, error) {
	durable := opts.Durability != DurabilityNone
	if durable && opts.Path == "" {
		return nil, fmt.Errorf("rexptree: Options.Durability requires a file-backed tree (set Options.Path)")
	}
	m := newMetrics(opts)
	var (
		store    storage.Store
		fs       *storage.FileStore
		existing bool
	)
	if opts.Path != "" {
		var err error
		if _, serr := os.Stat(opts.Path); serr == nil {
			fs, err = storage.OpenFileStore(opts.Path)
			existing = true
		} else {
			fs, err = storage.CreateFileStore(opts.Path)
		}
		if err != nil {
			return nil, err
		}
		fs.SetMetrics(m)
		if durable && fs.Version() < 2 {
			fs.CloseKeepDirty()
			return nil, fmt.Errorf("rexptree: %s is a version-%d file without page checksums; migrate it with rexpreshard before enabling durability", opts.Path, fs.Version())
		}
		if fs.Dirty() && !durable {
			fs.CloseKeepDirty()
			return nil, fmt.Errorf("%w: %s", errNotDurable, opts.Path)
		}
		store = fs
	} else {
		store = storage.NewMemStore()
	}
	if opts.testWrapStore != nil {
		store = opts.testWrapStore(store)
	}
	if opts.IOLatency > 0 {
		store = &storage.LatencyStore{
			Inner:        store,
			ReadLatency:  opts.IOLatency,
			WriteLatency: opts.IOLatency,
		}
	}
	cfg := opts.internal()
	cfg.Metrics = m
	tr := &Tree{
		store:       store,
		objects:     make(map[uint32]geom.MovingPoint),
		lockedReads: opts.LockedReads,
		m:           m,
		rec:         newRecorder(opts),
	}
	if durable {
		tr.fs = fs
		tr.path = opts.Path
		tr.walPath = WALPath(opts.Path)
		tr.durability = opts.Durability
		tr.syncEvery = opts.SyncEvery
		if tr.syncEvery <= 0 {
			tr.syncEvery = defaultSyncEvery
		}
		tr.ckptBytes = opts.CheckpointBytes
		if tr.ckptBytes <= 0 {
			tr.ckptBytes = defaultCheckpointBytes
		}
		tr.lastWALSync = time.Now()
	}

	// Every durable open of an existing file goes through recovery: it
	// subsumes the clean case (empty WAL, nothing to replay) and is the
	// only correct path for the unclean one.
	if durable && existing {
		var tc *QueryTrace
		if tr.rec != nil {
			tc = newTrace("recovery")
		}
		rstart := time.Now()
		retry, err := recoverDurable(opts, fs, store, cfg, tr, tc)
		tc.finishRecord(tr.rec, 0, time.Since(rstart), err)
		if err != nil {
			if tr.wal != nil {
				tr.wal.Close()
			}
			fs.CloseKeepDirty()
			return nil, err
		}
		if retry {
			// Crash during the fresh tree's very first checkpoint:
			// nothing was ever acknowledged, so recreate from scratch.
			fs.CloseKeepDirty()
			if retried {
				return nil, fmt.Errorf("rexptree: cannot initialize %s: repeated first-checkpoint recovery", opts.Path)
			}
			if err := RemoveIndex(opts.Path); err != nil {
				return nil, err
			}
			return open(opts, true)
		}
		return tr, nil
	}

	var (
		t   *core.Tree
		err error
	)
	if existing {
		t, err = core.Open(cfg, store)
	} else {
		t, err = core.New(cfg, store)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	tr.t = t
	tr.dims = t.Config().Dims
	if existing {
		err := t.Records(func(oid uint32, p geom.MovingPoint) error {
			tr.objects[oid] = p
			return nil
		})
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	if durable {
		if err := tr.initWAL(opts); err != nil {
			if tr.wal != nil {
				tr.wal.Close()
			}
			fs.CloseKeepDirty()
			RemoveIndex(opts.Path)
			return nil, err
		}
	}
	return tr, nil
}

// newMetrics builds the tree's instrument registry and wires the
// observer and slow-op hooks configured in opts.
func newMetrics(opts Options) *obs.Metrics {
	m := obs.New()
	if opts.Observer != nil {
		hook := opts.Observer
		m.Observer = obs.ObserverFunc(func(e obs.Event) {
			hook(ObserverEvent{Kind: e.Kind.String(), Level: e.Level, Count: e.N, Shard: -1})
		})
	}
	if opts.SlowOpThreshold > 0 {
		slow := opts.SlowOp
		if slow == nil {
			threshold := opts.SlowOpThreshold
			slow = func(op string, d time.Duration) {
				log.Printf("rexptree: slow %s: %v (threshold %v)", op, d, threshold)
			}
		}
		m.SetSlowOp(opts.SlowOpThreshold, func(op obs.Op, d time.Duration) { slow(op.String(), d) })
	}
	return m
}

// Close persists the tree's metadata and releases the underlying
// storage.  For a durable tree it runs a final checkpoint, closes the
// WAL and stamps the file clean; if the checkpoint fails the file
// keeps its dirty flag so the next Open recovers.  Close is
// idempotent: repeated calls return the first call's result.  The
// tree must not be used for anything else afterwards.
func (tr *Tree) Close() error {
	tr.lock()
	defer tr.mu.Unlock()
	if tr.closed {
		return tr.closeErr
	}
	tr.closed = true
	if tr.wal != nil {
		tr.closeErr = tr.closeDurable()
		return tr.closeErr
	}
	if err := tr.t.Sync(); err != nil {
		tr.store.Close()
		tr.closeErr = err
		return err
	}
	tr.closeErr = tr.store.Close()
	return tr.closeErr
}

// Update inserts the object's report, replacing any previous report
// (an update is a deletion of the old report followed by an insertion
// of the new one, as in the paper's workloads).  now is the current
// time; p.Time must not precede now's meaning for the caller, and time
// must never run backwards across calls.
func (tr *Tree) Update(id uint32, p Point, now float64) error {
	var tc *QueryTrace
	if tr.rec != nil {
		tc = newTrace("update")
	}
	start := time.Now()
	err := tr.update(id, p, now, tc)
	d := time.Since(start)
	tr.m.ObserveOp(obs.OpUpdate, d, err)
	tc.finishRecord(tr.rec, 0, d, err)
	return err
}

func (tr *Tree) update(id uint32, p Point, now float64, tc *QueryTrace) error {
	li := tc.begin(-1, "lock-wait", -1)
	tr.lock()
	tc.endAt(li)
	defer tr.mu.Unlock()
	if err := tr.updateLocked(id, p, now, tc); err != nil {
		return err
	}
	if tr.wal != nil {
		return tr.walCommit(tc)
	}
	return nil
}

// updateLocked applies one report; the exclusive lock must be held.
// In WAL mode the record is appended (buffered) before the mutation —
// the caller commits per the durability policy.  If the mutation then
// fails, the record is rolled back (or the tree poisoned) so a failed
// operation can never become durable.
func (tr *Tree) updateLocked(id uint32, p Point, now float64, tc *QueryTrace) error {
	if tr.wal == nil {
		ai := tc.begin(-1, "apply", -1)
		err := tr.applyUpdate(id, p, now)
		tc.endAt(ai)
		if err == nil {
			tc.addMeasured("version-publish", tr.t.LastPublishNanos())
			tr.replNoteUpdate(id, p, now)
		}
		return err
	}
	if tr.walPoison != nil {
		return tr.walPoison
	}
	prev := tr.wal.Size()
	wi := tc.begin(-1, "wal-append", -1)
	err := tr.walLogUpdate(id, p, now)
	tc.endAt(wi)
	if err != nil {
		return err
	}
	ai := tc.begin(-1, "apply", -1)
	err = tr.applyUpdate(id, p, now)
	tc.endAt(ai)
	if err != nil {
		tr.walRollback(prev, err)
		return err
	}
	tc.addMeasured("version-publish", tr.t.LastPublishNanos())
	tr.replNoteUpdate(id, p, now)
	return nil
}

// applyUpdate is the in-tree half of an update.  The delete+insert
// pair is published as one snapshot, so lock-free readers can never
// observe the gap where the old report is gone and the new one is not
// yet inserted.
func (tr *Tree) applyUpdate(id uint32, p Point, now float64) error {
	tr.t.BeginBatch()
	defer tr.t.EndBatch()
	if old, ok := tr.objects[id]; ok {
		if _, err := tr.t.Delete(id, old, now); err != nil {
			return err
		}
		// The old report is gone; if the insert below fails, the
		// object table must not keep pointing at it.
		delete(tr.objects, id)
	}
	mp := toInternal(p, tr.dims)
	if err := tr.t.Insert(id, mp, now); err != nil {
		return err
	}
	tr.objects[id] = tr.t.Stored(mp)
	return nil
}

// Delete removes the object's report.  It returns false when the
// object is unknown or its report has already expired (an expired
// entry is invisible to the deletion search, §4.3; it will be purged
// lazily).
func (tr *Tree) Delete(id uint32, now float64) (bool, error) {
	var tc *QueryTrace
	if tr.rec != nil {
		tc = newTrace("delete")
	}
	start := time.Now()
	ok, err := tr.delete(id, now, tc)
	d := time.Since(start)
	tr.m.ObserveOp(obs.OpDelete, d, err)
	tc.finishRecord(tr.rec, 0, d, err)
	return ok, err
}

func (tr *Tree) delete(id uint32, now float64, tc *QueryTrace) (bool, error) {
	li := tc.begin(-1, "lock-wait", -1)
	tr.lock()
	tc.endAt(li)
	defer tr.mu.Unlock()
	old, ok := tr.objects[id]
	if !ok {
		return false, nil
	}
	if tr.wal == nil {
		delete(tr.objects, id)
		removed, err := tr.t.Delete(id, old, now)
		if err == nil {
			tr.replNoteDelete(id, now)
		}
		return removed, err
	}
	if tr.walPoison != nil {
		return false, tr.walPoison
	}
	prev := tr.wal.Size()
	wi := tc.begin(-1, "wal-append", -1)
	err := tr.walLogDelete(id, now)
	tc.endAt(wi)
	if err != nil {
		return false, err
	}
	delete(tr.objects, id)
	ai := tc.begin(-1, "apply", -1)
	removed, err := tr.t.Delete(id, old, now)
	tc.endAt(ai)
	if err != nil {
		tr.walRollback(prev, err)
		return removed, err
	}
	tc.addMeasured("version-publish", tr.t.LastPublishNanos())
	tr.replNoteDelete(id, now)
	return removed, tr.walCommit(tc)
}

// Timeslice reports the objects predicted to be inside r at time at
// (Type 1 query).  now is the current time; at must not precede it.
func (tr *Tree) Timeslice(r Rect, at, now float64) ([]Result, error) {
	res, _, err := observeQuery(tr.m, tr.rec, obs.OpTimeslice, false, func(tc *QueryTrace) ([]Result, error) {
		return tr.timeslice(r, at, now, tc)
	})
	return res, err
}

func (tr *Tree) timeslice(r Rect, at, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkTimeslice(at, now); err != nil {
		return nil, err
	}
	return tr.search(geom.Timeslice(toRect(r), at), now, tc)
}

// The query-time validators, shared by Tree and the sharded front-end
// so both reject an invalid query with the identical error (a sharded
// tree must fail such queries even when every shard is pruned).
func checkTimeslice(at, now float64) error {
	if at < now {
		return fmt.Errorf("rexptree: query time %v precedes current time %v", at, now)
	}
	return nil
}

func checkWindow(t1, t2, now float64) error {
	if t1 > t2 || t1 < now {
		return fmt.Errorf("rexptree: invalid query window [%v, %v] at time %v", t1, t2, now)
	}
	return nil
}

func checkMoving(t1, t2, now float64) error {
	if t1 >= t2 || t1 < now {
		return fmt.Errorf("rexptree: invalid moving query interval [%v, %v] at time %v", t1, t2, now)
	}
	return nil
}

// Window reports the objects predicted to cross r at some time in
// [t1, t2] (Type 2 query).
func (tr *Tree) Window(r Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := observeQuery(tr.m, tr.rec, obs.OpWindow, false, func(tc *QueryTrace) ([]Result, error) {
		return tr.window(r, t1, t2, now, tc)
	})
	return res, err
}

func (tr *Tree) window(r Rect, t1, t2, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkWindow(t1, t2, now); err != nil {
		return nil, err
	}
	return tr.search(geom.Window(toRect(r), t1, t2), now, tc)
}

// Moving reports the objects predicted to cross the trapezoid
// connecting r1 at t1 to r2 at t2 (Type 3 query).
func (tr *Tree) Moving(r1, r2 Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := observeQuery(tr.m, tr.rec, obs.OpMoving, false, func(tc *QueryTrace) ([]Result, error) {
		return tr.moving(r1, r2, t1, t2, now, tc)
	})
	return res, err
}

func (tr *Tree) moving(r1, r2 Rect, t1, t2, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkMoving(t1, t2, now); err != nil {
		return nil, err
	}
	return tr.search(geom.Moving(toRect(r1), toRect(r2), t1, t2, tr.dims), now, tc)
}

// Nearest returns the k objects whose predicted positions at time at
// are closest to pos, nearest first.  Expired reports never qualify.
// Like Timeslice, the query time must not precede the current time.
func (tr *Tree) Nearest(pos Vec, at float64, k int, now float64) ([]Result, error) {
	res, _, err := observeQuery(tr.m, tr.rec, obs.OpNearest, false, func(tc *QueryTrace) ([]Result, error) {
		return tr.nearest(pos, at, k, now, tc)
	})
	return res, err
}

func (tr *Tree) nearest(pos Vec, at float64, k int, now float64, tc *QueryTrace) ([]Result, error) {
	if err := checkTimeslice(at, now); err != nil {
		return nil, err
	}
	li := tc.begin(-1, "lock-wait", -1)
	ti := tc.begin(-1, "traverse", -1)
	return tr.nearestSpansAt(pos, at, k, now, tc, li, ti)
}

// search is the shared body of the timeslice, window and moving
// queries: one traversal under root-level lock-wait and traverse spans.
func (tr *Tree) search(q geom.Query, now float64, tc *QueryTrace) ([]Result, error) {
	li := tc.begin(-1, "lock-wait", -1)
	ti := tc.begin(-1, "traverse", -1)
	return tr.searchSpansAt(q, now, tc, li, ti)
}

// snapshotReads reports whether queries should traverse the lock-free
// snapshot path.  Every constructor publishes a snapshot before the
// tree is handed out, so the sequence check is a pure defensive guard:
// once non-zero it can never revert, so the locked fallback and the
// snapshot path cannot be chosen inconsistently mid-query.
func (tr *Tree) snapshotReads() bool {
	return !tr.lockedReads && tr.t.SnapshotSeq() != 0
}

// Get returns the object's current report (positioned at now), if any
// non-expired report is stored.
func (tr *Tree) Get(id uint32, now float64) (Point, bool) {
	tr.rlock()
	defer tr.mu.RUnlock()
	mp, ok := tr.objects[id]
	if !ok || (tr.t.Config().ExpireAware && mp.Expired(now)) {
		return Point{}, false
	}
	return fromInternal(mp, now, tr.dims), true
}

// Len returns the number of objects with a stored report (including
// reports that have expired but were not yet purged).
func (tr *Tree) Len() int {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.LeafEntries()
}

// Dims returns the dimensionality of the indexed space.
func (tr *Tree) Dims() int { return tr.dims }

// Now returns the tree's logical clock: the largest reference time any
// applied mutation carried.  A reopened tree restores it from the
// metadata page, so it survives restarts.
func (tr *Tree) Now() float64 {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.Now()
}

// Stats describes the tree's state and accumulated I/O.  The richer
// Metrics snapshot additionally covers structural counters and per-op
// latencies.
type Stats struct {
	Height          int
	Pages           int
	LeafEntries     int
	Reads           uint64
	Writes          uint64
	BufferHits      uint64
	Evictions       uint64
	DirtyWritebacks uint64
	UIEstimate      float64
}

// Stats returns current statistics.
func (tr *Tree) Stats() Stats {
	tr.rlock()
	defer tr.mu.RUnlock()
	io := tr.t.IOStats()
	return Stats{
		Height:          tr.t.Height(),
		Pages:           tr.t.Size(),
		LeafEntries:     tr.t.LeafEntries(),
		Reads:           io.Reads,
		Writes:          io.Writes,
		BufferHits:      io.Hits,
		Evictions:       io.Evictions,
		DirtyWritebacks: io.DirtyWritebacks,
		UIEstimate:      tr.t.UI(),
	}
}

// ResetIOStats zeroes the read/write/hit counters.
func (tr *Tree) ResetIOStats() {
	tr.rlock()
	defer tr.mu.RUnlock()
	tr.t.ResetIOStats()
}

// ForEach visits every stored report (positioned at now, including
// expired reports not yet purged) until fn returns false.
func (tr *Tree) ForEach(now float64, fn func(Result) bool) error {
	tr.rlock()
	defer tr.mu.RUnlock()
	stop := errStopIteration
	err := tr.t.Records(func(oid uint32, p geom.MovingPoint) error {
		if !fn(Result{ID: oid, Point: fromInternal(p, now, tr.dims)}) {
			return stop
		}
		return nil
	})
	if err == stop {
		return nil
	}
	return err
}

var errStopIteration = fmt.Errorf("rexptree: stop iteration")

// rootSummary returns a conservative time-parameterized bound over
// every stored entry, computed from the index root (which is pinned in
// the buffer pool, so the read costs no I/O).  ok is false for an
// empty tree.  The sharded front-end uses it to retighten per-shard
// pruning summaries.
func (tr *Tree) rootSummary() (br geom.TPRect, ok bool, err error) {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.RootBR()
}

// storedPoint returns the record as the index stores it (coordinates
// quantized to the page format), which is what containment bounds must
// be widened with.
func (tr *Tree) storedPoint(p Point) geom.MovingPoint {
	return tr.t.Stored(toInternal(p, tr.dims))
}

// clockNow reads the tree's high-water clock — the time of the newest
// applied update — preferring the lock-free snapshot's published clock
// so a live-reshard scan never blocks the write path.
func (tr *Tree) clockNow() float64 {
	if tr.snapshotReads() {
		if c, ok := tr.t.PubClock(); ok {
			return c
		}
	}
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.Now()
}

// exportRecords streams every stored record (live and expired alike, in
// raw internal form) to fn, over the lock-free snapshot when available
// so a concurrent update stream is never stalled by a full-index scan.
func (tr *Tree) exportRecords(fn func(oid uint32, p geom.MovingPoint) error) error {
	if tr.snapshotReads() {
		if ok, err := tr.t.ExportSnap(fn); ok {
			return err
		}
	}
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.Records(fn)
}

// objectsInto copies the tree's object table (the authoritative
// id→stored-record map) into dst — the live-reshard verify step reads
// both generations through it while mutations are blocked.
func (tr *Tree) objectsInto(dst map[uint32]geom.MovingPoint) {
	tr.rlock()
	defer tr.mu.RUnlock()
	for id, mp := range tr.objects {
		dst[id] = mp
	}
}

// Validate checks the index's structural invariants (balance, fan-out
// bounds, bounding-rectangle containment, unique ids).  It reads the
// whole tree and is intended for tests and tooling.
func (tr *Tree) Validate() error {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.CheckInvariants()
}

// Report pairs an object id with its positional report, for batched
// updates.
type Report struct {
	ID    uint32
	Point Point
}

// UpdateBatch applies every report in batch under a single exclusive
// lock acquisition, replacing each object's previous report like
// Update.  Grouping updates amortizes locking and lets readers in
// between batches rather than between every report; ShardedTree
// additionally applies per-shard batches concurrently.
//
// The reports are applied in order.  On error the batch stops:
// earlier reports remain applied, the failing and later ones do not
// take effect.  now is the current time for the whole batch.
func (tr *Tree) UpdateBatch(batch []Report, now float64) error {
	var tc *QueryTrace
	if tr.rec != nil {
		tc = newTrace("batch")
	}
	start := time.Now()
	err := tr.updateBatch(batch, now, tc)
	d := time.Since(start)
	tr.m.ObserveOp(obs.OpBatch, d, err)
	tc.finishRecord(tr.rec, len(batch), d, err)
	return err
}

func (tr *Tree) updateBatch(batch []Report, now float64, tc *QueryTrace) error {
	if len(batch) == 0 {
		return nil
	}
	li := tc.begin(-1, "lock-wait", -1)
	tr.lock()
	tc.endAt(li)
	defer tr.mu.Unlock()
	// Batch-level spans only: per-report spans would bloat the trace
	// linearly, so the whole application loop is one "apply" span (the
	// WAL appends it contains ride in the wal-append histogram instead).
	ai := tc.begin(-1, "apply", -1)
	// The whole batch is published as one snapshot: readers on the
	// lock-free path see either the pre-batch tree or all applied
	// reports (on error, everything up to the failing report).
	tr.t.BeginBatch()
	for i := range batch {
		if err := tr.updateLocked(batch[i].ID, batch[i].Point, now, nil); err != nil {
			tr.t.EndBatch()
			tc.endAt(ai)
			tc.addMeasured("version-publish", tr.t.LastPublishNanos())
			tr.m.Add(obs.BatchedUpdates, uint64(i))
			return err
		}
	}
	tr.t.EndBatch()
	tc.endAt(ai)
	tc.addMeasured("version-publish", tr.t.LastPublishNanos())
	tr.m.Add(obs.BatchedUpdates, uint64(len(batch)))
	if tr.wal != nil {
		// Group commit: the whole batch rides on one durability point.
		return tr.walCommit(tc)
	}
	return nil
}
