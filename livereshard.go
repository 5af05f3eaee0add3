package rexptree

// Live resharding: replacing a ShardedTree's shard set — count, policy
// or speed bands — while the index keeps serving reads and writes.
//
// The engine runs in three phases:
//
//	scan      A snapshot of every current shard is exported over the
//	          lock-free read path (no write stall) at a pinned clock.
//	backfill  The new generation's shards are built beside the old
//	          ones (same durability policy, next file generation) and
//	          the snapshot is bulk-loaded into them in small batches,
//	          each under the re-route lock.  From the moment the
//	          reshard is published, every Update/Delete/UpdateBatch is
//	          dual-applied: first to the current generation (whose
//	          result acknowledges the operation), then mirrored into
//	          the target.  Ids touched by the mirror are excluded from
//	          the backfill, so a delete during the window can never be
//	          resurrected by an older snapshot record.
//	cutover   Under the exclusive re-route lock (so no mutation is in
//	          flight) the two generations are verified object-for-
//	          object; the manifest is atomically rewritten to name the
//	          new generation — the commit point — and the generation
//	          pointer is swapped.  Readers migrate via the pointer;
//	          in-flight queries drain on the old generation's refcount
//	          before its trees are dropped and its files removed.
//
// A failure before the manifest rename aborts the reshard and leaves
// the index exactly as it was; a crash after the rename recovers into
// the new generation (every mirrored mutation and backfilled record is
// WAL-durable under the index's own durability policy, and a target
// without a log is flushed to its files before the rename).  Stale
// files from an interrupted run are swept by the next reshard
// (manifest.CleanStale).  cmd/rexpreshard runs this same engine on a
// closed index.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/manifest"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// ErrReshardInFlight is returned by Reshard/StartReshard when a live
// reshard is already running: only one can be in flight per index.
var ErrReshardInFlight = errors.New("rexptree: reshard already in flight")

// errReshardCanceled reports a reshard stopped by CancelReshard, Close
// or Abandon before its commit point.
var errReshardCanceled = errors.New("rexptree: live reshard canceled")

// errIndexClosed reports an operation on a closed index.
var errIndexClosed = errors.New("rexptree: index is closed")

// ReshardSpec describes the generation a live reshard should build.
type ReshardSpec struct {
	// Shards is the new shard count; 0 keeps the current count.
	Shards int

	// Policy is the new partition policy.
	Policy PartitionPolicy

	// SpeedBands are the new band boundaries under PartitionSpeed:
	// Shards-1 non-negative, non-descending values.  Empty derives
	// them — recorded as auto-tuned — from the drift detector's speed
	// window when one is full, and otherwise from the quantiles of the
	// current generation's live speeds, so every backfilled record
	// lands in its band.  Only an index with no live objects leaves the
	// target self-tuning (it hash-routes until it has observed
	// TuneAfter speeds, like a fresh speed index).
	SpeedBands []float64
}

// AutoReshardOptions configures the drift detector of a speed-
// partitioned ShardedTree: a background loop that samples routing
// skew (largest shard over mean shard population) and re-route churn
// (re-routes per applied report) and starts a live reshard with
// quantile bands re-derived from recently observed speeds when either
// crosses its threshold.
type AutoReshardOptions struct {
	// Enabled turns the detector on; requires PartitionSpeed.
	Enabled bool

	// Interval is the sampling period (default 5s).
	Interval time.Duration

	// Window is how many recent speed observations the sliding window
	// keeps for re-deriving quantile bands (default 4096).  The
	// detector never triggers before the window has filled once.
	Window int

	// SkewThreshold triggers a reshard when the largest shard exceeds
	// this multiple of the mean shard population (e.g. 2.0); 0 disables
	// the skew trigger.
	SkewThreshold float64

	// ChurnThreshold triggers a reshard when the fraction of applied
	// reports that re-routed their object exceeds it (e.g. 0.2); 0
	// disables the churn trigger.
	ChurnThreshold float64

	// MinInterval is the cooldown between automatic reshards (default
	// 1m), so a persistent drift cannot reshard in a loop.
	MinInterval time.Duration
}

// Live-reshard phases, for ReshardStatus.
const (
	reshardPhaseScan int32 = iota
	reshardPhaseBackfill
	reshardPhaseCutover
)

var reshardPhaseNames = [...]string{"scan", "backfill", "cutover"}

// liveReshard is the shared state of one in-flight reshard: the target
// generation receiving the dual-applies, the set of object ids touched
// during the window (which the backfill must skip), and the abort
// flags.  It is published in ShardedTree.lr under the exclusive
// re-route lock, so every mutation observes a stable (generation,
// reshard) pair.
type liveReshard struct {
	spec   ReshardSpec
	target *generation

	phase                        atomic.Int32
	scanned, backfilled, applied atomic.Uint64

	// touched[id%64] is written under the same discipline as the
	// mutation that records it — the id's stripe for single-object
	// operations, the exclusive re-route lock for batches — and read
	// by the engine only under the exclusive lock, which conflicts
	// with both.
	touched [64]map[uint32]struct{}

	mu       sync.Mutex
	err      error // first mirror/engine failure; aborts the reshard
	canceled bool
}

func newLiveReshard(spec ReshardSpec, target *generation) *liveReshard {
	lr := &liveReshard{spec: spec, target: target}
	for i := range lr.touched {
		lr.touched[i] = make(map[uint32]struct{})
	}
	return lr
}

func (l *liveReshard) noteTouched(id uint32) {
	l.touched[id%uint32(len(l.touched))][id] = struct{}{}
}

func (l *liveReshard) isTouched(id uint32) bool {
	_, ok := l.touched[id%uint32(len(l.touched))][id]
	return ok
}

// fail records the first failure; the engine aborts at its next check.
func (l *liveReshard) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

func (l *liveReshard) cancel() {
	l.mu.Lock()
	l.canceled = true
	l.mu.Unlock()
}

// aborted returns the reason this reshard must stop, or nil.
func (l *liveReshard) aborted() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.canceled {
		return errReshardCanceled
	}
	return nil
}

// ReshardStatus reports the state of the live-reshard engine.
type ReshardStatus struct {
	// InFlight is true from the moment a reshard is admitted until
	// its outcome is recorded in LastError.
	InFlight bool

	// Phase is "scan", "backfill" or "cutover" while in flight, else
	// "idle".
	Phase string

	// Generation is the current (serving) shard-file generation.
	Generation int

	// Shards and Policy describe the in-flight target when InFlight,
	// else the current generation.
	Shards int
	Policy string

	// Progress counters of the in-flight (or, for DualApplied, most
	// recent) reshard.
	Scanned     uint64
	Backfilled  uint64
	DualApplied uint64

	// LastError is the failure of the most recently finished reshard
	// ("" when it committed, or none ran).
	LastError string
}

// ReshardStatus returns a point-in-time view of the reshard engine.
func (s *ShardedTree) ReshardStatus() ReshardStatus {
	g := s.cur.Load()
	st := ReshardStatus{
		Phase:      "idle",
		Generation: g.gen,
		Shards:     len(g.shards),
		Policy:     g.part.policy().String(),
	}
	s.statusMu.Lock()
	admitted := s.admitted
	if s.lastReshardErr != nil {
		st.LastError = s.lastReshardErr.Error()
	}
	s.statusMu.Unlock()
	if lr := s.lr.Load(); lr != nil {
		st.InFlight = true
		st.Phase = reshardPhaseNames[lr.phase.Load()]
		st.Shards = len(lr.target.shards)
		st.Policy = lr.target.part.policy().String()
		st.Scanned = lr.scanned.Load()
		st.Backfilled = lr.backfilled.Load()
		st.DualApplied = lr.applied.Load()
	} else if admitted != nil {
		// Admitted, but the dual-apply window is not open yet (or has
		// just closed and the outcome is being recorded).
		st.InFlight = true
		st.Phase = reshardPhaseNames[reshardPhaseScan]
		st.Shards = admitted.Shards
		st.Policy = admitted.Policy.String()
	}
	return st
}

// CancelReshard asks an in-flight live reshard to abort; it reports
// whether one was in flight.  The abort is acknowledged at the
// engine's next cancellation check, never after the commit point.
func (s *ShardedTree) CancelReshard() bool {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	if lr := s.lr.Load(); lr != nil {
		lr.cancel()
		return true
	}
	if s.admitted != nil {
		s.cancelAdmitted = true // runLiveReshard applies it on publication
		return true
	}
	return false
}

// Reshard rebuilds the index under spec — a new shard count, partition
// policy and/or speed bands — while concurrent reads and writes keep
// being served, and blocks until the reshard commits or fails.  See
// the package comment at the top of this file for the protocol.
func (s *ShardedTree) Reshard(spec ReshardSpec) error {
	spec, derived, err := s.normalizeSpec(spec)
	if err != nil {
		return err
	}
	if err := s.admitReshard(spec); err != nil {
		return err
	}
	err = s.runLiveReshard(spec, derived)
	s.finishReshard(err)
	return err
}

// StartReshard is Reshard running in the background: it returns once
// the reshard is admitted (ErrReshardInFlight when one already runs),
// and the outcome is reported by ReshardStatus.LastError.  The status
// shows the reshard in flight as soon as StartReshard returns nil.
func (s *ShardedTree) StartReshard(spec ReshardSpec) error {
	spec, derived, err := s.normalizeSpec(spec)
	if err != nil {
		return err
	}
	if err := s.admitReshard(spec); err != nil {
		return err
	}
	go func() { s.finishReshard(s.runLiveReshard(spec, derived)) }()
	return nil
}

// admitReshard takes the single reshard slot for spec and marks it in
// flight; finishReshard records the outcome and releases the slot.
func (s *ShardedTree) admitReshard(spec ReshardSpec) error {
	if !s.reshardMu.TryLock() {
		return ErrReshardInFlight
	}
	if s.closing.Load() {
		s.reshardMu.Unlock()
		return errIndexClosed
	}
	s.statusMu.Lock()
	s.admitted = &spec
	s.cancelAdmitted = false
	s.lastReshardErr = nil
	s.statusMu.Unlock()
	return nil
}

func (s *ShardedTree) finishReshard(err error) {
	s.statusMu.Lock()
	s.admitted = nil
	s.lastReshardErr = err
	s.statusMu.Unlock()
	s.reshardMu.Unlock()
}

// normalizeSpec fills defaults and validates; derived reports that the
// speed bands were taken from the drift window (and are therefore
// recorded as auto-tuned).
func (s *ShardedTree) normalizeSpec(spec ReshardSpec) (ReshardSpec, bool, error) {
	g := s.cur.Load()
	if spec.Shards == 0 {
		spec.Shards = len(g.shards)
	}
	if spec.Shards < 1 {
		return spec, false, fmt.Errorf("rexptree: invalid reshard shard count %d", spec.Shards)
	}
	switch spec.Policy {
	case PartitionHash, PartitionSpeed:
	default:
		return spec, false, fmt.Errorf("rexptree: unknown partition policy %d", int(spec.Policy))
	}
	if spec.Policy == PartitionHash && len(spec.SpeedBands) > 0 {
		return spec, false, fmt.Errorf("rexptree: speed bands given for hash partitioning")
	}
	spec.SpeedBands = append([]float64(nil), spec.SpeedBands...)
	derived := false
	if spec.Policy == PartitionSpeed && len(spec.SpeedBands) == 0 && spec.Shards >= 2 {
		if s.speedWin != nil && s.speedWin.Full() {
			spec.SpeedBands = manifest.QuantileBands(s.speedWin.Snapshot(), spec.Shards)
			derived = true
		}
	}
	if err := manifest.ValidateBands(spec.SpeedBands, spec.Shards); err != nil {
		return spec, false, fmt.Errorf("rexptree: %w", err)
	}
	return spec, derived, nil
}

// scanRec is one snapshotted record (internal stored form).
type scanRec struct {
	id uint32
	mp geom.MovingPoint
}

// reshardBackfillChunk is how many snapshot records each backfill
// batch loads into the target; each chunk holds the re-route lock
// once, so writes interleave with the backfill at chunk granularity.
const reshardBackfillChunk = 512

// hook runs the test crash hook for a phase boundary, if any.
func (s *ShardedTree) hook(point string) error {
	if s.testReshardHook != nil {
		return s.testReshardHook(point)
	}
	return nil
}

// runLiveReshard is the engine; the caller holds reshardMu for the
// whole run.  derived marks spec.SpeedBands as self-tuned.
func (s *ShardedTree) runLiveReshard(spec ReshardSpec, derived bool) error {
	if err := s.hook("admit"); err != nil {
		return err
	}
	cur := s.cur.Load()
	newGen := cur.gen + 1

	// Sweep leftovers of interrupted reshards out of the way first, so
	// the target generation opens onto fresh files.
	if s.basePath != "" {
		if _, err := manifest.CleanStale(s.basePath, cur.gen); err != nil {
			return fmt.Errorf("rexptree: live reshard: %w", err)
		}
	}

	// Without explicit or windowed bands, a speed target takes the
	// quantiles of the live speeds before it exists: a self-tuning
	// target would hash-route the backfill and leave it outside its
	// bands.
	if spec.Policy == PartitionSpeed && spec.Shards >= 2 && len(spec.SpeedBands) == 0 {
		speeds, err := s.liveSpeeds(cur)
		if err != nil {
			return fmt.Errorf("rexptree: live reshard: %w", err)
		}
		if len(speeds) > 0 {
			spec.SpeedBands = manifest.QuantileBands(speeds, spec.Shards)
			derived = true
		}
	}

	// Build the empty target generation: next file generation, same
	// durability and per-shard options as a reopen would derive, so
	// every mirrored mutation and backfilled record is WAL-durable
	// before the commit rename.
	trees, err := openGeneration(s.opts, spec.Shards, newGen)
	if err != nil {
		return fmt.Errorf("rexptree: live reshard: %w", err)
	}
	target := &generation{shards: trees, sums: make([]shardSummary, spec.Shards), gen: newGen}
	switch spec.Policy {
	case PartitionSpeed:
		sp := newSpeedPartitioner(spec.Shards, s.dims, s.opts.TuneAfter, spec.SpeedBands,
			func(b []float64) { s.setSpeedGauges(target, b) })
		sp.tuned = derived
		target.part = sp
	default:
		target.part = hashPartitioner{n: spec.Shards}
	}
	for i := range target.sums {
		ss := &target.sums[i]
		ss.mu.Lock()
		s.retightenLocked(target, i)
		ss.mu.Unlock()
	}

	lr := newLiveReshard(spec, target)

	// Publish: from here every mutation dual-applies into the target.
	s.rerouteMu.Lock()
	if s.closing.Load() {
		s.rerouteMu.Unlock()
		return s.abortCrash(lr, errReshardCanceled)
	}
	s.lr.Store(lr)
	s.rerouteMu.Unlock()
	s.statusMu.Lock()
	if s.cancelAdmitted {
		lr.cancel()
	}
	s.statusMu.Unlock()

	// Phase 1: scan a snapshot of every current shard over the
	// lock-free read path, at the highest clock any shard has applied.
	// Records the dual-apply stream touches after this point supersede
	// their snapshot versions and are excluded from the backfill.
	lr.phase.Store(reshardPhaseScan)
	snapClock := cur.clock()
	var recs []scanRec
	for _, t := range cur.shards {
		if err := lr.aborted(); err != nil {
			return s.abortClean(lr, err)
		}
		err := t.exportRecords(func(oid uint32, mp geom.MovingPoint) error {
			recs = append(recs, scanRec{oid, mp})
			return nil
		})
		if err != nil {
			return s.abortClean(lr, fmt.Errorf("rexptree: live reshard scan: %w", err))
		}
	}
	lr.scanned.Store(uint64(len(recs)))
	if err := s.hook("scan"); err != nil {
		return s.abortCrash(lr, err)
	}

	// Phase 2: backfill the snapshot into the target in chunks, each
	// under the exclusive re-route lock so it cannot interleave with a
	// dual-applied mutation.  Touched ids are skipped — their snapshot
	// version is stale — and records already expired at the snapshot
	// clock are dropped.
	lr.phase.Store(reshardPhaseBackfill)
	expireAware := cur.expireAware()
	for start := 0; start < len(recs); start += reshardBackfillChunk {
		end := start + reshardBackfillChunk
		if end > len(recs) {
			end = len(recs)
		}
		s.rerouteMu.Lock()
		if err := lr.aborted(); err != nil {
			s.rerouteMu.Unlock()
			return s.abortClean(lr, err)
		}
		if s.closing.Load() {
			s.rerouteMu.Unlock()
			return s.abortClean(lr, errReshardCanceled)
		}
		batch := make([]Report, 0, end-start)
		for _, r := range recs[start:end] {
			if lr.isTouched(r.id) {
				continue
			}
			if expireAware && r.mp.TExp < snapClock {
				continue
			}
			// A stored record's reference time is 0, so re-reporting it
			// with Time 0 stores the identical record in the target.
			batch = append(batch, Report{ID: r.id, Point: Point{
				Pos:     Vec(r.mp.Pos),
				Vel:     Vec(r.mp.Vel),
				Time:    0,
				Expires: r.mp.TExp,
			}})
		}
		if len(batch) > 0 {
			if err := s.applyBatch(target, batch, snapClock, nil, false); err != nil {
				s.rerouteMu.Unlock()
				return s.abortClean(lr, fmt.Errorf("rexptree: live reshard backfill: %w", err))
			}
			lr.backfilled.Add(uint64(len(batch)))
			s.m.Add(obs.ReshardBackfilled, uint64(len(batch)))
		}
		s.rerouteMu.Unlock()
	}
	if err := s.hook("dual-apply"); err != nil {
		return s.abortCrash(lr, err)
	}

	// Phase 3: cutover.  With the exclusive re-route lock held, no
	// mutation is in flight: the generations must now agree object for
	// object, and the atomic manifest rewrite is the commit point.
	lr.phase.Store(reshardPhaseCutover)
	s.rerouteMu.Lock()
	stallStart := time.Now()
	abortLocked := func(crash bool, cause error) error {
		s.rerouteMu.Unlock()
		if crash {
			return s.abortCrash(lr, cause)
		}
		return s.abortClean(lr, cause)
	}
	if err := lr.aborted(); err != nil {
		return abortLocked(false, err)
	}
	if s.closing.Load() {
		return abortLocked(false, errReshardCanceled)
	}
	if err := s.hook("verify"); err != nil {
		return abortLocked(true, err)
	}
	if err := verifyGenerations(cur, target, expireAware); err != nil {
		return abortLocked(false, err)
	}
	if err := s.hook("pre-rename"); err != nil {
		return abortLocked(true, err)
	}
	if s.manifestPath != "" {
		// A target without a log holds its pages only in its buffer
		// pools: they reach the files before the manifest names them,
		// so a crash after the commit point finds a complete index.
		if s.durability == DurabilityNone {
			for i, t := range target.shards {
				if err := t.flush(); err != nil {
					return abortLocked(false, fmt.Errorf("rexptree: live reshard flushing target shard %d: %w", i, err))
				}
			}
		}
		if err := s.writeManifestFile(target); err != nil {
			return abortLocked(false, fmt.Errorf("rexptree: live reshard commit: %w", err))
		}
	}
	// Committed: swap the generation pointer; readers migrate on their
	// next pin, writers on their next lock acquisition.  The
	// replication sink moves to the new shards in the same critical
	// section, so emission is gapless and never doubled: until here
	// only the old generation emitted (dual-apply kept the target
	// sink-free), from here only the new one does.
	if s.replSink != nil {
		for _, t := range target.shards {
			t.mu.Lock()
			t.replSink = s.replSink
			t.mu.Unlock()
		}
	}
	s.lr.Store(nil)
	s.cur.Store(target)
	s.m.Observe(obs.ReshardCutoverStall, time.Since(stallStart))
	s.rerouteMu.Unlock()

	if err := s.hook("post-rename"); err != nil {
		// Simulated crash after the commit point: the new generation
		// stays live (and durable); the old one is dropped without
		// touching its files, which the next reshard sweeps.
		for _, t := range cur.shards {
			t.Abandon()
		}
		return err
	}

	// Retire the old generation once the last in-flight reader leaves
	// it.  Its files are about to be removed, so there is nothing to
	// checkpoint.
	for cur.refs.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	for _, t := range cur.shards {
		t.Abandon()
	}
	if s.basePath != "" {
		for i := range cur.shards {
			// Best effort: leftovers are swept by the next reshard.
			RemoveIndex(manifest.ShardPath(s.basePath, cur.gen, i))
		}
		manifest.CleanStale(s.basePath, newGen)
	}
	s.m.Inc(obs.ReshardRuns)
	return nil
}

// abortClean unwinds a reshard before its commit point: the dual-apply
// window is closed, the target trees are dropped and their files
// removed.  The index keeps serving from the untouched current
// generation.
func (s *ShardedTree) abortClean(lr *liveReshard, cause error) error {
	s.unpublish(lr)
	for _, t := range lr.target.shards {
		t.Abandon()
	}
	if s.basePath != "" {
		for i := range lr.target.shards {
			RemoveIndex(manifest.ShardPath(s.basePath, lr.target.gen, i))
		}
	}
	return cause
}

// abortCrash unwinds like abortClean but leaves the target's files on
// disk, simulating a process kill at a phase boundary: recovery (the
// next open or reshard) must cope with the leftovers.
func (s *ShardedTree) abortCrash(lr *liveReshard, cause error) error {
	s.unpublish(lr)
	for _, t := range lr.target.shards {
		t.Abandon()
	}
	return cause
}

// unpublish closes the dual-apply window.  Taking the exclusive
// re-route lock waits out every mutation that may still hold the
// reshard pointer, so the target trees are quiescent afterwards.
func (s *ShardedTree) unpublish(lr *liveReshard) {
	s.rerouteMu.Lock()
	if s.lr.Load() == lr {
		s.lr.Store(nil)
	}
	s.rerouteMu.Unlock()
}

// verifyGenerations proves the target holds exactly the records of the
// current generation.  The caller holds the exclusive re-route lock,
// so both sides are quiescent.  Under expiry-aware semantics, records
// expired at the verification clock are ignored on both sides: the
// generations may legitimately disagree on how many expired records
// they have lazily purged.
func verifyGenerations(cur, target *generation, expireAware bool) error {
	clock := max(cur.clock(), target.clock())
	want := make(map[uint32]geom.MovingPoint)
	for _, t := range cur.shards {
		t.objectsInto(want)
	}
	got := make(map[uint32]geom.MovingPoint)
	for _, t := range target.shards {
		t.objectsInto(got)
	}
	live := func(mp geom.MovingPoint) bool {
		return !expireAware || mp.TExp >= clock
	}
	for id, mp := range want {
		if !live(mp) {
			continue
		}
		tmp, ok := got[id]
		if !ok {
			return fmt.Errorf("rexptree: live reshard verify: object %d missing from target generation", id)
		}
		if tmp != mp {
			return fmt.Errorf("rexptree: live reshard verify: object %d differs between generations", id)
		}
	}
	for id, mp := range got {
		if !live(mp) {
			continue
		}
		if _, ok := want[id]; !ok {
			return fmt.Errorf("rexptree: live reshard verify: object %d only in target generation", id)
		}
	}
	return nil
}

// clock is the highest clock any shard of g has applied.
func (g *generation) clock() float64 {
	c := 0.0
	for _, t := range g.shards {
		c = max(c, t.clockNow())
	}
	return c
}

// expireAware reports whether g's shards drop expired records.
func (g *generation) expireAware() bool {
	return len(g.shards) > 0 && g.shards[0].t.Config().ExpireAware
}

// liveSpeeds returns the |velocity| of every record of g that is live
// at g's clock.
func (s *ShardedTree) liveSpeeds(g *generation) ([]float64, error) {
	clock, expireAware := g.clock(), g.expireAware()
	var speeds []float64
	for _, t := range g.shards {
		err := t.exportRecords(func(_ uint32, mp geom.MovingPoint) error {
			if !expireAware || mp.TExp >= clock {
				speeds = append(speeds, manifest.Speed([3]float64(mp.Vel), s.dims))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return speeds, nil
}

// flush writes a tree's buffered pages and its page file's superblock
// to disk.
func (tr *Tree) flush() error {
	tr.lock()
	defer tr.mu.Unlock()
	if err := tr.t.Sync(); err != nil {
		return err
	}
	return storage.SyncStore(tr.store)
}

// shutdownReshard stops the drift detector and waits out any in-flight
// reshard (canceling it; one already past its commit point completes).
// Caller holds closeMu.
func (s *ShardedTree) shutdownReshard() {
	s.closing.Store(true)
	if s.autoStop != nil {
		close(s.autoStop)
		<-s.autoDone
		s.autoStop = nil
	}
	if lr := s.lr.Load(); lr != nil {
		lr.cancel()
	}
	// The acquisition is the barrier: it returns only once the engine
	// goroutine released reshardMu.
	s.reshardMu.Lock()
	s.reshardMu.Unlock() //nolint:staticcheck // empty critical section intended
}

// autoReshardLoop is the drift detector; see AutoReshardOptions.
func (s *ShardedTree) autoReshardLoop(opts AutoReshardOptions) {
	defer close(s.autoDone)
	interval := opts.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	cooldown := opts.MinInterval
	if cooldown <= 0 {
		cooldown = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var last time.Time
	var prevRerouted, prevUpdates uint64
	for {
		select {
		case <-s.autoStop:
			return
		case <-tick.C:
		}
		g := s.pin()
		k := len(g.shards)
		total, maxLen := 0, 0
		for _, t := range g.shards {
			n := t.Len()
			total += n
			if n > maxLen {
				maxLen = n
			}
		}
		g.unpin()

		snap := s.m.Snapshot()
		updates := snap.Hist(obs.OpDuration+obs.Hist(obs.OpUpdate)).Count + s.batched.Load()
		rerouted := snap.Uint(obs.Rerouted)
		skew := 0.0
		if total > 0 {
			skew = float64(maxLen*k) / float64(total)
		}
		churn := 0.0
		if du := updates - prevUpdates; du > 0 {
			churn = float64(rerouted-prevRerouted) / float64(du)
		}
		prevUpdates, prevRerouted = updates, rerouted
		s.m.SetFloat(obs.ReshardSkew, skew)
		s.m.SetFloat(obs.ReshardChurn, churn)

		trigger := (opts.SkewThreshold > 0 && skew > opts.SkewThreshold) ||
			(opts.ChurnThreshold > 0 && churn > opts.ChurnThreshold)
		if !trigger || k < 2 || !s.speedWin.Full() {
			continue
		}
		if !last.IsZero() && time.Since(last) < cooldown {
			continue
		}
		// normalizeSpec derives fresh quantile bands from the window.
		if err := s.StartReshard(ReshardSpec{Shards: k, Policy: PartitionSpeed}); err == nil {
			last = time.Now()
		}
	}
}
