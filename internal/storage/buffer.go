package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/obs"
)

// Stats counts the page traffic between a BufferPool and its Store.
type Stats struct {
	Reads           uint64 // pages read from the store (buffer misses)
	Writes          uint64 // pages written to the store
	Hits            uint64 // page requests served from the buffer
	Evictions       uint64 // frames evicted by LRU replacement
	DirtyWritebacks uint64 // evictions that had to write the frame back
}

// IO returns reads + writes, the combined I/O count.
func (s Stats) IO() uint64 { return s.Reads + s.Writes }

// Sub returns the traffic accumulated since the earlier snapshot o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Writes:          s.Writes - o.Writes,
		Hits:            s.Hits - o.Hits,
		Evictions:       s.Evictions - o.Evictions,
		DirtyWritebacks: s.DirtyWritebacks - o.DirtyWritebacks,
	}
}

type frame struct {
	id     PageID
	data   []byte
	dirty  bool
	pins   int
	lruPos *list.Element // nil while pinned (not on the LRU list)

	// ref is the second-chance reference bit: the lock-free hit path
	// sets it instead of reordering the mutex-guarded LRU list, and
	// eviction gives a referenced frame one more round before dropping
	// it.  It is the only frame field touched without bp.mu.
	ref atomic.Bool
}

// BufferPool caches up to cap pages of a Store with LRU replacement,
// as in the experimental setup of the paper (§5.1): 50 pages of 4 KiB,
// the tree root pinned, dirty pages written back on eviction or on
// explicit flush.
//
// Every method is safe for concurrent use.  The hit path is lock-free:
// resident frames are published in a dense atomic table indexed by page
// id, so a Get that finds its page buffered touches no mutex at all —
// it marks the frame's second-chance reference bit instead of
// reordering the LRU list.  One mutex still serializes everything else
// (misses, eviction, allocation, flush, the LRU list and the store).
// A slice returned by Get stays memory-safe after a concurrent
// eviction (the frame is dropped, not recycled), but its contents are
// only stable while no writer mutates the page — the tree layer's
// locking discipline guarantees that.
type BufferPool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	noSteal  bool
	frames   map[PageID]*frame
	lru      *list.List // front = most recently used; unpinned frames only
	stats    Stats
	met      *obs.Metrics // nil when uninstrumented

	// readTbl is the lock-free lookup table: one atomic frame pointer
	// per page id, non-nil exactly for resident pages.  Mutated only
	// under mu (admit, evict, free); read by anyone.  Grown
	// copy-on-write, so readers may briefly see a shorter table and
	// fall through to the mutex path, which double-checks frames.
	readTbl atomic.Pointer[[]atomic.Pointer[frame]]

	// hitsLF counts hits served by the lock-free path; Stats folds it
	// into Hits so the total matches the mutex-only implementation.
	hitsLF atomic.Uint64

	// I/O phase-timer sample counters.  Atomic because store reads can
	// be triggered from the snapshot read path's fallback concurrently
	// with mutex-path misses; uniform 1-in-N sampling must stay sound
	// no matter which path issues the read.
	ioReadN  atomic.Uint64
	ioWriteN atomic.Uint64
}

// NewBufferPool wraps store with a buffer of the given page capacity.
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
	empty := make([]atomic.Pointer[frame], 0)
	bp.readTbl.Store(&empty)
	return bp
}

// Stats returns the accumulated I/O counters.  Hits served by the
// lock-free path are folded in, so the totals match what a mutex-only
// pool would report.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s := bp.stats
	s.Hits += bp.hitsLF.Load()
	return s
}

// SetMetrics attaches (or with nil detaches) an instrument registry.
// The registry is forwarded to the underlying store when it supports
// metrics (a FaultStore counts its trips there).
func (bp *BufferPool) SetMetrics(m *obs.Metrics) {
	bp.met = m
	if s, ok := bp.store.(interface{ SetMetrics(*obs.Metrics) }); ok {
		s.SetMetrics(m)
	}
}

// ResetStats zeroes the I/O counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
	bp.hitsLF.Store(0)
}

// tblSet publishes (f non-nil) or withdraws (f nil) the page's frame
// in the lock-free lookup table, growing the table as the store
// allocates higher page ids.  Caller holds bp.mu.
func (bp *BufferPool) tblSet(id PageID, f *frame) {
	tbl := *bp.readTbl.Load()
	if int(id) >= len(tbl) {
		if f == nil {
			return // clearing a slot that was never published
		}
		n := 2 * len(tbl)
		if n < int(id)+1 {
			n = int(id) + 1
		}
		if n < 64 {
			n = 64
		}
		grown := make([]atomic.Pointer[frame], n)
		for i := range tbl {
			grown[i].Store(tbl[i].Load())
		}
		bp.readTbl.Store(&grown)
		tbl = grown
	}
	tbl[id].Store(f)
}

// lookup is the lock-free resident-frame probe.
func (bp *BufferPool) lookup(id PageID) *frame {
	tbl := *bp.readTbl.Load()
	if int(id) < len(tbl) {
		return tbl[id].Load()
	}
	return nil
}

// Store returns the underlying page store.
func (bp *BufferPool) Store() Store { return bp.store }

func (bp *BufferPool) touch(f *frame) {
	if f.lruPos != nil {
		bp.lru.MoveToFront(f.lruPos)
	}
}

// errNoCleanFrame reports that a no-steal eviction pass found only
// dirty (or pinned) frames; the pool overflows instead of stealing.
var errNoCleanFrame = errors.New("storage: no clean frame to evict")

// evictOne writes back and drops the least recently used unpinned
// frame.  It returns an error if every frame is pinned.  Under the
// no-steal policy dirty frames are never evicted — a dirty page may
// only reach the store through an explicit Flush, so the on-disk state
// stays exactly the last checkpoint's; if no clean frame exists the
// pool overflows (errNoCleanFrame).
// evictOne implements second-chance LRU: the lock-free hit path cannot
// reorder the mutex-guarded list, so it marks the frame's reference
// bit instead, and eviction rotates referenced frames to the front
// (consuming the bit) before dropping the first unreferenced victim.
// The rotation budget is bounded so concurrent readers re-marking
// frames cannot livelock the writer: after 2×len(lru) rounds the
// reference bits are ignored and the back frame goes.
func (bp *BufferPool) evictOne() error {
	limit := 2 * bp.lru.Len()
	for round := 0; ; round++ {
		e := bp.lru.Back()
		if bp.noSteal {
			for e != nil && e.Value.(*frame).dirty {
				e = e.Prev()
			}
			if e == nil {
				return errNoCleanFrame
			}
		}
		if e == nil {
			return fmt.Errorf("storage: buffer pool full of pinned pages (cap %d)", bp.capacity)
		}
		f := e.Value.(*frame)
		if round < limit && f.ref.CompareAndSwap(true, false) {
			bp.lru.MoveToFront(e)
			continue
		}
		return bp.evictFrame(e, f)
	}
}

// evictFrame writes back and drops one chosen frame.  Caller holds
// bp.mu.
func (bp *BufferPool) evictFrame(e *list.Element, f *frame) error {
	if !bp.noSteal && f.dirty {
		if err := bp.writePage(f.id, f.data); err != nil {
			return err
		}
		bp.stats.Writes++
		bp.stats.DirtyWritebacks++
		if bp.met != nil {
			bp.met.Inc(obs.BufWrites)
			bp.met.Inc(obs.BufDirtyWritebacks)
			bp.met.Emit(obs.Event{Kind: obs.EvDirtyWriteback, Level: -1, N: 1})
		}
	}
	bp.stats.Evictions++
	if bp.met != nil {
		bp.met.Inc(obs.BufEvictions)
		bp.met.Emit(obs.Event{Kind: obs.EvEviction, Level: -1, N: 1})
	}
	bp.lru.Remove(e)
	delete(bp.frames, f.id)
	bp.tblSet(f.id, nil)
	return nil
}

func (bp *BufferPool) admit(f *frame) error {
	for len(bp.frames) >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			if bp.noSteal && errors.Is(err, errNoCleanFrame) {
				break
			}
			return err
		}
	}
	bp.frames[f.id] = f
	f.lruPos = bp.lru.PushFront(f)
	bp.tblSet(f.id, f)
	return nil
}

// SetNoSteal selects the no-steal replacement policy (see evictOne).
// The write-ahead-logged tree enables it so page writes only happen at
// checkpoints.
func (bp *BufferPool) SetNoSteal(v bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.noSteal = v
}

// Overflow returns how many resident pages exceed the configured
// capacity — under no-steal, how much dirty state has piled up beyond
// the budget.  The tree uses it as a checkpoint trigger.
func (bp *BufferPool) Overflow() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if n := len(bp.frames) - bp.capacity; n > 0 {
		return n
	}
	return 0
}

// DirtyPages calls fn for every dirty resident page in ascending page
// order.  The slice passed to fn aliases the frame; fn must not retain
// it.  Dirty flags are not cleared — Flush does that when the
// checkpoint writes the pages to the store.
func (bp *BufferPool) DirtyPages(fn func(id PageID, data []byte) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	ids := make([]PageID, 0, len(bp.frames))
	for id, f := range bp.frames {
		if f.dirty {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := fn(id, bp.frames[id].data); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the contents of the page, reading it from the store on a
// miss.  A hit on a resident page takes no lock (see hitFast); only
// misses fall through to the mutex.  The returned slice aliases the
// buffer frame: it is valid until the page is evicted, so callers must
// not retain it across other pool operations unless the page is
// pinned.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	if f := bp.lookup(id); f != nil {
		bp.hitFast(f)
		return f.data, nil
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	data, _, err := bp.getTracked(id)
	return data, err
}

// GetTracked is Get plus a hit report: it returns whether the request
// was served from the buffer (true) or had to read the store (false).
// Query tracing uses it to attribute per-traversal cache behavior.
func (bp *BufferPool) GetTracked(id PageID) ([]byte, bool, error) {
	if f := bp.lookup(id); f != nil {
		bp.hitFast(f)
		return f.data, true, nil
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.getTracked(id)
}

// hitFast records a lock-free hit: the frame's second-chance bit
// replaces the LRU reorder, and the hit counters are atomic.
func (bp *BufferPool) hitFast(f *frame) {
	f.ref.Store(true)
	bp.hitsLF.Add(1)
	if bp.met != nil {
		bp.met.Inc(obs.BufHits)
		bp.met.Inc(obs.BufLockFreeHits)
	}
}

func (bp *BufferPool) get(id PageID) ([]byte, error) {
	data, _, err := bp.getTracked(id)
	return data, err
}

func (bp *BufferPool) getTracked(id PageID) ([]byte, bool, error) {
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		if bp.met != nil {
			bp.met.Inc(obs.BufHits)
		}
		bp.touch(f)
		return f.data, true, nil
	}
	f := &frame{id: id, data: make([]byte, PageSize)}
	if err := bp.readPage(id, f.data); err != nil {
		return nil, false, err
	}
	bp.stats.Reads++
	if bp.met != nil {
		bp.met.Inc(obs.BufReads)
	}
	if err := bp.admit(f); err != nil {
		return nil, false, err
	}
	return f.data, false, nil
}

// ioSampleEvery is the 1-in-N sampling rate for the io_read/io_write
// phase timers.  Memory-backed stores serve a 4 KiB page in well under
// the clock readings' own cost, so timing every call on the miss path
// would cost more than the work being measured; uniform sampling keeps
// the latency distribution representative while bounding the timer
// overhead.  (Volume is counted exactly by rexp_buffer_reads_total /
// _writes_total; the phase histogram's _count is the sample count.)
const ioSampleEvery = 8

// readPage reads the page from the store, timing a uniform sample of
// reads into the io_read phase histogram when instrumented.  The
// sample counter is atomic (not mutex-protected) so every store read
// is counted toward the 1-in-N sample no matter which path triggered
// it — mutex-path misses and the snapshot read path's buffer fallback
// alike — keeping the phase histogram from undercounting.
func (bp *BufferPool) readPage(id PageID, data []byte) error {
	if bp.met == nil {
		return bp.store.ReadPage(id, data)
	}
	if bp.ioReadN.Add(1)%ioSampleEvery != 0 {
		return bp.store.ReadPage(id, data)
	}
	start := time.Now()
	err := bp.store.ReadPage(id, data)
	bp.met.ObservePhase(obs.PhaseIORead, time.Since(start))
	return err
}

// writePage writes the page to the store, timing a uniform sample of
// writes into the io_write phase histogram when instrumented.
func (bp *BufferPool) writePage(id PageID, data []byte) error {
	if bp.met == nil {
		return bp.store.WritePage(id, data)
	}
	if bp.ioWriteN.Add(1)%ioSampleEvery != 0 {
		return bp.store.WritePage(id, data)
	}
	start := time.Now()
	err := bp.store.WritePage(id, data)
	bp.met.ObservePhase(obs.PhaseIOWrite, time.Since(start))
	return err
}

// MarkDirty records that the page's buffered contents differ from the
// store.  The page must be resident (obtained via Get or Allocate and
// not yet evicted); keeping it resident while mutating is the caller's
// responsibility (pin it or mark immediately after Get).
func (bp *BufferPool) MarkDirty(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: MarkDirty(%d): page not resident", id)
	}
	f.dirty = true
	return nil
}

// Pin prevents the page from being evicted until a matching Unpin.
// Pins nest.
func (bp *BufferPool) Pin(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		if _, err := bp.get(id); err != nil {
			return err
		}
		f = bp.frames[id]
	}
	f.pins++
	if f.lruPos != nil {
		bp.lru.Remove(f.lruPos)
		f.lruPos = nil
	}
	return nil
}

// Unpin releases one pin on the page.
func (bp *BufferPool) Unpin(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		return fmt.Errorf("storage: Unpin(%d): page not pinned", id)
	}
	f.pins--
	if f.pins == 0 {
		f.lruPos = bp.lru.PushFront(f)
	}
	return nil
}

// Allocate obtains a fresh zeroed page from the store and installs it
// in the buffer as dirty, so creating a node costs no read I/O.
func (bp *BufferPool) Allocate() (PageID, []byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.store.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	f := &frame{id: id, data: make([]byte, PageSize), dirty: true}
	if err := bp.admit(f); err != nil {
		return InvalidPage, nil, err
	}
	return id, f.data, nil
}

// Free drops the page from the buffer (without write-back) and
// releases it in the store.
func (bp *BufferPool) Free(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("storage: Free(%d): page is pinned", id)
		}
		if f.lruPos != nil {
			bp.lru.Remove(f.lruPos)
		}
		delete(bp.frames, id)
		bp.tblSet(id, nil)
	}
	return bp.store.Free(id)
}

// Flush writes every dirty frame back to the store, leaving all pages
// resident.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if !f.dirty {
			continue
		}
		if err := bp.writePage(f.id, f.data); err != nil {
			return err
		}
		f.dirty = false
		bp.stats.Writes++
		if bp.met != nil {
			bp.met.Inc(obs.BufWrites)
		}
	}
	return nil
}

// Cap returns the pool's page capacity.
func (bp *BufferPool) Cap() int { return bp.capacity }

// Resident returns the number of buffered pages (for tests).
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
