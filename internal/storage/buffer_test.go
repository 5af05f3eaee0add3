package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"rexptree/internal/obs"
)

func TestBufferPoolReadYourWrites(t *testing.T) {
	bp := NewBufferPool(NewMemStore(), 4)
	id, data, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 42
	if err := bp.MarkDirty(id); err != nil {
		t.Fatal(err)
	}
	got, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatal("buffered write not visible")
	}
	if bp.Stats().Reads != 0 {
		t.Errorf("reads = %d, want 0 (allocation and hit only)", bp.Stats().Reads)
	}
}

func TestBufferPoolEvictionWritesBackDirty(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 2)
	a, dataA, _ := bp.Allocate()
	dataA[0] = 1
	bp.MarkDirty(a)
	b, dataB, _ := bp.Allocate()
	dataB[0] = 2
	bp.MarkDirty(b)
	// Third allocation evicts the LRU page (a).
	c, _, _ := bp.Allocate()
	_ = c
	if bp.Resident() != 2 {
		t.Fatalf("resident = %d", bp.Resident())
	}
	if bp.Stats().Writes != 1 {
		t.Fatalf("writes = %d, want 1 (evicted dirty page)", bp.Stats().Writes)
	}
	// Re-reading a must come from the store with the written content.
	got, err := bp.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("dirty page lost on eviction")
	}
	if bp.Stats().Reads != 1 {
		t.Errorf("reads = %d, want 1 (miss on a)", bp.Stats().Reads)
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	store := NewMemStore()
	// Pre-create pages directly in the store.
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := store.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 2)
	bp.Get(ids[0])
	bp.Get(ids[1])
	bp.Get(ids[0]) // 0 is now MRU; 1 is LRU
	bp.Get(ids[2]) // evicts 1
	if _, ok := bp.frames[ids[1]]; ok {
		t.Fatal("LRU page 1 not evicted")
	}
	if _, ok := bp.frames[ids[0]]; !ok {
		t.Fatal("MRU page 0 was evicted")
	}
}

func TestBufferPoolPinnedNeverEvicted(t *testing.T) {
	store := NewMemStore()
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, _ := store.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 2)
	if err := bp.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := bp.frames[ids[0]]; !ok {
		t.Fatal("pinned page was evicted")
	}
	// A pool where everything is pinned must error, not spin.
	bp2 := NewBufferPool(store, 1)
	bp2.Pin(ids[0])
	if _, err := bp2.Get(ids[1]); err == nil {
		t.Fatal("expected error when all frames pinned")
	}
	// Unpin allows progress again.
	bp2.Unpin(ids[0])
	if _, err := bp2.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolPinNesting(t *testing.T) {
	store := NewMemStore()
	id, _ := store.Allocate()
	bp := NewBufferPool(store, 1)
	bp.Pin(id)
	bp.Pin(id)
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	// Still pinned once: a second page cannot enter a cap-1 pool.
	id2, _ := store.Allocate()
	if _, err := bp.Get(id2); err == nil {
		t.Fatal("nested pin ignored")
	}
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id); err == nil {
		t.Fatal("unbalanced unpin accepted")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 4)
	id, data, _ := bp.Allocate()
	data[7] = 9
	bp.MarkDirty(id)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 9 {
		t.Fatal("flush did not reach the store")
	}
	w := bp.Stats().Writes
	// Flushing again writes nothing: pages are clean.
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Writes != w {
		t.Fatal("clean pages rewritten on second flush")
	}
}

func TestBufferPoolFreeDropsFrame(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 4)
	id, data, _ := bp.Allocate()
	data[0] = 5
	bp.MarkDirty(id)
	if err := bp.Free(id); err != nil {
		t.Fatal(err)
	}
	if bp.Resident() != 0 {
		t.Fatal("freed page still resident")
	}
	if store.Len() != 0 {
		t.Fatal("freed page still allocated in store")
	}
	if bp.Stats().Writes != 0 {
		t.Fatal("freed dirty page was written back")
	}
	// Freeing a pinned page must fail.
	id2, _, _ := bp.Allocate()
	bp.Pin(id2)
	if err := bp.Free(id2); err == nil {
		t.Fatal("freed a pinned page")
	}
}

func TestBufferPoolStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4, Hits: 100, Evictions: 8, DirtyWritebacks: 5}
	b := Stats{Reads: 3, Writes: 1, Hits: 40, Evictions: 2, DirtyWritebacks: 1}
	d := a.Sub(b)
	if d.Reads != 7 || d.Writes != 3 || d.Hits != 60 || d.Evictions != 6 || d.DirtyWritebacks != 4 {
		t.Errorf("Sub = %+v", d)
	}
	if a.IO() != 14 {
		t.Errorf("IO = %d", a.IO())
	}
}

// TestBufferPoolEvictionCounters distinguishes evictions from dirty
// writebacks: evicting a clean frame counts only an eviction, a dirty
// frame additionally counts a writeback.
func TestBufferPoolEvictionCounters(t *testing.T) {
	store := NewMemStore()
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := store.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 2)
	met := obs.New()
	var events []obs.Event
	met.Observer = obs.ObserverFunc(func(e obs.Event) { events = append(events, e) })
	bp.SetMetrics(met)

	// Clean evictions: reading 3 pages through a cap-2 pool evicts one
	// clean frame, no writeback.
	for _, id := range ids {
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	s := bp.Stats()
	if s.Evictions != 1 || s.DirtyWritebacks != 0 {
		t.Fatalf("clean eviction: evictions=%d writebacks=%d, want 1/0", s.Evictions, s.DirtyWritebacks)
	}

	// Dirty eviction: dirty both resident pages, then touch the third
	// page again to force one dirty frame out.
	for _, f := range bp.frames {
		f.dirty = true
	}
	missing := ids[0] // ids[0] was the first one evicted above
	if _, err := bp.Get(missing); err != nil {
		t.Fatal(err)
	}
	s = bp.Stats()
	if s.Evictions != 2 || s.DirtyWritebacks != 1 {
		t.Fatalf("dirty eviction: evictions=%d writebacks=%d, want 2/1", s.Evictions, s.DirtyWritebacks)
	}

	// The obs registry mirrors the pool's own stats.
	snap := met.Snapshot()
	if snap.Uint(obs.BufEvictions) != s.Evictions || snap.Uint(obs.BufDirtyWritebacks) != s.DirtyWritebacks {
		t.Errorf("obs counters evictions=%d writebacks=%d, want %d/%d",
			snap.Uint(obs.BufEvictions), snap.Uint(obs.BufDirtyWritebacks), s.Evictions, s.DirtyWritebacks)
	}
	if snap.Uint(obs.BufReads) != s.Reads || snap.Uint(obs.BufHits) != s.Hits {
		t.Errorf("obs reads=%d hits=%d, want %d/%d", snap.Uint(obs.BufReads), snap.Uint(obs.BufHits), s.Reads, s.Hits)
	}

	// Events: 2 evictions, 1 dirty writeback, writeback announced
	// before its eviction, all at storage level -1.
	var ev, wb int
	for i, e := range events {
		if e.Level != -1 {
			t.Errorf("event %d level = %d, want -1", i, e.Level)
		}
		switch e.Kind {
		case obs.EvEviction:
			ev++
		case obs.EvDirtyWriteback:
			wb++
			if i+1 >= len(events) || events[i+1].Kind != obs.EvEviction {
				t.Error("dirty writeback not followed by its eviction event")
			}
		}
	}
	if ev != 2 || wb != 1 {
		t.Errorf("events: %d evictions, %d writebacks, want 2/1", ev, wb)
	}
}

// TestBufferPoolRandomizedAgainstStore checks that, through arbitrary
// interleavings of pool operations, page contents always match what a
// write-through oracle would hold.
func TestBufferPoolRandomizedAgainstStore(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 3)
	rng := rand.New(rand.NewSource(77))
	oracle := map[PageID][]byte{}
	var ids []PageID
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(ids) == 0: // allocate
			id, data, err := bp.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(data)
			if err := bp.MarkDirty(id); err != nil {
				t.Fatal(err)
			}
			oracle[id] = append([]byte(nil), data...)
			ids = append(ids, id)
		case op < 8: // read and verify
			id := ids[rng.Intn(len(ids))]
			data, err := bp.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, oracle[id]) {
				t.Fatalf("step %d: page %d diverged from oracle", step, id)
			}
		case op < 9: // overwrite
			id := ids[rng.Intn(len(ids))]
			data, err := bp.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(data)
			if err := bp.MarkDirty(id); err != nil {
				t.Fatal(err)
			}
			oracle[id] = append([]byte(nil), data...)
		default: // flush
			if err := bp.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
