// Package obs is the observability subsystem of the index: atomic
// counters, gauges and fixed-bucket latency histograms for every layer
// from the buffer pool to the public API, an Observer event hook for
// tracing structural events (splits, forced reinserts, condensing,
// lazy purges of expired entries, buffer evictions), and a
// Prometheus-text exposition of the collected state.
//
// Every metric family is declared once, as one row of the families
// table (families.go): its exposition name, type, help text, shard
// aggregation rule and storage slot.  The registry's slot arrays,
// snapshots, deltas, the sharded aggregate, the JSON form and the
// exposition are all loops over that table.
//
// The package has no dependencies beyond the standard library and is
// designed for a nil fast path: every instrumented layer holds a
// *Metrics that may be nil, and all recording helpers are no-ops on a
// nil receiver, so an uninstrumented tree pays only a pointer test.
// With a *Metrics attached, the hot-path cost is a handful of atomic
// adds; the Observer hook costs an interface call only when one is
// installed.  No recording path allocates.
package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets: len(Bounds) finite
// upper bounds plus one overflow (+Inf) bucket.
const NumBuckets = len(bounds) + 1

// bounds are the fixed latency bucket upper bounds in seconds,
// spanning 1 µs to 1 s; slower observations land in the overflow
// bucket.
var bounds = [...]float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// Bounds returns the histogram bucket upper bounds in seconds (the
// overflow bucket is implicit).
func Bounds() []float64 { return append([]float64(nil), bounds[:]...) }

// Histogram is a fixed-bucket latency histogram.  Observations are
// durations; the exposition reports seconds, following the Prometheus
// convention.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	nanos  atomic.Int64
	count  atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(bounds) && s > bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.nanos.Add(int64(d))
	h.count.Add(1)
}

// HistSnapshot is the frozen state of one histogram.
type HistSnapshot struct {
	Count      uint64
	SumSeconds float64
	Buckets    [NumBuckets]uint64 // per-bucket (non-cumulative) counts
}

// Snapshot freezes the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumSeconds = float64(h.nanos.Load()) / 1e9
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the activity since the earlier snapshot o.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	d := s
	d.Count -= o.Count
	d.SumSeconds -= o.SumSeconds
	for i := range d.Buckets {
		d.Buckets[i] -= o.Buckets[i]
	}
	return d
}

// Add returns the combined activity of both snapshots.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	d := s
	d.Count += o.Count
	d.SumSeconds += o.SumSeconds
	for i := range d.Buckets {
		d.Buckets[i] += o.Buckets[i]
	}
	return d
}

// Op identifies one public index operation.
type Op int

// The public operations, in exposition order.
const (
	OpUpdate Op = iota
	OpDelete
	OpTimeslice
	OpWindow
	OpMoving
	OpNearest
	OpBatch // one UpdateBatch call (its size is counted separately by the caller)
	NumOps  // count, not an operation
)

var opNames = [NumOps]string{"update", "delete", "timeslice", "window", "moving", "nearest", "update_batch"}

// String returns the operation's lower-case name.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "unknown"
	}
	return opNames[o]
}

// EventKind classifies an Event delivered to an Observer.
type EventKind uint8

// The event kinds.  Structural tree events carry the tree level they
// occurred at; storage events carry level -1.
const (
	EvSplit            EventKind = iota // a node split (paper §4.2.2); N = entries moved to the new sibling
	EvForcedReinsert                    // forced reinsertion on overflow (§4.2.2); N = entries removed for reinsertion
	EvCondense                          // an underflowing node was dissolved (CondenseTree, §4.3); N = live entries orphaned
	EvOrphanReinserted                  // one orphaned or reinserted entry was placed back into the tree (CT3, §4.3)
	EvPurge                             // expired entries were lazily purged from a node (§4.3); N = entries dropped
	EvSubtreeFreed                      // an expired internal entry's whole subtree was deallocated (§4.3)
	EvEviction                          // the buffer pool evicted a page (§5.1)
	EvDirtyWriteback                    // an evicted page was dirty and was written back first
	EvFaultTrip                         // an injected storage fault fired
	numEventKinds
)

var eventNames = [numEventKinds]string{
	"split", "forced-reinsert", "condense", "orphan-reinserted",
	"purge", "subtree-freed", "eviction", "dirty-writeback", "fault-trip",
}

// String returns the kind's kebab-case name.
func (k EventKind) String() string {
	if k >= numEventKinds {
		return "unknown"
	}
	return eventNames[k]
}

// Event is one traced occurrence.
type Event struct {
	Kind  EventKind
	Level int // tree level for structural events; -1 for storage events
	N     int // entries or pages affected
}

// Observer receives events synchronously, in the order they occur.
// Implementations must be fast and must not call back into the tree.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// SlowFunc is a slow-operation hook: it receives the operation and its
// duration whenever the duration reaches the configured threshold.
type SlowFunc func(op Op, d time.Duration)

// Metrics is the complete instrument registry for one tree: one atomic
// slot per counter and gauge series and one histogram per histogram
// series, laid out by the families table.  All slots are safe for
// concurrent use; Observer and the slow-op hook must be configured
// before the tree processes operations (or via the atomic SetSlowOp).
// Every recording method is a no-op on a nil receiver — the
// uninstrumented fast path.
type Metrics struct {
	scalars [NumScalars]atomic.Uint64 // counters; gauges as int64 or float64 bits
	hists   [NumHists]Histogram

	// Observer, when non-nil, receives structural events.  Set it
	// before the tree processes operations.
	Observer Observer

	slowNanos atomic.Int64
	slowFn    atomic.Pointer[SlowFunc]
}

// New returns an empty instrument registry.
func New() *Metrics { return &Metrics{} }

// Inc adds one to counter c.
func (m *Metrics) Inc(c Scalar) { m.Add(c, 1) }

// Add adds n to counter c.
func (m *Metrics) Add(c Scalar, n uint64) {
	if m != nil {
		m.scalars[c].Add(n)
	}
}

// SetGauge stores integer gauge g.
func (m *Metrics) SetGauge(g Scalar, v int64) {
	if m != nil {
		m.scalars[g].Store(uint64(v))
	}
}

// SetFloat stores floating-point gauge g.
func (m *Metrics) SetFloat(g Scalar, v float64) {
	if m != nil {
		m.scalars[g].Store(math.Float64bits(v))
	}
}

// Observe records one duration in histogram h.
func (m *Metrics) Observe(h Hist, d time.Duration) {
	if m != nil {
		m.hists[h].Observe(d)
	}
}

// ObservePhase records one phase duration.
func (m *Metrics) ObservePhase(p Phase, d time.Duration) { m.Observe(PhaseDuration+Hist(p), d) }

// Load returns counter c's current count (0 on a nil receiver).
func (m *Metrics) Load(c Scalar) uint64 {
	if m == nil {
		return 0
	}
	return m.scalars[c].Load()
}

// SetSlowOp installs (or, with a zero threshold or nil fn, removes)
// the slow-operation hook.  Safe to call while operations run.
func (m *Metrics) SetSlowOp(threshold time.Duration, fn SlowFunc) {
	if m == nil {
		return
	}
	if threshold <= 0 || fn == nil {
		m.slowNanos.Store(0)
		m.slowFn.Store(nil)
		return
	}
	m.slowNanos.Store(int64(threshold))
	m.slowFn.Store(&fn)
}

// ObserveOp records one public operation: its latency histogram, the
// error counter, and the slow-op hook when the duration reaches the
// threshold.
func (m *Metrics) ObserveOp(op Op, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.hists[OpDuration+Hist(op)].Observe(d)
	if err != nil {
		m.scalars[OpErrors+Scalar(op)].Add(1)
	}
	if t := m.slowNanos.Load(); t > 0 && int64(d) >= t {
		if fn := m.slowFn.Load(); fn != nil {
			(*fn)(op, d)
		}
	}
}

// Emit delivers the event to the Observer, if one is installed.
// No-op on a nil receiver or without an observer — the nil-observer
// fast path of the hot paths.
func (m *Metrics) Emit(e Event) {
	if m == nil || m.Observer == nil {
		return
	}
	m.Observer.Observe(e)
}

// Snapshot is a frozen, plain-value copy of a Metrics registry, or a
// delta or shard aggregate of such copies, read through the typed slot
// accessors.
type Snapshot struct {
	scalars [NumScalars]uint64 // counters; gauges as int64 or float64 bits
	hists   [NumHists]HistSnapshot
}

// Snapshot freezes the current state.  On a nil receiver it returns
// the zero snapshot.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	for i := range s.scalars {
		s.scalars[i] = m.scalars[i].Load()
	}
	for i := range s.hists {
		s.hists[i] = m.hists[i].Snapshot()
	}
	return s
}

// Uint returns counter c.
func (s *Snapshot) Uint(c Scalar) uint64 { return s.scalars[c] }

// Int returns integer gauge g.
func (s *Snapshot) Int(g Scalar) int64 { return int64(s.scalars[g]) }

// Float returns floating-point gauge g.
func (s *Snapshot) Float(g Scalar) float64 { return math.Float64frombits(s.scalars[g]) }

// Hist returns histogram h.
func (s *Snapshot) Hist(h Hist) HistSnapshot { return s.hists[h] }

// Sub returns the activity between the earlier snapshot o and s:
// counters and histograms are subtracted; gauges keep s's (current)
// values.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := s
	for i, f := range scalarDesc {
		if f.kind == kindCounter {
			d.scalars[i] -= o.scalars[i]
		}
	}
	for i := range d.hists {
		d.hists[i] = s.hists[i].Sub(o.hists[i])
	}
	return d
}

// Aggregate folds the registries of a sharded index — the front end's
// and one per shard, in shard order — into its fleet-wide view, slot by
// slot under each family's aggregation rule.  Summing gauges such as
// pages and leaf entries is meaningful because each shard owns
// disjoint pages and entries.
func Aggregate(front Snapshot, shards []Snapshot) Snapshot {
	agg := front
	for i, f := range scalarDesc {
		if f.agg == aggFront || len(shards) == 0 {
			continue
		}
		v := shards[0].scalars[i]
		for j := 1; j < len(shards); j++ {
			v = f.fold(v, shards[j].scalars[i])
		}
		if f.agg == aggSum {
			v = f.fold(v, front.scalars[i])
		}
		agg.scalars[i] = v
	}
	for i, f := range histDesc {
		if f.agg == aggFront {
			continue
		}
		var h HistSnapshot
		for j := range shards {
			h = h.Add(shards[j].hists[i])
		}
		agg.hists[i] = h.Add(front.hists[i])
	}
	return agg
}

// fold combines value b into the running aggregate a of one of the
// family's scalar slots.  Histogram families only sum.
func (f *desc) fold(a, b uint64) uint64 {
	if f.kind == kindFloat {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch f.agg {
		case aggMax:
			return math.Float64bits(math.Max(x, y))
		case aggMin:
			return math.Float64bits(math.Min(x, y))
		}
		return math.Float64bits(x + y)
	}
	switch f.agg {
	case aggMax:
		return uint64(max(int64(a), int64(b)))
	case aggMin:
		return uint64(min(int64(a), int64(b)))
	}
	return a + b // two's complement: right for integer gauges too
}

// value returns the sample of one slot of family f as a plain number
// or HistSnapshot.
func (s *Snapshot) value(f *desc, slot int) any {
	switch f.kind {
	case kindCounter:
		return s.scalars[slot]
	case kindGauge:
		return int64(s.scalars[slot])
	case kindFloat:
		return math.Float64frombits(s.scalars[slot])
	}
	return s.hists[slot]
}

// MarshalJSON writes one key per family, named like the exposition
// family without its prefix (buffer_reads_total, lock_wait_seconds,
// ...): a number per counter or gauge, a histogram object per
// histogram, and, for a labelled family, an object keyed by label
// value.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	out := make(map[string]any, len(families))
	for i := range families {
		f := &families[i]
		key := strings.TrimPrefix(f.name, "_")
		if f.label == "" {
			out[key] = s.value(f, f.slot)
			continue
		}
		series := make(map[string]any, f.series())
		for j, v := range labelValues[f.label] {
			series[v] = s.value(f, f.slot+j)
		}
		out[key] = series
	}
	return json.Marshal(out)
}
