package rexptree

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

// TraceSpan is one timed phase of a traced operation.  Spans form a
// tree through Parent (an index into QueryTrace.Spans, -1 for roots);
// Start is the offset from the operation's start.  The span taxonomy
// is documented in docs/TRACING.md: route, shard, queue-wait,
// lock-wait (or epoch-pin on the snapshot read path), traverse, merge
// for queries; lock-wait, apply, version-publish, wal-append,
// wal-fsync, checkpoint for mutations; analyze, truncate-tail,
// reapply-images, open-base, rebuild-records, replay, checkpoint for
// recovery.  Traverse spans additionally carry the traversal's node and
// page accounting.
type TraceSpan struct {
	Parent    int           `json:"parent"`          // index of the parent span; -1 for roots
	Phase     string        `json:"phase"`           // span name, see docs/TRACING.md
	Shard     int           `json:"shard"`           // shard the span ran on; -1 when not shard-specific
	Start     time.Duration `json:"start_ns"`        // offset from the operation's start
	Duration  time.Duration `json:"duration_ns"`     // span length
	Nodes     uint64        `json:"nodes,omitempty"` // traverse spans: nodes visited
	Leaves    uint64        `json:"leaves,omitempty"`
	PageReads uint64        `json:"page_reads,omitempty"` // buffer misses that read the store
	PageHits  uint64        `json:"page_hits,omitempty"`  // page requests served by the buffer
	Results   int           `json:"results,omitempty"`
}

// ShardTrace is one row of a sharded query's pruning table: what the
// front end decided about the shard and, when it was visited, what the
// visit cost.
type ShardTrace struct {
	Shard   int    `json:"shard"`
	Band    string `json:"band,omitempty"` // speed band "[lo, hi)" under PartitionSpeed
	Visited bool   `json:"visited"`
	// Reason explains the decision: "match" (summary intersects the
	// query), "summary-pruned", "empty" (provably empty shard), or
	// "distance-pruned" (nearest: bound beyond the k-th candidate).
	Reason    string        `json:"reason"`
	Results   int           `json:"results"`
	Nodes     uint64        `json:"nodes"`
	Leaves    uint64        `json:"leaves"`
	PageReads uint64        `json:"page_reads"`
	PageHits  uint64        `json:"page_hits"`
	Duration  time.Duration `json:"duration_ns"`
}

// QueryTrace is the structured execution trace of one operation: the
// span tree, and for sharded queries the per-shard pruning table.  It
// is the EXPLAIN result of the Trace* methods and the unit retained by
// the flight recorder.  A trace is immutable once returned; JSON
// encodes it for the /debug/rexp/traces endpoint and Text renders it
// for humans.
type QueryTrace struct {
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Results  int           `json:"results"`
	Error    string        `json:"error,omitempty"`
	Shards   []ShardTrace  `json:"shards,omitempty"`
	Spans    []TraceSpan   `json:"spans"`
}

func newTrace(op string) *QueryTrace {
	return &QueryTrace{Op: op, Start: time.Now()}
}

// begin appends a span starting now and returns its index (-1 on a nil
// trace — the untraced fast path costs one pointer test).  Not safe
// for concurrent use: concurrent writers (the query fan-out) must have
// their spans preallocated with begin before the goroutines start and
// then only touch their own indexes via startAt/endAt.
func (t *QueryTrace) begin(parent int, phase string, shard int) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, TraceSpan{
		Parent: parent,
		Phase:  phase,
		Shard:  shard,
		Start:  time.Since(t.Start),
	})
	return len(t.Spans) - 1
}

// startAt re-stamps span i's start to now.
func (t *QueryTrace) startAt(i int) {
	if t == nil || i < 0 {
		return
	}
	t.Spans[i].Start = time.Since(t.Start)
}

// endAt closes span i, setting its duration.
func (t *QueryTrace) endAt(i int) {
	if t == nil || i < 0 {
		return
	}
	sp := &t.Spans[i]
	sp.Duration = time.Since(t.Start) - sp.Start
}

// setEpochPin rewrites preallocated span i as the snapshot read
// path's "epoch-pin" span: queries on that path never wait for the
// tree lock, so the slot reserved for lock-wait reports the measured
// epoch pin cost instead.  The span shares the traversal's start (the
// pin is its first act) and lasts the pin time recorded in TravStats.
func (t *QueryTrace) setEpochPin(i, travIdx int, st *core.TravStats) {
	if t == nil || i < 0 {
		return
	}
	sp := &t.Spans[i]
	sp.Phase = "epoch-pin"
	if travIdx >= 0 {
		sp.Start = t.Spans[travIdx].Start
	}
	sp.Duration = time.Duration(st.PinNanos)
}

// addMeasured appends a root span whose length was measured elsewhere
// (e.g. the writer's snapshot version-publish, timed inside the core):
// it ends now and extends back by the measured duration.
func (t *QueryTrace) addMeasured(phase string, nanos int64) {
	if t == nil || nanos <= 0 {
		return
	}
	d := time.Duration(nanos)
	t.Spans = append(t.Spans, TraceSpan{
		Parent:   -1,
		Phase:    phase,
		Shard:    -1,
		Start:    time.Since(t.Start) - d,
		Duration: d,
	})
}

// setTrav attaches a traversal's node and page accounting to span i;
// st is non-nil whenever t is.
func (t *QueryTrace) setTrav(i int, st *core.TravStats, results int) {
	if t == nil || i < 0 {
		return
	}
	sp := &t.Spans[i]
	sp.Nodes, sp.Leaves = st.Nodes, st.Leaves
	sp.PageReads, sp.PageHits = st.Reads, st.Hits
	sp.Results = results
}

// visitedShard marks pruning-table row i visited, with the cost its
// closed shard span and traverse span recorded.
func (t *QueryTrace) visitedShard(i, shardIdx, travIdx, results int) {
	if t == nil {
		return
	}
	st, sp := &t.Shards[i], &t.Spans[travIdx]
	st.Visited, st.Reason = true, "match"
	st.Nodes, st.Leaves = sp.Nodes, sp.Leaves
	st.PageReads, st.PageHits = sp.PageReads, sp.PageHits
	st.Results = results
	st.Duration = t.Spans[shardIdx].Duration
}

// finishRecord seals the trace and hands it to the flight recorder
// (when one is attached).  Nil-safe on both the trace and recorder.
func (t *QueryTrace) finishRecord(rec *obs.Recorder, results int, d time.Duration, err error) {
	if t == nil {
		return
	}
	t.Duration = d
	t.Results = results
	if err != nil {
		t.Error = err.Error()
	}
	if rec != nil {
		rec.Record(t, d)
	}
}

// JSON returns the trace as indented JSON (durations in nanoseconds,
// as served by /debug/rexp/traces).
func (t *QueryTrace) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Text renders the trace for humans: a header line, the per-shard
// pruning table (sharded queries), and the indented span tree.
func (t *QueryTrace) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", t.Op, t.Duration)
	if t.Error != "" {
		fmt.Fprintf(&b, ", error: %s", t.Error)
	} else {
		fmt.Fprintf(&b, ", %d results", t.Results)
	}
	b.WriteByte('\n')

	if len(t.Shards) > 0 {
		visited := 0
		for _, st := range t.Shards {
			if st.Visited {
				visited++
			}
		}
		fmt.Fprintf(&b, "  shards: %d/%d visited\n", visited, len(t.Shards))
		for _, st := range t.Shards {
			fmt.Fprintf(&b, "    shard %d", st.Shard)
			if st.Band != "" {
				fmt.Fprintf(&b, " %s", st.Band)
			}
			if !st.Visited {
				fmt.Fprintf(&b, ": %s\n", st.Reason)
				continue
			}
			fmt.Fprintf(&b, ": %d results, %d nodes, %d leaf entries, %d reads, %d cached, %v\n",
				st.Results, st.Nodes, st.Leaves, st.PageReads, st.PageHits, st.Duration)
		}
	}

	if len(t.Spans) > 0 {
		b.WriteString("  spans:\n")
		children := make([][]int, len(t.Spans))
		var roots []int
		for i := range t.Spans {
			if p := t.Spans[i].Parent; p >= 0 && p < len(t.Spans) {
				children[p] = append(children[p], i)
			} else {
				roots = append(roots, i)
			}
		}
		var walk func(i, depth int)
		walk = func(i, depth int) {
			sp := &t.Spans[i]
			label := sp.Phase
			if sp.Shard >= 0 {
				label = fmt.Sprintf("%s [shard %d]", sp.Phase, sp.Shard)
			}
			fmt.Fprintf(&b, "    %s%-24s %v", strings.Repeat("  ", depth), label, sp.Duration)
			if sp.Nodes > 0 || sp.Leaves > 0 || sp.PageReads > 0 || sp.PageHits > 0 {
				fmt.Fprintf(&b, "  nodes=%d leaves=%d reads=%d cached=%d results=%d",
					sp.Nodes, sp.Leaves, sp.PageReads, sp.PageHits, sp.Results)
			}
			b.WriteByte('\n')
			for _, c := range children[i] {
				walk(c, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 0)
		}
	}
	return b.String()
}

// newRecorder builds the flight recorder configured in opts (nil when
// disabled).  The slow threshold defaults to SlowOpThreshold when set,
// else 10ms.
func newRecorder(opts Options) *obs.Recorder {
	if opts.FlightRecorder <= 0 {
		return nil
	}
	slow := opts.FlightSlowThreshold
	if slow <= 0 {
		slow = opts.SlowOpThreshold
	}
	if slow <= 0 {
		slow = 10 * time.Millisecond
	}
	return obs.NewRecorder(opts.FlightRecorder, slow)
}

// convTraces converts a recorder snapshot back to traces.
func convTraces(vs []any) []*QueryTrace {
	out := make([]*QueryTrace, 0, len(vs))
	for _, v := range vs {
		if t, ok := v.(*QueryTrace); ok {
			out = append(out, t)
		}
	}
	return out
}

// traceHandler serves a recorder's retained traces as JSON.
func traceHandler(rec *obs.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if rec == nil {
			w.Write([]byte(`{"enabled":false,"recent":[],"slow":[]}` + "\n"))
			return
		}
		recent, slow := rec.Snapshot()
		resp := struct {
			Enabled       bool          `json:"enabled"`
			SlowThreshold int64         `json:"slow_threshold_ns"`
			Recent        []*QueryTrace `json:"recent"`
			Slow          []*QueryTrace `json:"slow"`
		}{true, int64(rec.SlowThreshold()), convTraces(recent), convTraces(slow)}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}

// ---------------------------------------------------------------------
// EXPLAIN API.  Every query runs through one internal function per
// query type and front end, taking a trace that is nil unless EXPLAIN
// or the flight recorder asks for it; the public methods differ only
// in whether they force a trace.

// observeQuery runs one query, observing it in the metrics and handing
// its trace to the flight recorder like any other operation.  run gets
// a fresh trace when explain is set or a recorder is attached, and nil
// otherwise.
func observeQuery(m *obs.Metrics, rec *obs.Recorder, op obs.Op, explain bool, run func(tc *QueryTrace) ([]Result, error)) ([]Result, *QueryTrace, error) {
	var tc *QueryTrace
	if explain || rec != nil {
		tc = newTrace(op.String())
	}
	start := time.Now()
	res, err := run(tc)
	d := time.Since(start)
	m.ObserveOp(op, d, err)
	tc.finishRecord(rec, len(res), d, err)
	return res, tc, err
}

// TraceWindow runs Window and returns its execution trace alongside
// the results.  The traversal and results are identical to Window (the
// trace only observes); the operation is observed in the metrics and
// flight recorder like any other.
func (tr *Tree) TraceWindow(r Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(tr.m, tr.rec, obs.OpWindow, true, func(tc *QueryTrace) ([]Result, error) {
		return tr.window(r, t1, t2, now, tc)
	})
}

// TraceTimeslice runs Timeslice and returns its execution trace; see
// TraceWindow.
func (tr *Tree) TraceTimeslice(r Rect, at, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(tr.m, tr.rec, obs.OpTimeslice, true, func(tc *QueryTrace) ([]Result, error) {
		return tr.timeslice(r, at, now, tc)
	})
}

// TraceMoving runs Moving and returns its execution trace; see
// TraceWindow.
func (tr *Tree) TraceMoving(r1, r2 Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(tr.m, tr.rec, obs.OpMoving, true, func(tc *QueryTrace) ([]Result, error) {
		return tr.moving(r1, r2, t1, t2, now, tc)
	})
}

// TraceNearest runs Nearest and returns its execution trace; see
// TraceWindow.
func (tr *Tree) TraceNearest(pos Vec, at float64, k int, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(tr.m, tr.rec, obs.OpNearest, true, func(tc *QueryTrace) ([]Result, error) {
		return tr.nearest(pos, at, k, now, tc)
	})
}

// searchSpansAt runs one search, timing the lock wait and traversal
// into the preallocated spans lockIdx and travIdx (so concurrent shard
// goroutines never append to the shared trace).  Untraced (tc nil), it
// collects no traversal accounting and so does no extra timing.
func (tr *Tree) searchSpansAt(q geom.Query, now float64, tc *QueryTrace, lockIdx, travIdx int) ([]Result, error) {
	var (
		rs  []core.Result
		err error
		st  *core.TravStats
	)
	if tc != nil {
		st = new(core.TravStats)
	}
	if tr.snapshotReads() {
		tc.startAt(travIdx)
		rs, err = tr.t.SearchSnapStats(q, now, st)
		tc.endAt(travIdx)
		tc.setEpochPin(lockIdx, travIdx, st)
	} else {
		tc.startAt(lockIdx)
		tr.rlock()
		tc.endAt(lockIdx)
		defer tr.mu.RUnlock()
		tc.startAt(travIdx)
		rs, err = tr.t.SearchStats(q, now, st)
		tc.endAt(travIdx)
	}
	tc.setTrav(travIdx, st, len(rs))
	if err != nil {
		return nil, err
	}
	return fromResults(rs, now, tr.dims), nil
}

// nearestSpansAt is searchSpansAt for the nearest-neighbor traversal.
// The caller must have validated the query time.
func (tr *Tree) nearestSpansAt(pos Vec, at float64, k int, now float64, tc *QueryTrace, lockIdx, travIdx int) ([]Result, error) {
	var (
		rs  []core.Result
		err error
		st  *core.TravStats
	)
	if tc != nil {
		st = new(core.TravStats)
	}
	if tr.snapshotReads() {
		tc.startAt(travIdx)
		rs, err = tr.t.NearestSnapStats(geom.Vec(pos), at, k, now, st)
		tc.endAt(travIdx)
		tc.setEpochPin(lockIdx, travIdx, st)
	} else {
		tc.startAt(lockIdx)
		tr.rlock()
		tc.endAt(lockIdx)
		defer tr.mu.RUnlock()
		tc.startAt(travIdx)
		rs, err = tr.t.NearestStats(geom.Vec(pos), at, k, now, st)
		tc.endAt(travIdx)
	}
	tc.setTrav(travIdx, st, len(rs))
	if err != nil {
		return nil, err
	}
	return fromResults(rs, now, tr.dims), nil
}

// Traces returns the flight recorder's retained traces, newest first.
// Both slices are nil when the recorder is disabled
// (Options.FlightRecorder == 0).
func (tr *Tree) Traces() (recent, slow []*QueryTrace) {
	if tr.rec == nil {
		return nil, nil
	}
	r, s := tr.rec.Snapshot()
	return convTraces(r), convTraces(s)
}

// TraceHandler returns an http.Handler serving the flight recorder's
// retained traces as JSON, for mounting at /debug/rexp/traces next to
// MetricsHandler.
func (tr *Tree) TraceHandler() http.Handler {
	return traceHandler(tr.rec)
}

// TraceWindow runs Window across the shards and returns the execution
// trace: the per-shard pruning table and the span tree covering
// routing, per-shard queue wait, lock wait and traversal, and the
// result merge.  Results are identical to Window.
func (s *ShardedTree) TraceWindow(r Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(s.m, s.rec, obs.OpWindow, true, func(tc *QueryTrace) ([]Result, error) {
		return s.window(r, t1, t2, now, tc)
	})
}

// TraceTimeslice runs Timeslice across the shards and returns the
// execution trace; see TraceWindow.
func (s *ShardedTree) TraceTimeslice(r Rect, at, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(s.m, s.rec, obs.OpTimeslice, true, func(tc *QueryTrace) ([]Result, error) {
		return s.timeslice(r, at, now, tc)
	})
}

// TraceMoving runs Moving across the shards and returns the execution
// trace; see TraceWindow.
func (s *ShardedTree) TraceMoving(r1, r2 Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(s.m, s.rec, obs.OpMoving, true, func(tc *QueryTrace) ([]Result, error) {
		return s.moving(r1, r2, t1, t2, now, tc)
	})
}

// TraceNearest runs Nearest across the shards and returns the
// execution trace; the pruning table records the distance-ordered
// visits and prunes.  See TraceWindow.
func (s *ShardedTree) TraceNearest(pos Vec, at float64, k int, now float64) ([]Result, *QueryTrace, error) {
	return observeQuery(s.m, s.rec, obs.OpNearest, true, func(tc *QueryTrace) ([]Result, error) {
		return s.nearest(pos, at, k, now, tc)
	})
}

// traceShards starts tc's pruning table: one row per shard of g, with
// reason as the default decision.  A nil trace keeps no table.
func (s *ShardedTree) traceShards(tc *QueryTrace, g *generation, reason string) {
	if tc == nil {
		return
	}
	tc.Shards = make([]ShardTrace, len(g.shards))
	for i := range tc.Shards {
		tc.Shards[i] = ShardTrace{Shard: i, Band: s.bandLabel(g, i), Reason: reason}
	}
}

// Traces returns the sharded front end's flight-recorder traces,
// newest first; see Tree.Traces.  (Each shard additionally records its
// own operations when the recorder is enabled; this is the fan-out
// view.)
func (s *ShardedTree) Traces() (recent, slow []*QueryTrace) {
	if s.rec == nil {
		return nil, nil
	}
	r, sl := s.rec.Snapshot()
	return convTraces(r), convTraces(sl)
}

// TraceHandler returns an http.Handler serving the front end's flight
// recorder as JSON, for mounting at /debug/rexp/traces.
func (s *ShardedTree) TraceHandler() http.Handler {
	return traceHandler(s.rec)
}
