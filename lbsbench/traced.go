package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rexptree"
	"rexptree/internal/repl"
	"rexptree/internal/server"
)

// span is one timed interval of the traced run.  Names: client/<class>
// and server/<class> per request (class update or query), fanout/<op>
// for the ShardedTree front end and shard<i>/<op> for one shard, both
// from the public Options.SlowOp hook.
type span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"` // offset from the tracer's epoch
	End   time.Duration `json:"end_ns"`
	Req   int           `json:"req"` // client and server spans: stream position; -1 otherwise
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer wraps the in-process server: it times Server.ServeHTTP, labels
// the handling goroutine for the CPU profile, and collects the SlowOp
// spans.  Spans stay in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	inner http.Handler

	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// slowOp is installed as Options.SlowOp with a 1ns threshold, so it
// sees every front-end and shard operation when it ends.
func (t *tracer) slowOp(op string, d time.Duration) {
	end := t.now()
	t.add(span{Name: op, Start: end - d, End: end, Req: -1})
}

func (t *tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(reqHeader)
	class := "other"
	req := -1
	if tag != "" {
		if tag[0] == 'u' {
			class = "update"
		} else {
			class = "query"
		}
		req, _ = strconv.Atoi(tag[1:])
	}
	start := t.now()
	pprof.Do(r.Context(), pprof.Labels("class", class), func(context.Context) {
		t.inner.ServeHTTP(w, r)
	})
	if req >= 0 {
		t.add(span{Name: "server/" + class, Start: start, End: t.now(), Req: req})
	}
}

// host is the in-process stack: ShardedTree, server.Server configured
// like rexpd's defaults, and an HTTP listener on loopback.
type host struct {
	ix    *rexptree.ShardedTree
	srv   *server.Server
	http  *http.Server
	base  string
	sopts rexptree.ShardedOptions
	done  chan struct{}
}

// openHost opens the index and serves it.  With tr set, every operation
// reports to tr through the SlowOp hook and requests pass through tr.
func openHost(spec *workloadSpec, idx string, tr *tracer) (*host, error) {
	opts := rexptree.DefaultOptions()
	opts.FlightRecorder = 256 // rexpd's default
	if spec.Durable {
		opts.Path = idx
		opts.Durability = rexptree.DurabilityOnCommit
	}
	if tr != nil {
		opts.SlowOpThreshold = time.Nanosecond
		opts.SlowOp = tr.slowOp
	}
	policy, err := rexptree.ParsePartitionPolicy(partitionOf(spec))
	if err != nil {
		return nil, err
	}
	sopts := rexptree.ShardedOptions{Options: opts, Shards: 4, Partition: policy}
	ix, err := rexptree.OpenSharded(sopts)
	if err != nil {
		return nil, err
	}
	scfg := server.Config{
		Index: ix, MaxInFlight: 4, MaxBatch: 1000, RequestTimeout: 30 * time.Second,
		RetryAfter: time.Second, Pprof: true, RuntimeMetrics: true,
	}
	durability := "none"
	if spec.Durable {
		hub := repl.NewHub(ix, repl.DefaultRetainBytes)
		scfg.Backup, scfg.WALFeed, scfg.ReplStats = hub.BackupHandler(), hub.WALHandler(), hub.Stats
		durability = "on-commit"
	}
	srv := server.New(scfg)
	srv.SetDurability(durability)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ix.Close()
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		tr.inner = srv
		h = tr
	}
	ho := &host{ix: ix, srv: srv, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), sopts: sopts, done: make(chan struct{})}
	go func() {
		defer close(ho.done)
		ho.http.Serve(ln)
	}()
	return ho, nil
}

func partitionOf(spec *workloadSpec) string {
	if spec.Partition == "" {
		return "hash"
	}
	return spec.Partition
}

// stopServing closes the listener and its connections and waits.
func (h *host) stopServing() {
	h.http.Close()
	<-h.done
}

func (h *host) close() error {
	h.stopServing()
	return h.srv.CloseIndex()
}

// scrape reads the server's /metrics through its handler.
func (h *host) scrape() (promSample, error) {
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	return parseProm(rec.Body)
}

// withLabels runs fn with the calling goroutine labelled role=<role>;
// goroutines fn starts inherit the label.
func withLabels(role string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("role", role), func(context.Context) { fn() })
}

// tracedPhase is one in-process fixed-rate phase.
type tracedPhase struct {
	ing, qry []outcome
	start    time.Time
}

// runInProcess sets up a host, preloads, warms up and runs the
// fixed-rate phase.  With tr set it also profiles the phase's CPU into
// profile and brackets it with /metrics scrapes.
func (r *run) runInProcess(idx string, tr *tracer, profile *bytes.Buffer) (h *host, ph tracedPhase, before, after promSample, setup float64, err error) {
	spec := r.spec
	if err := os.MkdirAll(filepath.Dir(idx), 0o755); err != nil {
		return nil, ph, nil, nil, 0, err
	}
	t0 := time.Now()
	withLabels("server", func() { h, err = openHost(spec, idx, tr) })
	if err != nil {
		return nil, ph, nil, nil, 0, err
	}
	withLabels("client", func() {
		r.connect(h.base)
		if tr != nil {
			r.ingest.tag, r.reader.tag = 'u', 'q'
		}
		if err = r.load(); err != nil {
			return
		}
		setup = time.Since(t0).Seconds()
		r.attempted += len(r.preload)
		_, _, err = r.phase(r.secs(warmShare), spec.ReportRate, spec.QueryRate, 0)
	})
	if err != nil {
		h.close()
		return nil, ph, nil, nil, 0, err
	}
	if before, err = h.scrape(); err != nil {
		h.close()
		return nil, ph, nil, nil, 0, err
	}
	if profile != nil {
		if err = pprof.StartCPUProfile(profile); err != nil {
			h.close()
			return nil, ph, nil, nil, 0, err
		}
	}
	withLabels("client", func() {
		ph.ing, ph.qry, err = r.phase(r.secs(fixedShare), spec.ReportRate, spec.QueryRate, 0)
		ph.start = r.lastStart
	})
	if profile != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		h.close()
		return nil, ph, nil, nil, 0, err
	}
	r.count(ph.ing, ph.qry)
	after, err = h.scrape()
	return h, ph, before, after, setup, err
}

// runTraced is the traced run: the same layers as rexpd hosted
// in-process, first untraced (the baseline for the tracing overhead),
// then with spans, the flight recorder and a CPU profile.
func runTraced(spec *workloadSpec, seed int64, seconds float64, wd string, rep *report, logf func(string, ...any)) (res result, err error) {
	dir, err := workDir(wd, fmt.Sprintf("%s-traced-%d", spec.Name, os.Getpid()))
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	// Everything the benchmark itself runs is labelled bench or client,
	// so the profile's remaining samples are the server's.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("role", "bench")))

	// Untraced baseline.
	base, err := newRun(spec, seed, seconds, logf)
	if err != nil {
		return res, err
	}
	h, bph, _, _, _, err := base.runInProcess(filepath.Join(dir, "base", "idx"), nil, nil)
	if err != nil {
		return res, err
	}
	if err := h.close(); err != nil {
		return res, err
	}
	bi, bq := reduce(bph.ing), reduce(bph.qry)
	logf("untraced in-process: update p50 %.2f ms, query p50 %.2f ms", bi.lat.P50, bq.lat.P50)

	// Traced run.
	r, err := newRun(spec, seed, seconds, logf)
	if err != nil {
		return res, err
	}
	tr := &tracer{epoch: time.Now()}
	var prof bytes.Buffer
	idx := filepath.Join(dir, "traced", "idx")
	h, ph, before, after, setup, err := r.runInProcess(idx, tr, &prof)
	if err != nil {
		return res, err
	}
	defer func() {
		if h != nil {
			h.close()
		}
	}()
	logf("traced in-process: set-up %.3f s", setup)
	recent, slow := h.ix.Traces()
	st, err := fetchStats(newClient(), h.base)
	if err != nil {
		return res, err
	}

	res = result{Metrics: map[string]metric{}}
	m := layerMetrics{res: res.Metrics, rep: rep}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	m.compute(r, ph, spans, before, after, st, bi, bq)
	if err := m.cpu(prof.Bytes(), r, ph); err != nil {
		return res, err
	}
	m.recorder(append(recent, slow...))

	ok, err := r.gate(h.base, rep)
	if err != nil {
		return res, err
	}
	res.Correct = ok

	recovery := 0.0
	if spec.Durable {
		h.stopServing()
		h.ix.Abandon()
		t0 := time.Now()
		ix, err := rexptree.OpenSharded(h.sopts)
		if err != nil {
			return res, fmt.Errorf("reopen after abandon: %w", err)
		}
		recovery = time.Since(t0).Seconds()
		h = nil
		if err := ix.Close(); err != nil {
			return res, err
		}
		logf("recovery after an abandoned (crashed) index: %.3f s", recovery)
	} else {
		rep.note("wal.* and repl.* are 0: %s keeps no WAL and feeds no replicas", spec.Name)
	}
	m.set("wal.recovery_s", recovery, "s")

	if err := writeSpans(filepath.Join(wd, fmt.Sprintf("spans-%s-%d.jsonl", spec.Name, seed)), ph, tr.epoch, spans); err != nil {
		return res, err
	}
	res.Attempted, res.Failed = r.attempted+base.attempted, r.failed+base.failed
	rep.detail("failures", append(base.failures, r.failures...))
	return res, nil
}

// writeSpans writes the client spans (due to response) and every
// recorded span as JSON lines.
func writeSpans(path string, ph tracedPhase, epoch time.Time, spans []span) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	off := ph.start.Sub(epoch)
	for _, cs := range clientSpans(ph, off) {
		enc.Encode(cs)
	}
	for _, s := range spans {
		enc.Encode(s)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// clientSpans turns the phase's outcomes into client spans from due
// time to response, keyed by stream position.
func clientSpans(ph tracedPhase, off time.Duration) []span {
	var out []span
	for _, o := range ph.ing {
		if !o.unsent {
			out = append(out, span{Name: "client/update", Start: off + o.due, End: off + o.done, Req: o.pos})
		}
	}
	for _, o := range ph.qry {
		if !o.unsent {
			out = append(out, span{Name: "client/query", Start: off + o.due, End: off + o.done, Req: o.pos})
		}
	}
	return out
}

// layerMetrics fills the per-layer metrics of a traced run.
type layerMetrics struct {
	res map[string]metric
	rep *report
}

func (m layerMetrics) set(name string, v float64, unit string) { m.res[name] = metric{v, unit} }

// index groups spans by name, sorted by start, for containment lookups.
type index map[string][]span

func newIndex(spans []span) index {
	ix := index{}
	for _, s := range spans {
		ix[s.Name] = append(ix[s.Name], s)
	}
	for _, ss := range ix {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	return ix
}

// slack absorbs the hook firing a moment after the operation's own end.
const slack = 200 * time.Microsecond

// within returns the spans named name that lie inside parent.
func (ix index) within(name string, parent span) []span {
	ss := ix[name]
	i := sort.Search(len(ss), func(i int) bool { return ss[i].Start >= parent.Start-slack })
	var out []span
	for ; i < len(ss) && ss[i].Start <= parent.End; i++ {
		if ss[i].End <= parent.End+slack {
			out = append(out, ss[i])
		}
	}
	return out
}

// covered returns how much of parent the children cover.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total time.Duration
	cur := span{Start: -1, End: -1}
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > cur.End {
			if cur.End > cur.Start {
				total += cur.End - cur.Start
			}
			cur = span{Start: s, End: e}
		} else if e > cur.End {
			cur.End = e
		}
	}
	if cur.End > cur.Start {
		total += cur.End - cur.Start
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// compute derives the span, counter and load-generator metrics.
func (m layerMetrics) compute(r *run, ph tracedPhase, spans []span, before, after promSample, st stats, bi, bq streamStats) {
	spec := r.spec
	d := after.sub(before)
	is, qs := reduce(ph.ing), reduce(ph.qry)
	batches := float64(is.completed)
	reports := batches * float64(spec.BatchSize)
	queries := float64(qs.completed)
	ops := batches + queries
	phaseS := r.secs(fixedShare).Seconds()

	// loadgen: validity of the open loop.
	m.set("loadgen.lag_p99_ms", summarize(append(is.lagMs, qs.lagMs...)).at(99), "ms")
	m.set("loadgen.offered_per_s", float64(len(ph.ing)+len(ph.qry))/phaseS, "1/s")
	m.set("loadgen.achieved_per_s", ops/phaseS, "1/s")

	ix := newIndex(spans)
	servers := map[string]map[int]span{"update": {}, "query": {}}
	for _, class := range []string{"update", "query"} {
		for _, s := range ix["server/"+class] {
			servers[class][s.Req] = s
		}
	}
	// wire: client send-to-response minus the server's own span.
	var wireU, wireQ []float64
	for _, o := range ph.ing {
		if s, ok := servers["update"][o.pos]; ok && o.ok() {
			wireU = append(wireU, ms(o.done-o.sent-s.dur()))
		}
	}
	for _, o := range ph.qry {
		if s, ok := servers["query"][o.pos]; ok && o.ok() {
			wireQ = append(wireQ, ms(o.done-o.sent-s.dur()))
		}
	}
	m.set("wire.update_ms_mean", mean(wireU), "ms")
	m.set("wire.query_ms_mean", mean(wireQ), "ms")

	// server self time: the request span minus the front-end call.
	var updSelf time.Duration
	var fanoutsU []span
	for _, s := range servers["update"] {
		fs := ix.within("fanout/update_batch", s)
		updSelf += s.dur() - covered(s, fs)
		fanoutsU = append(fanoutsU, fs...)
	}
	var qSelf []float64
	var fanoutsQ []span
	for _, s := range servers["query"] {
		var fs []span
		for _, k := range queryKinds {
			fs = append(fs, ix.within("fanout/"+k, s)...)
		}
		qSelf = append(qSelf, us(s.dur()-covered(s, fs)))
		fanoutsQ = append(fanoutsQ, fs...)
	}
	m.set("server.update_self_us_per_report", ratio(us(updSelf), float64(len(servers["update"])*spec.BatchSize)), "us")
	m.set("server.query_self_us", mean(qSelf), "us")
	rejected := 0
	for _, o := range append(append([]outcome(nil), ph.ing...), ph.qry...) {
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
	}
	m.set("server.rejected_429", float64(rejected), "count")
	m.set("server.results_per_query", ratio(float64(qs.results), queries), "results")

	// rexptree front end.
	var ub []float64
	for _, f := range fanoutsU {
		ub = append(ub, ms(f.dur()))
	}
	us1 := summarize(ub)
	m.set("rexptree.update_batch_ms_mean", us1.Mean, "ms")
	m.set("rexptree.update_batch_ms_p99", us1.Tail, "ms")
	for _, k := range queryKinds {
		var xs []float64
		for _, f := range fanoutsQ {
			if f.Name == "fanout/"+k {
				xs = append(xs, ms(f.dur()))
			}
		}
		m.set("rexptree.query_ms_mean."+k, mean(xs), "ms")
	}
	var fanSelf, skews, shardUB []float64
	shardsOf := func(f span) []span {
		op := strings.TrimPrefix(f.Name, "fanout/")
		var out []span
		for i := 0; i < 16; i++ {
			out = append(out, ix.within(fmt.Sprintf("shard%d/%s", i, op), f)...)
		}
		return out
	}
	for _, f := range fanoutsQ {
		fanSelf = append(fanSelf, ms(f.dur()-covered(f, shardsOf(f))))
	}
	for _, f := range append(append([]span(nil), fanoutsU...), fanoutsQ...) {
		ch := shardsOf(f)
		if f.Name == "fanout/update_batch" {
			for _, c := range ch {
				shardUB = append(shardUB, ms(c.dur()))
			}
		}
		if len(ch) >= 2 {
			var mx, sum time.Duration
			for _, c := range ch {
				sum += c.dur()
				mx = max(mx, c.dur())
			}
			if sum > 0 {
				skews = append(skews, float64(mx)/(float64(sum)/float64(len(ch))))
			}
		}
	}
	m.set("rexptree.fanout_self_ms", mean(fanSelf), "ms")
	m.set("rexptree.shard_skew", mean(skews), "ratio")
	m.set("rexptree.queue_wait_ms_per_op", ratio(1e3*d.get(`rexp_phase_duration_seconds_sum{phase="queue_wait"}`), ops), "ms")
	m.set("rexptree.lock_wait_read_ms_per_op", ratio(1e3*d.get(`rexp_lock_wait_seconds_sum{mode="read"}`), ops), "ms")
	m.set("rexptree.lock_wait_write_ms_per_op", ratio(1e3*d.get(`rexp_lock_wait_seconds_sum{mode="write"}`), ops), "ms")
	m.set("rexptree.merge_us_per_query", ratio(1e6*d.get(`rexp_phase_duration_seconds_sum{phase="merge"}`), queries), "us")
	visits, pruned := d.get("rexp_query_shard_visits_total"), d.get("rexp_query_shards_pruned_total")
	m.set("rexptree.shard_visits_per_query", ratio(visits, queries), "shards")
	m.set("rexptree.shards_pruned_ratio", ratio(pruned, visits+pruned), "ratio")
	m.set("rexptree.rerouted_per_report", ratio(d.get("rexp_partition_rerouted_total"), reports), "objects")

	// core.
	per1k := func(series string) float64 { return ratio(1000*d.get(series), reports) }
	perReport := func(series string) float64 { return ratio(d.get(series), reports) }
	m.set("core.shard_update_batch_ms_mean", mean(shardUB), "ms")
	m.set("core.choose_subtree_per_report", perReport("rexp_choose_subtree_total"), "steps")
	m.set("core.splits_per_1k_reports", per1k("rexp_split_total"), "count")
	m.set("core.forced_reinserts_per_1k_reports", per1k("rexp_forced_reinsert_total"), "count")
	m.set("core.purged_per_report", perReport("rexp_expired_purged_total"), "entries")
	m.set("core.condenses_per_1k_reports", per1k("rexp_condense_total"), "count")
	m.set("core.subtrees_freed_per_1k_reports", per1k("rexp_subtree_freed_total"), "count")
	m.set("core.snapshot_publishes_per_report", perReport("rexp_snapshot_publishes_total"), "count")
	m.set("core.versions_trimmed_per_report", perReport("rexp_snapshot_versions_trimmed_total"), "count")
	m.set("core.leaf_scan_precision", ratio(float64(qs.results), d.get("rexp_query_leaf_entries_scanned_total")), "ratio")
	hits, misses := d.get("rexp_snapshot_node_hits_total"), d.get("rexp_snapshot_node_misses_total")
	m.set("core.snapshot_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("core.height", float64(st.Height), "levels")
	m.set("core.horizon", after.get("rexp_horizon"), "time")

	// storage.
	bh, br := d.get("rexp_buffer_hits_total"), d.get("rexp_buffer_reads_total")
	m.set("storage.hit_ratio", ratio(bh, bh+br), "ratio")
	m.set("storage.evictions_per_report", perReport("rexp_buffer_evictions_total"), "pages")
	m.set("storage.dirty_writebacks_per_report", perReport("rexp_buffer_dirty_writebacks_total"), "pages")
	m.set("storage.io_read_ms_sum", 1e3*d.get(`rexp_phase_duration_seconds_sum{phase="io_read"}`), "ms")
	m.set("storage.io_write_ms_sum", 1e3*d.get(`rexp_phase_duration_seconds_sum{phase="io_write"}`), "ms")

	// wal and replication.
	m.set("wal.bytes_per_report", perReport("rexp_wal_bytes_total"), "B")
	m.set("wal.fsyncs_per_request", ratio(d.get("rexp_wal_fsyncs_total"), batches), "count")
	m.set("wal.fsync_ms_mean", ratio(1e3*d.get(`rexp_phase_duration_seconds_sum{phase="wal_fsync"}`), d.get(`rexp_phase_duration_seconds_count{phase="wal_fsync"}`)), "ms")
	m.set("wal.checkpoints_per_1k_reports", per1k("rexp_checkpoints_total"), "count")
	m.set("wal.checkpoint_ms_p99", 1e3*histQuantile(d, `rexp_phase_duration_seconds_bucket{phase="checkpoint",`, 0.99), "ms")
	m.set("repl.feed_bytes_per_report", perReport("rexp_repl_feed_bytes_total"), "B")

	// process: runtime quantiles are cumulative over the process.
	m.set("process.gc_pause_p99_ms", 1e3*after.get(`rexp_go_gc_pause_seconds{quantile="0.99"}`), "ms")
	m.set("process.sched_latency_p99_ms", 1e3*after.get(`rexp_go_sched_latency_seconds{quantile="0.99"}`), "ms")

	// Tracing overhead: traced over untraced end-to-end medians.
	m.set("tracing.update_p50_ratio", ratio(is.lat.P50, bi.lat.P50), "ratio")
	m.set("tracing.query_p50_ratio", ratio(qs.lat.P50, bq.lat.P50), "ratio")
	m.rep.detail("traced_end_to_end", map[string]any{
		"update_p50_ms": is.lat.P50, "update_tail_ms": is.lat.Tail, "query_p50_ms": qs.lat.P50, "query_tail_ms": qs.lat.Tail,
		"untraced_update_p50_ms": bi.lat.P50, "untraced_update_tail_ms": bi.lat.Tail,
		"untraced_query_p50_ms": bq.lat.P50, "untraced_query_tail_ms": bq.lat.Tail,
		"spans": len(spans),
	})
}

// histQuantile estimates quantile q of a cumulative histogram delta as
// the upper bound of the bucket holding it (0 when empty).
func histQuantile(d promSample, prefix string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range d {
		if !strings.HasPrefix(k, prefix+`le="`) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix+`le="`), `"}`)
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{f, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 {
		return 0
	}
	total := d[prefix+`le="+Inf"}`]
	if total == 0 {
		return 0
	}
	for _, b := range bs {
		if b.n >= q*total {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}

// cpu attributes the server's CPU samples to layers and to the two
// request classes.
func (m layerMetrics) cpu(prof []byte, r *run, ph tracedPhase) error {
	samples, err := parseCPUProfile(prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total, upd, qry, shared int64
	for _, s := range samples {
		if role := s.labels["role"]; role == "client" || role == "bench" {
			continue
		}
		total += s.nanos
		byLayer[layerOf(s.stack)] += s.nanos
		switch s.labels["class"] {
		case "update":
			upd += s.nanos
		case "query":
			qry += s.nanos
		default:
			shared += s.nanos
		}
	}
	if total == 0 {
		return errors.New("cpu profile: no server samples")
	}
	for _, l := range cpuLayers {
		m.set("cpu.share."+l, float64(byLayer[l])/float64(total), "ratio")
	}
	// Unlabelled server time (GC, background goroutines) is split in
	// proportion to the labelled time of each class.
	if upd+qry > 0 {
		upd += shared * upd / (upd + qry)
		qry = total - upd
	}
	is, qs := reduce(ph.ing), reduce(ph.qry)
	m.set("process.cpu_us_per_report", ratio(float64(upd)/1e3, float64(is.completed*r.spec.BatchSize)), "us")
	m.set("process.cpu_us_per_query", ratio(float64(qry)/1e3, float64(qs.completed)), "us")
	m.rep.detail("cpu_profile", map[string]any{"server_cpu_s": float64(total) / 1e9, "samples": len(samples)})
	return nil
}

// recorderPhases are the flight-recorder span phases reported per
// retained operation.
var recorderPhases = []string{"lock-wait", "epoch-pin", "version-publish", "wal-append", "wal-fsync", "checkpoint"}

// recorder averages the flight recorder's phase times over the
// operations it retained.
func (m layerMetrics) recorder(traces []*rexptree.QueryTrace) {
	sums := map[string]time.Duration{}
	for _, t := range traces {
		for _, s := range t.Spans {
			sums[s.Phase] += s.Duration
		}
	}
	for _, p := range recorderPhases {
		name := "recorder." + strings.ReplaceAll(p, "-", "_") + "_us_per_op"
		m.set(name, ratio(us(sums[p]), float64(len(traces))), "us")
		if sums[p] == 0 {
			m.rep.note("%s is 0: no %s span in the %d retained traces (the front-end recorder keeps the fan-out view; "+
				"shard recorders are not reachable through ShardedTree's public API)", name, p, len(traces))
		}
	}
	m.rep.detail("recorder_traces", len(traces))
}
