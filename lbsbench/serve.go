package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// run is the shared state of one benchmark run.
type run struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	log     func(format string, args ...any)

	src     *source
	preload []batch
	queries []string // query paths, used in a cycle

	// The ingest stream: batches are generated ahead of each phase and
	// consumed in order; acked[i] is batch i's final status.
	batches []batch
	acked   []int

	ingest, reader *sender
	nextBatch      int
	nextQuery      int
	lastStart      time.Time // start of the latest phase

	attempted, failed int

	mu       sync.Mutex
	failures []string // the first few request failures, for the report
}

func newRun(spec *workloadSpec, seed int64, seconds float64, logf func(string, ...any)) (*run, error) {
	src, err := newSource(spec, seed)
	if err != nil {
		return nil, err
	}
	pre, err := src.preload(1000)
	if err != nil {
		return nil, err
	}
	qs, err := queryPool(spec, seed, 8192)
	if err != nil {
		return nil, err
	}
	return &run{spec: spec, seed: seed, seconds: seconds, log: logf, src: src, preload: pre, queries: qs}, nil
}

// secs is share of the run's -seconds.
func (r *run) secs(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

func (r *run) preloadReports() int {
	n := 0
	for _, b := range r.preload {
		n += len(b.recs)
	}
	return n
}

// connect points the two streams at a server.
func (r *run) connect(base string) {
	r.ingest = &sender{client: newClient(), base: base}
	r.reader = &sender{client: newClient(), base: base}
}

// load sends the preload bodies back to back.
func (r *run) load() error {
	for i, b := range r.preload {
		var o outcome
		r.ingest.postBatch(-1, b.body, &o)
		if !o.ok() {
			return fmt.Errorf("preload body %d: status %d: %s", i, o.status, bytes.TrimSpace(r.ingest.buf.Bytes()))
		}
	}
	return nil
}

// ensureBatches generates the ingest stream ahead to at least n
// batches past the current position, outside any timed window.
func (r *run) ensureBatches(n int) error {
	need := r.nextBatch + n - len(r.batches)
	if need <= 0 {
		return nil
	}
	bs, err := r.src.batches(need, r.spec.BatchSize)
	if err != nil {
		return err
	}
	r.batches = append(r.batches, bs...)
	r.acked = append(r.acked, make([]int, need)...)
	return nil
}

// phase runs both streams open-loop for dur at the given rates (reports
// and queries per second) and returns their outcomes.  abort > 0 stops
// a stream that falls more than abort behind its schedule.
func (r *run) phase(dur time.Duration, reportRate, queryRate float64, abort time.Duration) (ing, qry []outcome, err error) {
	batchRate := reportRate / float64(r.spec.BatchSize)
	grace := 2 * time.Second
	if err := r.ensureBatches(int(batchRate*dur.Seconds()) + 1); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	r.lastStart = start
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := schedule{start: start, rate: batchRate, end: dur, cut: dur + grace, abortLag: abort}
		ing, _ = s.run(r.nextBatch, func(i int, o *outcome) {
			r.ingest.postBatch(i, r.batches[i].body, o)
			r.acked[i] = o.status
			r.noteFailure(r.ingest.failure)
		})
	}()
	go func() {
		defer wg.Done()
		s := schedule{start: start, rate: queryRate, end: dur, cut: dur + grace, abortLag: abort}
		qry, _ = s.run(r.nextQuery, func(i int, o *outcome) {
			r.reader.getQuery(i, r.queries[i%len(r.queries)], o)
			r.noteFailure(r.reader.failure)
		})
	}()
	wg.Wait()
	for _, o := range ing {
		if !o.unsent {
			r.nextBatch++
		}
	}
	for _, o := range qry {
		if !o.unsent {
			r.nextQuery++
		}
	}
	return ing, qry, nil
}

// noteFailure keeps the first few request failures for the report.
func (r *run) noteFailure(msg string) {
	if msg == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
		r.log("request failed: %s", msg)
	}
}

// count adds a phase's requests to the run's attempted/failed totals.
func (r *run) count(outs ...[]outcome) {
	for _, os := range outs {
		st := reduce(os)
		r.attempted += st.attempted + st.unsent
		r.failed += st.failed + st.unsent
	}
}

// step is one probe of a capacity ladder.
type step struct {
	Rate    float64 `json:"rate"`
	TailP   float64 `json:"tail_percentile"`
	TailMs  float64 `json:"tail_ms"`
	N       int     `json:"n"`
	Backlog int     `json:"backlog"`
	Pass    bool    `json:"pass"`
}

// capacity walks a fixed ascending rate ladder for its highest step
// that meets the latency limit with no growing backlog, varying one
// stream (reports when forReports, else queries) while the other keeps
// its fixed workload rate.  The walk starts at the highest step not
// above est, climbs while steps pass and descends while they fail, for
// at most maxProbes probes; it returns 0 when every probed step failed.
func (r *run) capacity(forReports bool, steps []float64, limitMs, est float64, probe time.Duration, maxProbes int) (float64, []step, error) {
	i := 0
	for i+1 < len(steps) && steps[i+1] <= est {
		i++
	}
	best := -1
	var probes []step
	for dir := 0; len(probes) < maxProbes && i >= 0 && i < len(steps); {
		s, err := r.probe(forReports, steps[i], limitMs, probe)
		if err != nil {
			return 0, probes, err
		}
		probes = append(probes, s)
		if dir == 0 {
			dir = 1
			if !s.Pass {
				dir = -1
			}
		}
		if s.Pass {
			best = i
			if dir < 0 {
				break // descending: the first pass is the answer
			}
		} else if dir > 0 {
			break // climbing: the first failure ends the walk
		}
		i += dir
	}
	if best < 0 {
		return 0, probes, nil
	}
	return steps[best], probes, nil
}

// probe runs one ladder step and judges it.
func (r *run) probe(forReports bool, rate, limitMs float64, dur time.Duration) (step, error) {
	rr, qr := r.spec.ReportRate, r.spec.QueryRate
	perReq := float64(r.spec.BatchSize)
	if forReports {
		rr = rate
	} else {
		qr, perReq = rate, 1
	}
	abort := max(time.Duration(5*limitMs)*time.Millisecond, 500*time.Millisecond)
	ing, qry, err := r.phase(dur, rr, qr, abort)
	if err != nil {
		return step{}, err
	}
	// Probes overload the server on purpose: only the requests they
	// sent count as attempted.
	for _, os := range [][]outcome{ing, qry} {
		st := reduce(os)
		r.attempted += st.attempted
		r.failed += st.failed
	}
	outs := qry
	if forReports {
		outs = ing
	}
	st := reduce(outs)
	s := step{Rate: rate, TailP: st.lat.TailP, TailMs: st.lat.Tail, N: st.lat.N, Backlog: st.unsent}
	// A backlog worth more than the latency limit is growing.
	maxBacklog := 1 + int(rate/perReq*limitMs/1000)
	s.Pass = st.failed == 0 && st.lat.Tail <= limitMs && st.unsent <= maxBacklog
	r.log("  ladder %s %.0f/s: tail p%g %.2f ms (n=%d, backlog %d) pass=%v",
		map[bool]string{true: "reports", false: "queries"}[forReports], rate, s.TailP, s.TailMs, s.N, s.Backlog, s.Pass)
	// Let an overloaded server finish its backlog before the next probe.
	time.Sleep(200 * time.Millisecond)
	return s, nil
}

// workDir returns a fresh directory for a durable index.
func workDir(root string, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// quiet waits until the server answers a stats request, after the
// streams have joined, so the clock read next is final.
func quiet(c *http.Client, base string) (stats, error) {
	time.Sleep(100 * time.Millisecond)
	return fetchStats(c, base)
}
