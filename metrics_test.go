package rexptree

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the sharded exposition golden file")

// histTimingRe matches the histogram sample lines whose values depend
// on wall-clock timing: every cumulative bucket and every _sum.
var histTimingRe = regexp.MustCompile(`^\S+(_bucket\{.*\}|_sum(\{.*\})?) \S+$`)

// TestShardedExpositionGolden pins the multi-section exposition of a
// ShardedTree — the aggregate under rexp_ and one section per shard —
// after a fixed-seed workload on an in-memory, 3-shard,
// speed-partitioned index: batched and single updates (some crossing a
// speed band, so they re-route), deletes, every query type, and a live
// reshard followed by more traffic on the new generation.  The
// aggregation rules (summed, max and min gauges, front-end-only
// families, the folded fan-out phases) all show in the file.
// Histogram buckets and sums depend on timing and are dropped; their
// counts are deterministic and stay.
func TestShardedExpositionGolden(t *testing.T) {
	opts := DefaultOptions()
	opts.BufferPages = 12 // small enough that the pools evict and write back
	s, err := OpenSharded(ShardedOptions{Options: opts, Shards: 3, Workers: 1, Partition: PartitionSpeed, SpeedBands: []float64{0.7, 1.4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	world := Rect{Hi: Vec{1000, 1000}}
	if err := s.UpdateBatch(testWorkload(1500, 7), 0); err != nil {
		t.Fatal(err)
	}
	for i, r := range testWorkload(200, 8) {
		r.Point.Time, r.Point.Expires = 1, 200
		if err := s.Update(r.ID, r.Point, 1); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for id := uint32(1); id <= 40; id += 3 {
		if _, err := s.Delete(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	queries := func(now float64) {
		t.Helper()
		for q := 0; q < 4; q++ {
			x := float64(q) * 200
			r := Rect{Lo: Vec{x, x}, Hi: Vec{x + 150, x + 150}}
			if _, err := s.Timeslice(r, now+5, now); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Window(r, now, now+10, now); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Moving(r, Rect{Lo: Vec{x + 50, x}, Hi: Vec{x + 250, x + 150}}, now, now+20, now); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Nearest(Vec{x + 75, x + 75}, now+1, 5, now); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Timeslice(world, now+1, now); err != nil {
			t.Fatal(err)
		}
	}
	queries(2)
	if err := s.Reshard(ReshardSpec{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{0.5, 1.2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateBatch(testWorkload(300, 9), 3); err != nil {
		t.Fatal(err)
	}
	queries(3)

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !histTimingRe.MatchString(strings.TrimSuffix(line, "\n")) {
			out.WriteString(line)
		}
	}
	golden := filepath.Join("testdata", "sharded_exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if out.String() != string(want) {
		t.Errorf("sharded exposition differs from %s (run with -update after intended changes)\ngot:\n%s", golden, out.String())
	}
}

func TestMetricsSnapshotDelta(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	for i := 0; i < 100; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i * 10 % 1000), 500}, Time: 0, Expires: 1000}, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Metrics()
	if before.Ops[0].Op != "update" || before.Ops[0].Count != 100 {
		t.Fatalf("update op = %+v, want 100 calls", before.Ops[0])
	}
	if before.LeafEntries != 100 || before.Height < 1 || before.Pages < 2 {
		t.Fatalf("gauges = height %d, pages %d, leaf entries %d", before.Height, before.Pages, before.LeafEntries)
	}

	for i := 0; i < 50; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i * 7 % 1000), 400}, Time: 1, Expires: 1000}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Timeslice(world, 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Window(world, 2, 10, 2); err != nil {
		t.Fatal(err)
	}
	after := tr.Metrics()
	d := after.Sub(before)

	if got, _ := d.Op("update"); got.Count != 50 {
		t.Errorf("delta update count = %d, want 50", got.Count)
	}
	if got, _ := d.Op("timeslice"); got.Count != 1 {
		t.Errorf("delta timeslice count = %d, want 1", got.Count)
	}
	if got, _ := d.Op("window"); got.Count != 1 {
		t.Errorf("delta window count = %d, want 1", got.Count)
	}
	if got, _ := d.Op("nearest"); got.Count != 0 {
		t.Errorf("delta nearest count = %d, want 0", got.Count)
	}
	if _, ok := d.Op("no-such-op"); ok {
		t.Error("unknown op name resolved")
	}
	// Counters subtract; gauges keep the later snapshot's values.
	if d.QueryNodeVisits == 0 || d.QueryNodeVisits > after.QueryNodeVisits {
		t.Errorf("delta node visits = %d (after %d)", d.QueryNodeVisits, after.QueryNodeVisits)
	}
	if d.LeafEntries != after.LeafEntries || d.Height != after.Height {
		t.Error("delta gauges must keep current values")
	}
	// An update is a delete+insert pair; the histogram's bucket sum
	// matches its count.
	u, _ := after.Op("update")
	var bsum uint64
	for _, b := range u.Buckets {
		bsum += b
	}
	if bsum != u.Count || u.Count != 150 {
		t.Errorf("update bucket sum = %d, count = %d, want 150", bsum, u.Count)
	}
	if u.Mean() <= 0 {
		t.Errorf("update mean = %v", u.Mean())
	}
}

// TestNearestPastTimeError pins the satellite fix: like Timeslice, a
// Nearest query must reject a query time before the current time
// instead of silently computing positions in the past.
func TestNearestPastTimeError(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Update(1, Point{Pos: Vec{500, 500}, Time: 0, Expires: 100}, 0)

	_, err = tr.Nearest(Vec{500, 500}, 5, 1, 10)
	if err == nil {
		t.Fatal("Nearest accepted a query time before now")
	}
	_, terr := tr.Timeslice(Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}, 5, 10)
	if terr == nil {
		t.Fatal("Timeslice accepted a query time before now")
	}
	// Same error shape as Timeslice.
	if !strings.Contains(err.Error(), "precedes current time") || err.Error() != terr.Error() {
		t.Errorf("Nearest error %q, want the Timeslice shape %q", err, terr)
	}
	// A valid call still works, and the failure was counted.
	if _, err := tr.Nearest(Vec{500, 500}, 10, 1, 10); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Metrics().Op("nearest")
	if n.Count != 2 || n.Errors != 1 {
		t.Errorf("nearest op = %+v, want 2 calls, 1 error", n)
	}
}

func TestWriteMetricsAndHandler(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 300; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i % 1000), float64(i / 3 % 1000)}, Time: 0, Expires: 1000}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, series := range []string{
		"rexp_buffer_reads_total", "rexp_split_total", "rexp_forced_reinsert_total",
		"rexp_condense_total", "rexp_expired_purged_total", "rexp_height",
		"rexp_op_duration_seconds_count{op=\"update\"}",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %s", series)
		}
	}

	srv := httptest.NewServer(tr.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(served.String(), "rexp_op_duration_seconds_count{op=\"update\"} 300") {
		t.Error("served metrics do not reflect the 300 updates")
	}
}

func TestSetSlowOpHook(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var mu sync.Mutex
	var slow []string
	tr.SetSlowOpHook(time.Nanosecond, func(op string, d time.Duration) {
		mu.Lock()
		slow = append(slow, op)
		mu.Unlock()
	})
	tr.Update(1, Point{Pos: Vec{1, 1}, Time: 0, Expires: 100}, 0)
	tr.Timeslice(Rect{Lo: Vec{0, 0}, Hi: Vec{10, 10}}, 0, 0)
	mu.Lock()
	got := append([]string(nil), slow...)
	mu.Unlock()
	if len(got) != 2 || got[0] != "update" || got[1] != "timeslice" {
		t.Fatalf("slow ops = %v, want [update timeslice]", got)
	}
	tr.SetSlowOpHook(0, nil)
	tr.Update(1, Point{Pos: Vec{2, 2}, Time: 1, Expires: 100}, 1)
	mu.Lock()
	defer mu.Unlock()
	if len(slow) != 2 {
		t.Error("hook fired after removal")
	}
}

func TestOptionsObserver(t *testing.T) {
	var mu sync.Mutex
	kinds := map[string]int{}
	opts := DefaultOptions()
	opts.Observer = func(e ObserverEvent) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	}
	opts.SlowOpThreshold = time.Nanosecond
	var slowCalls atomic.Int64
	opts.SlowOp = func(op string, d time.Duration) { slowCalls.Add(1) }
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Enough inserts to overflow leaves: splits (and usually forced
	// reinserts) must reach the hook.
	for i := 0; i < 600; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i % 1000), float64(i * 7 % 1000)}, Time: 0, Expires: 1000}, 0); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds["split"] == 0 {
		t.Errorf("observer saw no split events (got %v)", kinds)
	}
	if m := tr.Metrics(); uint64(kinds["split"]) != m.Splits {
		t.Errorf("observer saw %d splits, counter says %d", kinds["split"], m.Splits)
	}
	if slowCalls.Load() == 0 {
		t.Error("Options.SlowOp never fired with a 1ns threshold")
	}
}

// TestMetricsConcurrency hammers the tree with parallel updates and
// queries while snapshots and expositions are read — the counters must
// stay consistent and race-free (run under -race in CI).
func TestMetricsConcurrency(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetSlowOpHook(time.Hour, func(string, time.Duration) {})
	const writers, queriers, perG = 4, 2, 200
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := uint32(w*perG + i)
				if err := tr.Update(id, Point{Pos: Vec{float64(id % 1000), float64(id * 3 % 1000)}, Time: 0, Expires: 1e6}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := tr.Window(world, 0, 10, 0); err != nil {
					t.Error(err)
					return
				}
				_ = tr.Metrics()
			}
		}()
	}
	// A scraper reading the exposition concurrently with the load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := tr.WriteMetrics(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	m := tr.Metrics()
	u, _ := m.Op("update")
	if u.Count != writers*perG {
		t.Errorf("update count = %d, want %d", u.Count, writers*perG)
	}
	w, _ := m.Op("window")
	if w.Count != queriers*perG {
		t.Errorf("window count = %d, want %d", w.Count, queriers*perG)
	}
	if m.LeafEntries != writers*perG {
		t.Errorf("leaf entries = %d, want %d", m.LeafEntries, writers*perG)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
