package obs

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	m := New()
	m.Inc(Splits)
	m.Add(Splits, 4)
	m.SetGauge(Height, -3)
	m.SetFloat(UI, 37.25)
	s := m.Snapshot()
	if m.Load(Splits) != 5 || s.Uint(Splits) != 5 {
		t.Errorf("counter = %d (snapshot %d), want 5", m.Load(Splits), s.Uint(Splits))
	}
	if s.Int(Height) != -3 {
		t.Errorf("gauge = %d, want -3", s.Int(Height))
	}
	if s.Float(UI) != 37.25 {
		t.Errorf("gauge float = %v, want 37.25", s.Float(UI))
	}
}

// opHist returns an operation's latency histogram from a snapshot.
func opHist(s Snapshot, op Op) HistSnapshot { return s.Hist(OpDuration + Hist(op)) }

// opErrors returns an operation's error count from a snapshot.
func opErrors(s Snapshot, op Op) uint64 { return s.Uint(OpErrors + Scalar(op)) }

func TestHistogramBucketPlacement(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{500 * time.Nanosecond, 0},   // below the first bound
		{time.Microsecond, 0},        // exactly on a bound counts in that bucket
		{2 * time.Microsecond, 1},    // (1µs, 2.5µs]
		{time.Millisecond, 9},        // exactly 1e-3
		{700 * time.Millisecond, 18}, // (0.5s, 1s]
		{2 * time.Second, 19},        // overflow
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	for i, c := range cases {
		if got := h.counts[c.bucket].Load(); got == 0 {
			t.Errorf("case %d (%v): bucket %d empty", i, c.d, c.bucket)
		}
	}
	if h.count.Load() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.count.Load(), len(cases))
	}
	var sum uint64
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	if sum != uint64(len(cases)) {
		t.Errorf("bucket sum = %d, want %d", sum, len(cases))
	}
}

func TestBoundsCopy(t *testing.T) {
	b := Bounds()
	if len(b) != NumBuckets-1 {
		t.Fatalf("len(Bounds()) = %d, want %d", len(b), NumBuckets-1)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
	b[0] = 99 // mutating the copy must not affect the package
	if Bounds()[0] == 99 {
		t.Fatal("Bounds() returned shared storage")
	}
}

func TestOpAndEventNames(t *testing.T) {
	want := []string{"update", "delete", "timeslice", "window", "moving", "nearest", "update_batch"}
	for op := Op(0); op < NumOps; op++ {
		if op.String() != want[op] {
			t.Errorf("op %d = %q, want %q", op, op.String(), want[op])
		}
	}
	if Op(-1).String() != "unknown" || NumOps.String() != "unknown" {
		t.Error("out-of-range op not reported as unknown")
	}
	if EvSplit.String() != "split" || EvDirtyWriteback.String() != "dirty-writeback" {
		t.Error("event kind names wrong")
	}
	if EventKind(200).String() != "unknown" {
		t.Error("out-of-range event kind not reported as unknown")
	}
}

func TestObserveOpCountsAndErrors(t *testing.T) {
	m := New()
	m.ObserveOp(OpUpdate, time.Millisecond, nil)
	m.ObserveOp(OpUpdate, time.Millisecond, errors.New("boom"))
	m.ObserveOp(OpWindow, time.Microsecond, nil)
	s := m.Snapshot()
	if opHist(s, OpUpdate).Count != 2 || opErrors(s, OpUpdate) != 1 {
		t.Errorf("update = %+v, %d errors", opHist(s, OpUpdate), opErrors(s, OpUpdate))
	}
	if opHist(s, OpWindow).Count != 1 || opErrors(s, OpWindow) != 0 {
		t.Errorf("window = %+v, %d errors", opHist(s, OpWindow), opErrors(s, OpWindow))
	}
	if got := opHist(s, OpUpdate).SumSeconds; got < 0.0019 || got > 0.0021 {
		t.Errorf("update sum = %v, want ~0.002", got)
	}
}

func TestNilReceiverSafe(t *testing.T) {
	var m *Metrics
	m.ObserveOp(OpUpdate, time.Second, nil) // must not panic
	m.Emit(Event{Kind: EvSplit})
	m.SetSlowOp(time.Second, func(Op, time.Duration) {})
	if s := m.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil snapshot not zero: %+v", s)
	}
}

func TestEmitWithoutObserver(t *testing.T) {
	m := New()
	m.Emit(Event{Kind: EvSplit}) // nil observer: no-op
	var got []Event
	m.Observer = ObserverFunc(func(e Event) { got = append(got, e) })
	m.Emit(Event{Kind: EvCondense, Level: 1, N: 7})
	if len(got) != 1 || got[0].Kind != EvCondense || got[0].Level != 1 || got[0].N != 7 {
		t.Errorf("observer got %+v", got)
	}
}

func TestSlowOpHook(t *testing.T) {
	m := New()
	var mu sync.Mutex
	var fired []time.Duration
	m.SetSlowOp(10*time.Millisecond, func(op Op, d time.Duration) {
		mu.Lock()
		fired = append(fired, d)
		mu.Unlock()
		if op != OpDelete {
			t.Errorf("hook op = %v", op)
		}
	})
	m.ObserveOp(OpDelete, 5*time.Millisecond, nil)  // below threshold
	m.ObserveOp(OpDelete, 10*time.Millisecond, nil) // at threshold: fires
	m.ObserveOp(OpDelete, 20*time.Millisecond, nil) // above: fires
	if len(fired) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(fired))
	}
	m.SetSlowOp(0, nil) // removal
	m.ObserveOp(OpDelete, time.Hour, nil)
	if len(fired) != 2 {
		t.Fatal("hook fired after removal")
	}
}

func TestSnapshotSub(t *testing.T) {
	m := New()
	m.Add(Splits, 3)
	m.Add(BufReads, 10)
	m.SetGauge(Height, 2)
	m.SetFloat(UI, 50)
	m.ObserveOp(OpUpdate, time.Millisecond, nil)
	before := m.Snapshot()

	m.Add(Splits, 2)
	m.Add(BufReads, 5)
	m.SetGauge(Height, 3)
	m.SetFloat(UI, 60)
	m.ObserveOp(OpUpdate, time.Millisecond, errors.New("x"))
	m.ObserveOp(OpUpdate, time.Millisecond, nil)
	after := m.Snapshot()

	d := after.Sub(before)
	if d.Uint(Splits) != 2 || d.Uint(BufReads) != 5 {
		t.Errorf("delta counters: splits=%d reads=%d", d.Uint(Splits), d.Uint(BufReads))
	}
	// Gauges keep the current (later) values.
	if d.Int(Height) != 3 || d.Float(UI) != 60 {
		t.Errorf("delta gauges: height=%d ui=%v", d.Int(Height), d.Float(UI))
	}
	u := opHist(d, OpUpdate)
	if u.Count != 2 || opErrors(d, OpUpdate) != 1 {
		t.Errorf("delta update op = %+v, %d errors", u, opErrors(d, OpUpdate))
	}
	var bsum uint64
	for _, b := range u.Buckets {
		bsum += b
	}
	if bsum != 2 {
		t.Errorf("delta bucket sum = %d, want 2", bsum)
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Inc(Splits)
				m.ObserveOp(OpWindow, time.Microsecond, nil)
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Uint(Splits) != goroutines*perG {
		t.Errorf("splits = %d, want %d", s.Uint(Splits), goroutines*perG)
	}
	if opHist(s, OpWindow).Count != goroutines*perG {
		t.Errorf("window count = %d, want %d", opHist(s, OpWindow).Count, goroutines*perG)
	}
}

// TestAggregateRules folds a front end and two shards and checks each
// aggregation rule: summed counters, gauges and histograms (the front
// end's own share included), max and min gauges over the shards only,
// and front-end-only families.
func TestAggregateRules(t *testing.T) {
	front, s0, s1 := New(), New(), New()
	for i, m := range []*Metrics{s0, s1} {
		m.Add(BufReads, uint64(10*(i+1)))
		m.SetGauge(Pages, int64(100*(i+1)))
		m.SetGauge(Height, int64(3-i))
		m.SetFloat(SpeedBandLo, float64(i)+0.5)
		m.SetFloat(SpeedBandHi, float64(i)+1.5)
		m.Add(ShardVisits, 1000)                // front-end family: ignored on shards
		m.ObserveOp(OpWindow, time.Second, nil) // likewise
		m.ObservePhase(PhaseIORead, time.Millisecond)
	}
	front.Add(ShardVisits, 7)
	front.ObserveOp(OpWindow, time.Millisecond, errors.New("x"))
	front.ObservePhase(PhaseMerge, time.Microsecond)
	agg := Aggregate(front.Snapshot(), []Snapshot{s0.Snapshot(), s1.Snapshot()})

	if agg.Uint(BufReads) != 30 || agg.Int(Pages) != 300 {
		t.Errorf("sums: reads %d pages %d, want 30 300", agg.Uint(BufReads), agg.Int(Pages))
	}
	if agg.Int(Height) != 3 || agg.Float(SpeedBandHi) != 2.5 || agg.Float(SpeedBandLo) != 0.5 {
		t.Errorf("extremes: height %d band [%v, %v), want 3 [0.5, 2.5)",
			agg.Int(Height), agg.Float(SpeedBandLo), agg.Float(SpeedBandHi))
	}
	if agg.Uint(ShardVisits) != 7 || opHist(agg, OpWindow).Count != 1 || opErrors(agg, OpWindow) != 1 {
		t.Errorf("front-end families: visits %d window %d/%d errors, want 7 1/1",
			agg.Uint(ShardVisits), opHist(agg, OpWindow).Count, opErrors(agg, OpWindow))
	}
	if io, merge := agg.Hist(PhaseDuration+Hist(PhaseIORead)), agg.Hist(PhaseDuration+Hist(PhaseMerge)); io.Count != 2 || merge.Count != 1 {
		t.Errorf("phases: io_read %d merge %d, want 2 1", io.Count, merge.Count)
	}
}

// TestSnapshotJSON checks the JSON form carries one key per family,
// named like the exposition family.
func TestSnapshotJSON(t *testing.T) {
	raw, err := json.Marshal(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(families) {
		t.Errorf("%d keys, want one per family (%d)", len(got), len(families))
	}
	if got["split_total"] != 11.0 || got["ui_estimate"] != 42.5 {
		t.Errorf("split_total = %v, ui_estimate = %v", got["split_total"], got["ui_estimate"])
	}
	errs, _ := got["op_errors_total"].(map[string]any)
	if errs["nearest"] != 1.0 {
		t.Errorf("op_errors_total = %v", got["op_errors_total"])
	}
	lw, _ := got["lock_wait_seconds"].(map[string]any)
	if read, _ := lw["read"].(map[string]any); read["Count"] != 2.0 {
		t.Errorf("lock_wait_seconds = %v", got["lock_wait_seconds"])
	}
}

// TestFamilySlots checks both family tables: every storage slot
// belongs to exactly one family, and no family runs past its storage.
func TestFamilySlots(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		rows                 []desc
		numScalars, numHists int
	}{
		{"index", families, int(NumScalars), int(NumHists)},
		{"replication", replFamilies, int(numRepl), 0},
	} {
		claims := map[[2]int]string{} // {is histogram, slot} -> family
		for _, f := range tc.rows {
			n, h := tc.numScalars, 0
			if f.kind == kindHistogram {
				n, h = tc.numHists, 1
			}
			for s := f.slot; s < f.slot+f.series(); s++ {
				if s < 0 || s >= n {
					t.Errorf("%s: family %s slot %d out of range [0, %d)", tc.name, f.name, s, n)
				} else if prev, ok := claims[[2]int{h, s}]; ok {
					t.Errorf("%s: families %s and %s share slot %d", tc.name, prev, f.name, s)
				}
				claims[[2]int{h, s}] = f.name
			}
		}
		if len(claims) != tc.numScalars+tc.numHists {
			t.Errorf("%s: %d slots claimed, storage has %d", tc.name, len(claims), tc.numScalars+tc.numHists)
		}
	}
}
