package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the exposition golden file")

// goldenSnapshot is a fixed registry state exercising every series:
// every scalar family holds a distinct non-zero value and every
// unlabelled histogram a distinct distribution, so a refactor that
// swapped two families changes the exposition; ops with errors and
// latencies in several buckets sit beside untouched ops.
func goldenSnapshot() Snapshot {
	m := New()
	m.Add(BufReads, 120)
	m.Add(BufWrites, 40)
	m.Add(BufHits, 3000)
	m.Add(BufEvictions, 17)
	m.Add(BufDirtyWritebacks, 9)
	m.Add(BufLockFreeHits, 1800)
	m.Add(FaultTrips, 2)
	m.Add(EpochPins, 260)
	m.Add(SnapNodeHits, 2400)
	m.Add(SnapNodeMisses, 5)
	m.Add(SnapPublishes, 410)
	m.Add(SnapVersionsTrimmed, 390)
	m.Add(ChooseSubtree, 450)
	m.Add(NodeVisits, 900)
	m.Add(LeafScans, 15000)
	m.Add(Splits, 11)
	m.Add(ForcedReinserts, 6)
	m.Add(Condenses, 4)
	m.Add(OrphansReinserted, 310)
	m.Add(ExpiredPurged, 77)
	m.Add(SubtreesFreed, 13)
	m.SetGauge(Height, 3)
	m.SetGauge(Pages, 128)
	m.SetGauge(LeafEntries, 9000)
	m.SetGauge(BufResident, 50)
	m.SetGauge(BufPoolPages, 200)
	m.SetFloat(UI, 42.5)
	m.SetFloat(Horizon, 63.75)
	m.Add(BatchedUpdates, 640)
	m.Add(ShardVisits, 520)
	m.Add(ShardsPruned, 280)
	m.Add(Rerouted, 33)
	m.SetFloat(SpeedBandLo, 0.5)
	m.SetFloat(SpeedBandHi, 2.5)
	m.Add(WALAppends, 5000)
	m.Add(WALBytes, 320000)
	m.Add(WALFsyncs, 48)
	m.Add(Checkpoints, 7)
	m.Add(RecoveryReplayed, 130)
	m.Add(RecoveryDroppedExpired, 21)
	m.Add(ChecksumFailures, 1)
	m.Observe(RecoveryDuration, 4*time.Millisecond)
	m.Add(ReshardRuns, 8)
	m.Add(ReshardDualApplied, 95)
	m.Add(ReshardBackfilled, 8600)
	m.SetFloat(ReshardSkew, 1.375)
	m.SetFloat(ReshardChurn, 0.0625)
	m.Observe(ReshardCutoverStall, 60*time.Microsecond)
	m.Observe(ReshardCutoverStall, 700*time.Microsecond)
	m.Observe(LockWaitRead, 900*time.Nanosecond)
	m.Observe(LockWaitRead, 12*time.Microsecond)
	m.Observe(LockWaitWrite, 400*time.Microsecond)
	m.ObservePhase(PhaseQueueWait, 3*time.Microsecond)
	m.ObservePhase(PhaseIORead, 150*time.Microsecond)
	m.ObservePhase(PhaseIOWrite, 220*time.Microsecond)
	m.ObservePhase(PhaseWALAppend, 9*time.Microsecond)
	m.ObservePhase(PhaseWALFsync, 1500*time.Microsecond)
	m.ObservePhase(PhaseCheckpoint, 8*time.Millisecond)
	m.ObservePhase(PhaseMerge, 40*time.Microsecond)
	m.ObserveOp(OpUpdate, 800*time.Nanosecond, nil)
	m.ObserveOp(OpUpdate, 30*time.Microsecond, nil)
	m.ObserveOp(OpUpdate, 2*time.Millisecond, nil)
	m.ObserveOp(OpDelete, 15*time.Microsecond, errFixed)
	m.ObserveOp(OpWindow, 70*time.Microsecond, nil)
	m.ObserveOp(OpNearest, 3*time.Second, errFixed) // overflow bucket + error
	m.ObserveOp(OpBatch, 5*time.Millisecond, nil)
	return m.Snapshot()
}

var errFixed = errorString("fixed")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestWriteSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file (run with -update after intended changes)\ngot:\n%s", buf.String())
	}
}

// sampleRe matches one Prometheus text-format sample line.
var sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9].*$`)

func TestWriteSnapshotParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	help := map[string]bool{}
	typ := map[string]string{}
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			typ[f[0]] = f[1]
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
			}
			samples++
		}
	}
	// Every family of the table is announced, with its declared type.
	for _, f := range families {
		name := "rexp" + f.name
		if !help[name] || typ[name] != promTypes[f.kind] {
			t.Errorf("family %s missing HELP or TYPE %s (got %q)", name, promTypes[f.kind], typ[name])
		}
	}
	if len(typ) != len(families) {
		t.Errorf("exposition announces %d families, table declares %d", len(typ), len(families))
	}
	if samples == 0 {
		t.Fatal("no samples written")
	}
}

// TestHistogramExposition checks the Prometheus histogram contract:
// bucket counts are cumulative, the +Inf bucket equals _count, and the
// number of buckets matches the registry's bounds.
func TestHistogramExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	bucketRe := regexp.MustCompile(`^rexp_op_duration_seconds_bucket\{op="update",le="([^"]+)"\} ([0-9]+)$`)
	countRe := regexp.MustCompile(`^rexp_op_duration_seconds_count\{op="update"\} ([0-9]+)$`)
	var cum []uint64
	var last string
	count := uint64(0)
	for _, line := range strings.Split(buf.String(), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseUint(m[2], 10, 64)
			cum = append(cum, v)
			last = m[1]
		} else if m := countRe.FindStringSubmatch(line); m != nil {
			count, _ = strconv.ParseUint(m[1], 10, 64)
		}
	}
	if len(cum) != NumBuckets {
		t.Fatalf("update histogram has %d buckets, want %d", len(cum), NumBuckets)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, cum)
		}
	}
	if last != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", last)
	}
	if cum[len(cum)-1] != count || count != 3 {
		t.Errorf("+Inf bucket = %d, _count = %d, want both 3", cum[len(cum)-1], count)
	}
}

func TestHandler(t *testing.T) {
	calls := 0
	h := Handler(func() Snapshot {
		calls++
		return goldenSnapshot()
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rexp_split_total 11") {
		t.Error("served body missing rexp_split_total sample")
	}
	if calls != 1 {
		t.Errorf("snapshot func called %d times, want 1 per request", calls)
	}
}
