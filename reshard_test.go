package rexptree

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"rexptree/internal/manifest"
	"rexptree/internal/storage"
)

// movingIndex is the surface shared by Tree and ShardedTree that the
// reshard tests exercise, so any index layout can be fingerprinted and
// compared against the single-tree reference.
type movingIndex interface {
	Update(id uint32, p Point, now float64) error
	UpdateBatch(batch []Report, now float64) error
	Delete(id uint32, now float64) (bool, error)
	Timeslice(r Rect, at, now float64) ([]Result, error)
	Window(r Rect, t1, t2, now float64) ([]Result, error)
	Moving(r1, r2 Rect, t1, t2, now float64) ([]Result, error)
	Nearest(pos Vec, at float64, k int, now float64) ([]Result, error)
	Get(id uint32, now float64) (Point, bool)
	Len() int
}

// indexFingerprint captures an index's observable state: the results
// of a fixed battery of all four query types at several times, point
// lookups over a spread of ids, and the stored-report count.  Two
// indexes holding the same live objects must fingerprint identically
// regardless of shard count, partition policy or file generation.
type indexFingerprint struct {
	queries [][]Result
	points  []Point
	present []bool
	size    int
}

func fingerprintIndex(t *testing.T, ix movingIndex, now float64) indexFingerprint {
	t.Helper()
	var fp indexFingerprint
	run := func(sorted bool) func(rs []Result, err error) {
		return func(rs []Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if sorted {
				// Region queries promise a result *set*; a single Tree
				// reports it in traversal order, a ShardedTree merged by
				// id.  Normalize before comparing.
				sortResults(rs)
			}
			if len(rs) == 0 {
				rs = nil // normalize: empty vs nil is not an observable difference
			}
			fp.queries = append(fp.queries, rs)
		}
	}
	region, nearest := run(true), run(false)
	inner := Rect{Lo: Vec{120, 90}, Hi: Vec{460, 430}}
	mid := Rect{Lo: Vec{310, 260}, Hi: Vec{720, 650}}
	world := Rect{Lo: Vec{-100, -100}, Hi: Vec{1100, 1100}}
	region(ix.Timeslice(inner, now, now))
	region(ix.Timeslice(world, now+12, now))
	region(ix.Window(inner, now+1, now+9, now))
	region(ix.Window(mid, now, now+25, now))
	region(ix.Moving(inner, mid, now+2, now+14, now))
	nearest(ix.Nearest(Vec{500, 500}, now+3, 12, now))
	nearest(ix.Nearest(Vec{80, 910}, now, 5, now))
	for id := uint32(1); id <= 1000; id += 37 {
		p, ok := ix.Get(id, now)
		fp.points = append(fp.points, p)
		fp.present = append(fp.present, ok)
	}
	fp.size = ix.Len()
	return fp
}

func requireSameFingerprint(t *testing.T, got, want indexFingerprint, what string) {
	t.Helper()
	if got.size != want.size {
		t.Fatalf("%s: %d stored reports, reference has %d", what, got.size, want.size)
	}
	for i := range want.queries {
		if !reflect.DeepEqual(got.queries[i], want.queries[i]) {
			t.Fatalf("%s: query %d returned %d results, reference %d:\n got  %v\n want %v",
				what, i, len(got.queries[i]), len(want.queries[i]), got.queries[i], want.queries[i])
		}
	}
	if !reflect.DeepEqual(got.present, want.present) || !reflect.DeepEqual(got.points, want.points) {
		t.Fatalf("%s: point lookups diverge from the reference", what)
	}
}

// copyIndexFiles clones every regular file of srcDir into dstDir, so a
// built fixture can be resharded destructively per subtest.
func copyIndexFiles(t *testing.T, srcDir, dstDir string) {
	t.Helper()
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dstDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// hashDir maps every regular file in dir to its content hash.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

func fileOpts(base string) Options {
	o := DefaultOptions()
	o.Path = base
	return o
}

// updatedReports builds a post-reshard update stream: re-reports of
// existing objects with fresh positions and velocities spanning all
// speed bands (so speed-partitioned targets must re-route), plus a few
// brand-new objects.
func updatedReports(ids int, seed int64, at float64) []Report {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Report, 0, 320)
	for i := 0; i < 300; i++ {
		out = append(out, Report{
			ID: uint32(rng.Intn(ids) + 1),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*20 - 10, rng.Float64()*20 - 10},
				Time:    at,
				Expires: at + 100 + rng.Float64()*100,
			},
		})
	}
	for j := 0; j < 20; j++ {
		out = append(out, Report{
			ID: uint32(5000 + j),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
				Time:    at,
				Expires: at + 150,
			},
		})
	}
	return out
}

// applyStream mutates an index with the shared delete + update stream.
func applyStream(t *testing.T, ix movingIndex, deletes []uint32, updates []Report, now float64) {
	t.Helper()
	for _, id := range deletes {
		if _, err := ix.Delete(id, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.UpdateBatch(updates, now); err != nil {
		t.Fatal(err)
	}
}

// reshardClosed is rexpreshard's pass over a closed index: open it as
// stored, reshard it under spec, close it.
func reshardClosed(base string, spec ReshardSpec) error {
	so, err := StoredShardedOptions(base)
	if err != nil {
		return err
	}
	ix, err := OpenSharded(so)
	if err != nil {
		return err
	}
	if err := ix.Reshard(spec); err != nil {
		ix.Close()
		return err
	}
	return ix.Close()
}

// buildReshardTool builds cmd/rexpreshard for the tests that drive the
// command line itself.
func buildReshardTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rexpreshard")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rexpreshard").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestReshardMatrix drives the K → K′ matrix of closed-index reshards:
// hash sources with K ∈ {1, 2, 4} resharded to hash targets with
// K′ ∈ {1, 2, 3, 4, 8}, plus the policy transitions (hash → speed with
// fixed bands, self-tuned speed → hash).  After every reshard the
// index must answer all four query types element-wise identically to
// the single-tree reference — right after the reshard, after a further
// update stream that re-reports, inserts and deletes objects (crossing
// speed bands, so speed targets re-route), and after a reopen.
func TestReshardMatrix(t *testing.T) {
	deletes := []uint32{5, 11, 50, 500, 797}
	const now2 = 5.0

	type sourceCase struct {
		name    string
		opts    ShardedOptions
		reports []Report
		updates []Report
	}
	sources := []sourceCase{
		{"hash-1", ShardedOptions{Shards: 1}, testWorkload(800, 11), updatedReports(800, 101, now2)},
		{"hash-2", ShardedOptions{Shards: 2}, testWorkload(800, 12), updatedReports(800, 102, now2)},
		{"hash-4", ShardedOptions{Shards: 4}, testWorkload(800, 13), updatedReports(800, 103, now2)},
		{"speed-auto-4", ShardedOptions{Shards: 4, Partition: PartitionSpeed, TuneAfter: 300},
			mixedSpeedWorkload(800, 7, 0), mixedSpeedWorkload(300, 7, 1)},
	}

	allBands := []float64{0.5, 2, 8, 15, 30, 50, 100}
	targetsFor := func(src string) []ReshardSpec {
		var out []ReshardSpec
		switch src {
		case "speed-auto-4":
			for _, k := range []int{1, 2, 4} {
				out = append(out, ReshardSpec{Shards: k, Policy: PartitionHash})
			}
		default:
			for _, k := range []int{1, 2, 3, 4, 8} {
				out = append(out, ReshardSpec{Shards: k, Policy: PartitionHash})
			}
			if src == "hash-4" {
				for _, k := range []int{1, 2, 3, 4, 8} {
					out = append(out, ReshardSpec{Shards: k, Policy: PartitionSpeed, SpeedBands: allBands[:k-1]})
				}
			}
		}
		return out
	}

	for _, src := range sources {
		src := src
		t.Run(src.name, func(t *testing.T) {
			// Single-tree reference: the ground truth before and after
			// the update stream.
			single, err := Open(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			if err := single.UpdateBatch(src.reports, 0); err != nil {
				t.Fatal(err)
			}
			base0 := fingerprintIndex(t, single, 0)
			applyStream(t, single, deletes, src.updates, now2)
			base1 := fingerprintIndex(t, single, now2)

			// File-backed source fixture, built once and cloned per target.
			srcDir := t.TempDir()
			so := src.opts
			so.Options = fileOpts(filepath.Join(srcDir, "idx"))
			st, err := OpenSharded(so)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.UpdateBatch(src.reports, 0); err != nil {
				t.Fatal(err)
			}
			requireSameFingerprint(t, fingerprintIndex(t, st, 0), base0, "source fixture")
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			for _, tg := range targetsFor(src.name) {
				tg := tg
				t.Run(fmt.Sprintf("to-%s-%d", tg.Policy, tg.Shards), func(t *testing.T) {
					dir := t.TempDir()
					copyIndexFiles(t, srcDir, dir)
					base := filepath.Join(dir, "idx")
					if err := reshardClosed(base, tg); err != nil {
						t.Fatal(err)
					}

					ro := ShardedOptions{Options: fileOpts(base), Shards: tg.Shards,
						Partition: tg.Policy, SpeedBands: tg.SpeedBands}
					ix, err := OpenSharded(ro)
					if err != nil {
						t.Fatal(err)
					}
					if ix.Generation() != 1 {
						t.Fatalf("reopened generation %d, want 1", ix.Generation())
					}
					// Every stored entry is live and sits on one target shard.
					routed := 0
					for i := 0; i < ix.NumShards(); i++ {
						routed += ix.ShardMetrics(i).LeafEntries
					}
					if routed != base0.size {
						t.Fatalf("%d entries across the target shards, want %d live", routed, base0.size)
					}
					requireSameFingerprint(t, fingerprintIndex(t, ix, 0), base0, "resharded")

					applyStream(t, ix, deletes, src.updates, now2)
					requireSameFingerprint(t, fingerprintIndex(t, ix, now2), base1, "resharded+updates")
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}

					// The post-reshard updates must persist across a reopen.
					ix2, err := OpenSharded(ro)
					if err != nil {
						t.Fatal(err)
					}
					requireSameFingerprint(t, fingerprintIndex(t, ix2, now2), base1, "resharded+updates reopened")
					if err := ix2.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestReshardRoundTrip is the acceptance scenario: a K=4 hash index is
// resharded to K′=2 speed shards with re-tuned bands, then back to K=4
// hash, with all query types answering identically throughout.  The
// index clock sits past many report expirations, so the reshard must
// also drop expired entries without changing any query answer.
func TestReshardRoundTrip(t *testing.T) {
	reports := testWorkload(700, 23)
	tick := Report{ID: 9001, Point: Point{
		Pos: Vec{500, 500}, Vel: Vec{0, 0}, Time: 100, Expires: NoExpiry(),
	}}

	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	// Advance the clock to 100: testWorkload expirations span 60..180,
	// so a large fraction of the reports is now expired.
	if err := single.Update(tick.ID, tick.Point, 100); err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, single, 100)

	dir := t.TempDir()
	basePath := filepath.Join(dir, "idx")
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(tick.ID, tick.Point, 100); err != nil {
		t.Fatal(err)
	}
	stored := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := reshardClosed(basePath, ReshardSpec{Shards: 2, Policy: PartitionSpeed}); err != nil {
		t.Fatal(err)
	}
	man, _, err := manifest.Read(manifest.Path(basePath))
	if err != nil {
		t.Fatal(err)
	}
	if !man.AutoTuned || len(man.SpeedBands) != 1 {
		t.Fatalf("expected re-tuned bands, got auto_tuned=%v bands=%v", man.AutoTuned, man.SpeedBands)
	}
	sp, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 2, Partition: PartitionSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Generation() != 1 {
		t.Fatalf("generation %d, want 1", sp.Generation())
	}
	live := sp.Len()
	if live >= stored {
		t.Fatalf("%d entries after the reshard of %d stored at clock 100; the expired ones should be dropped", live, stored)
	}
	requireSameFingerprint(t, fingerprintIndex(t, sp, 100), base, "hash-4 -> speed-2")
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	if err := reshardClosed(basePath, ReshardSpec{Shards: 4, Policy: PartitionHash}); err != nil {
		t.Fatal(err)
	}
	hs, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Generation() != 2 {
		t.Fatalf("generation %d, want 2", hs.Generation())
	}
	// The first reshard already dropped the expired entries.
	if n := hs.Len(); n != live {
		t.Fatalf("second reshard kept %d entries, want the %d the first left", n, live)
	}
	requireSameFingerprint(t, fingerprintIndex(t, hs, 100), base, "speed-2 -> hash-4")
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReshardSingleTreeSource has rexpreshard convert a manifest-less
// single tree file into a sharded index.
func TestReshardSingleTreeSource(t *testing.T) {
	bin := buildReshardTool(t)
	reports := testWorkload(500, 31)
	objs := make([]BulkObject, len(reports))
	for i, r := range reports {
		objs[i] = BulkObject{ID: r.ID, Point: r.Point}
	}

	dir := t.TempDir()
	basePath := filepath.Join(dir, "idx")
	tr, err := OpenBulk(fileOpts(basePath), objs, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, tr, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-path", basePath, "-shards", "3", "-quiet", "-json").Output()
	if err != nil {
		t.Fatalf("rexpreshard: %v", err)
	}
	var res struct {
		SourceShards int    `json:"source_shards"`
		SourcePolicy string `json:"source_policy"`
		Generation   int    `json:"generation"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if res.SourcePolicy != "single" || res.SourceShards != 1 || res.Generation != 1 {
		t.Fatalf("source %q/%d gen %d, want single/1 gen 1", res.SourcePolicy, res.SourceShards, res.Generation)
	}
	// The committed index lives in generation-1 files; the original
	// single-tree file is garbage and gets removed.
	if _, err := os.Stat(basePath); !os.IsNotExist(err) {
		t.Fatalf("original tree file still present: %v", err)
	}
	ix, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameFingerprint(t, fingerprintIndex(t, ix, 0), base, "single -> hash-3")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReshardCrashInjection kills a closed-index reshard at every
// phase boundary and checks the crash contract: every file the
// original (cleanly closed, non-durable) index references is
// byte-for-byte untouched, the original reopens and answers queries
// identically, and simply re-running the same reshard succeeds.
//
//   - mid-scan: a source page read fails while the index is opened
//     (the open reads every stored page to rebuild the object table).
//   - mid-load: a target page write fails while the target generation
//     is built.
//   - pre-rename: the process dies with the target loaded, before it
//     is verified.
//   - pre-manifest-rename: the process dies with the target verified,
//     just before the manifest rename that commits it.
//
// The engine builds its target under the final file names, so the
// offline engine's crash between per-shard renames has no counterpart.
func TestReshardCrashInjection(t *testing.T) {
	reports := testWorkload(500, 47)
	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, single, 0)

	srcDir := t.TempDir()
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(filepath.Join(srcDir, "idx")), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// faultStore arms a fault on the nth page store the index opens:
	// stores 0 and 1 are the source shards, 2.. the target's.
	faultStore := func(n int, reads bool, after int) func(*ShardedOptions) {
		return func(so *ShardedOptions) {
			var opened atomic.Int32
			so.testWrapStore = func(s storage.Store) storage.Store {
				if int(opened.Add(1))-1 != n {
					return s
				}
				fs := &storage.FaultStore{Inner: s, FailReads: reads, FailWrites: !reads}
				fs.Arm(after)
				return fs
			}
		}
	}
	errBoom := errors.New("boom")
	cases := []struct {
		name   string
		inject func(*ShardedOptions)
		hook   string
	}{
		{"mid-scan", faultStore(1, true, 2), ""},
		{"mid-load", faultStore(3, false, 3), ""},
		{"pre-rename", nil, "verify"},
		{"pre-manifest-rename", nil, "pre-rename"},
	}
	spec := ReshardSpec{Shards: 3, Policy: PartitionHash}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			copyIndexFiles(t, srcDir, dir)
			basePath := filepath.Join(dir, "idx")
			before := hashDir(t, dir)

			so, err := StoredShardedOptions(basePath)
			if err != nil {
				t.Fatal(err)
			}
			if c.inject != nil {
				c.inject(&so)
			}
			ix, err := OpenSharded(so)
			if err == nil {
				ix.testReshardHook = func(point string) error {
					if point == c.hook {
						return errBoom
					}
					return nil
				}
				err = ix.Reshard(spec)
				ix.Abandon() // the process dies here
			}
			if err == nil {
				t.Fatal("injected crash did not abort the reshard")
			}

			// Everything the original index references is untouched; a
			// crash may only leave extra (unreferenced) files behind.
			after := hashDir(t, dir)
			for name, h := range before {
				if after[name] != h {
					t.Fatalf("crash at %s modified original file %s", c.name, name)
				}
			}

			ix, err = OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 2})
			if err != nil {
				t.Fatalf("original index does not reopen after crash: %v", err)
			}
			if ix.Generation() != 0 {
				t.Fatalf("original generation %d after crash, want 0", ix.Generation())
			}
			requireSameFingerprint(t, fingerprintIndex(t, ix, 0), base, "original after crash")
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			// Retry: the identical invocation, no faults, must succeed
			// (cleaning up whatever the crashed attempt left behind).
			if err := reshardClosed(basePath, spec); err != nil {
				t.Fatalf("retry after %s crash failed: %v", c.name, err)
			}
			ix2, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if ix2.Generation() != 1 {
				t.Fatalf("retry committed generation %d, want 1", ix2.Generation())
			}
			requireSameFingerprint(t, fingerprintIndex(t, ix2, 0), base, "retry result")
			if err := ix2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReshardCrashAfterCommit kills a closed-index reshard of a
// non-durable index right after its manifest rename, before the close:
// the committed generation has no log to recover from, so the engine
// must have written it out before naming it.
func TestReshardCrashAfterCommit(t *testing.T) {
	reports := testWorkload(500, 53)
	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, single, 0)

	basePath := filepath.Join(t.TempDir(), "idx")
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	so, err := StoredShardedOptions(basePath)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	ix.testReshardHook = func(point string) error {
		if point == "post-rename" {
			return errLiveBoom
		}
		return nil
	}
	if err := ix.Reshard(ReshardSpec{Shards: 3, Policy: PartitionHash}); !errors.Is(err, errLiveBoom) {
		t.Fatalf("reshard error = %v, want the injected crash", err)
	}
	ix.Abandon()

	re, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 3})
	if err != nil {
		t.Fatalf("committed index does not reopen: %v", err)
	}
	defer re.Close()
	if re.Generation() != 1 {
		t.Fatalf("generation %d after a crash past the commit, want 1", re.Generation())
	}
	requireSameFingerprint(t, fingerprintIndex(t, re, 0), base, "committed index after crash")
}

// TestReshardBadOptions checks that rexpreshard refuses invalid
// invocations without changing any file of the index.
func TestReshardBadOptions(t *testing.T) {
	bin := buildReshardTool(t)
	dir := t.TempDir()
	basePath := filepath.Join(dir, "idx")
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // empty index: no live entries
		t.Fatal(err)
	}
	before := hashDir(t, dir)

	cases := []struct {
		name string
		args []string
	}{
		{"no path", []string{"-shards", "2"}},
		{"no shards", []string{"-path", basePath}},
		{"bad policy", []string{"-path", basePath, "-shards", "2", "-partition", "round-robin"}},
		{"bands under hash", []string{"-path", basePath, "-shards", "2", "-bands", "1"}},
		{"descending bands", []string{"-path", basePath, "-shards", "3", "-partition", "speed", "-bands", "2,1"}},
		{"band count", []string{"-path", basePath, "-shards", "2", "-partition", "speed", "-bands", "1,2"}},
		{"missing index", []string{"-path", filepath.Join(dir, "nope"), "-shards", "2"}},
		{"retune empty index", []string{"-path", basePath, "-shards", "2", "-partition", "speed"}},
	}
	for _, c := range cases {
		err := exec.Command(bin, append(c.args, "-quiet")...).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want status 1", c.name, err)
		}
	}
	after := hashDir(t, dir)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("a rejected reshard modified the index directory:\n before %v\n after  %v", before, after)
	}
}
