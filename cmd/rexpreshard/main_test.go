package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rexptree"
	"rexptree/internal/manifest"
	"rexptree/internal/storage"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tool")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// buildFixture creates a small 2-shard hash index on disk and returns
// its base path and object count.
func buildFixture(t *testing.T) (string, int) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "idx")
	opts := rexptree.DefaultOptions()
	opts.Path = base
	st, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 150
	batch := make([]rexptree.Report, n)
	for i := range batch {
		batch[i] = rexptree.Report{
			ID: uint32(i + 1),
			Point: rexptree.Point{
				Pos:     rexptree.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     rexptree.Vec{rng.Float64()*10 - 5, rng.Float64()*10 - 5},
				Time:    0,
				Expires: 100,
			},
		}
	}
	if err := st.UpdateBatch(batch, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return base, n
}

func TestSmokeJSON(t *testing.T) {
	bin := buildTool(t)
	base, n := buildFixture(t)

	out, err := exec.Command(bin, "-path", base, "-shards", "3", "-partition", "speed", "-quiet", "-json").Output()
	if err != nil {
		t.Fatalf("rexpreshard failed: %v", err)
	}
	var res struct {
		SourceShards int    `json:"source_shards"`
		TargetShards int    `json:"target_shards"`
		TargetPolicy string `json:"target_policy"`
		Generation   int    `json:"generation"`
		Scanned      int    `json:"entries_scanned"`
		Live         int    `json:"entries_live"`
		Routed       []int  `json:"routed_per_shard"`
		Retuned      bool   `json:"retuned"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("output is not the result JSON: %v\n%s", err, out)
	}
	if res.SourceShards != 2 || res.TargetShards != 3 || res.TargetPolicy != "speed" ||
		res.Generation != 1 || res.Scanned != n || res.Live != n || !res.Retuned {
		t.Fatalf("implausible result: %+v", res)
	}

	// The committed index must reopen under the new layout with every
	// object still present.
	opts := rexptree.DefaultOptions()
	opts.Path = base
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{
		Options: opts, Shards: 3, Partition: rexptree.PartitionSpeed,
	})
	if err != nil {
		t.Fatalf("resharded index does not reopen: %v", err)
	}
	defer ix.Close()
	if ix.Len() != n || ix.Generation() != 1 {
		t.Fatalf("reopened index has %d objects at generation %d, want %d at 1", ix.Len(), ix.Generation(), n)
	}
}

func TestSmokeReport(t *testing.T) {
	bin := buildTool(t)
	base, _ := buildFixture(t)

	out, err := exec.Command(bin, "-path", base, "-shards", "4", "-quiet").CombinedOutput()
	if err != nil {
		t.Fatalf("rexpreshard failed: %v\n%s", err, out)
	}
	for _, want := range []string{"source        : 2 shard(s)", "target        : 4 shard(s), hash (generation 1)", "committed     : ok"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMissingArgs(t *testing.T) {
	bin := buildTool(t)
	err := exec.Command(bin, "-shards", "2").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit error, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1", ee.ExitCode())
	}
}

func TestSmokeBadIndex(t *testing.T) {
	bin := buildTool(t)
	err := exec.Command(bin, "-path", filepath.Join(t.TempDir(), "nope"), "-shards", "2", "-quiet").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit error, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1", ee.ExitCode())
	}
}

// TestCrashedDurableSource reshards a durable index whose acknowledged
// updates exist only in its write-ahead logs (the process died before
// any checkpoint): the tool must recover them, not lose them.
func TestCrashedDurableSource(t *testing.T) {
	bin := buildTool(t)
	base := filepath.Join(t.TempDir(), "idx")
	opts := rexptree.DefaultOptions()
	opts.Path = base
	opts.Durability = rexptree.DurabilityOnCommit
	st, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	batch := make([]rexptree.Report, 500)
	for i := range batch {
		batch[i] = rexptree.Report{ID: uint32(i + 1), Point: rexptree.Point{
			Pos:     rexptree.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:     rexptree.Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
			Expires: 100,
		}}
	}
	if err := st.UpdateBatch(batch, 0); err != nil {
		t.Fatal(err)
	}
	st.Abandon() // crash: the updates are acknowledged, but only logged

	if out, err := exec.Command(bin, "-path", base, "-shards", "3", "-quiet").CombinedOutput(); err != nil {
		t.Fatalf("rexpreshard: %v\n%s", err, out)
	}
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	kept := 0
	for _, r := range batch {
		if _, ok := ix.Get(r.ID, 0); ok {
			kept++
		}
	}
	if kept != len(batch) {
		t.Fatalf("%d of %d acknowledged objects survived the reshard", kept, len(batch))
	}
}

// fingerprint renders the answers of a fixed battery of queries.
func fingerprint(t *testing.T, ix *rexptree.ShardedTree) string {
	t.Helper()
	now := ix.Now()
	var b strings.Builder
	add := func(rs []rexptree.Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, rs)
	}
	inner := rexptree.Rect{Lo: rexptree.Vec{200, 150}, Hi: rexptree.Vec{600, 500}}
	world := rexptree.Rect{Lo: rexptree.Vec{-500, -500}, Hi: rexptree.Vec{1500, 1500}}
	add(ix.Timeslice(world, now+10, now))
	add(ix.Window(inner, now+1, now+30, now))
	add(ix.Moving(inner, world, now, now+20, now))
	add(ix.Nearest(rexptree.Vec{500, 500}, now+5, 12, now))
	fmt.Fprintln(&b, ix.Len())
	return b.String()
}

// TestMigrateV1 reshards a committed index in the legacy formats
// (manifest version 1, page files without checksums): the new
// generation must be written in the current page format, reopen with
// a durability policy, and answer queries exactly as the source did.
func TestMigrateV1(t *testing.T) {
	bin := buildTool(t)
	copyFixture := func() string {
		dir := t.TempDir()
		for _, name := range []string{"idx.manifest", "idx.s0", "idx.s1"} {
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dir, "idx")
	}

	src := copyFixture()
	if v := pageVersion(t, manifest.ShardPath(src, 0, 0)); v != 1 {
		t.Fatalf("fixture shard is version %d, want 1", v)
	}
	so, err := rexptree.StoredShardedOptions(src)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rexptree.OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	base := copyFixture()
	if out, err := exec.Command(bin, "-path", base, "-shards", "3", "-quiet").CombinedOutput(); err != nil {
		t.Fatalf("rexpreshard: %v\n%s", err, out)
	}
	for i := 0; i < 3; i++ {
		if v := pageVersion(t, manifest.ShardPath(base, 1, i)); v != 2 {
			t.Fatalf("committed shard %d is version %d, want 2", i, v)
		}
	}
	so, err = rexptree.StoredShardedOptions(base)
	if err != nil {
		t.Fatal(err)
	}
	so.Durability = rexptree.DurabilityOnCommit
	ix, err = rexptree.OpenSharded(so)
	if err != nil {
		t.Fatalf("migrated index does not reopen durable: %v", err)
	}
	defer ix.Close()
	if got := fingerprint(t, ix); got != want {
		t.Fatalf("migrated index answers differently:\n got  %s\n want %s", got, want)
	}
}

func pageVersion(t *testing.T, path string) int {
	t.Helper()
	fs, err := storage.OpenFileStoreReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	return fs.Version()
}
