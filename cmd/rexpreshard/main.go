// Command rexpreshard rebuilds a file-backed index under a new shard
// count K′ and, in the same pass, a new partition policy.  It is the
// library's live reshard engine run on a closed index: it opens the
// index as it is stored (manifest, stored layout, durability policy —
// so a crashed durable index first replays its write-ahead logs),
// calls ShardedTree.Reshard, and closes the index.  The engine builds
// the next file generation beside the current one, drops entries
// expired at the index clock, verifies the new generation object for
// object, and commits with one atomic manifest rename.  A failure or
// crash before that rename leaves the original index as it was, and
// rerunning the same command retries.
//
// The source may be a sharded index ("<path>.manifest" plus shard page
// files) or a single tree file at <path> (no manifest).  A single tree
// is adopted as a one-shard generation-0 index (copied to
// "<path>.s0"); the original file is removed only after the commit.
// Version-1 page files, which have no checksums, are opened without
// durability; the new generation is written in the current format, so
// a reshard also migrates them.
//
// Usage:
//
//	rexpreshard -path idx -shards 2 -partition speed
//	rexpreshard -path idx -shards 4 -partition hash -json
//	rexpreshard -path idx -shards 3 -partition speed -bands 0.5,2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rexptree"
	"rexptree/internal/manifest"
)

// result reports what a successful reshard did.
type result struct {
	SourceShards int     `json:"source_shards"`
	SourcePolicy string  `json:"source_policy"` // "single" for an adopted single tree
	TargetShards int     `json:"target_shards"`
	TargetPolicy string  `json:"target_policy"`
	Generation   int     `json:"generation"` // committed file generation
	Clock        float64 `json:"clock"`      // the index clock the reshard ran at

	Scanned int   `json:"entries_scanned"` // stored entries, live and expired
	Expired int   `json:"entries_expired"` // dropped as expired at Clock
	Live    int   `json:"entries_live"`
	Routed  []int `json:"routed_per_shard"`

	BytesWritten int64     `json:"bytes_written"` // committed shard page files
	SpeedBands   []float64 `json:"speed_bands,omitempty"`
	Retuned      bool      `json:"retuned"` // bands derived from the live speeds
}

func parseBands(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	bands := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad speed band %q: %v", p, err)
		}
		bands[i] = v
	}
	return bands, nil
}

func main() {
	var (
		path      = flag.String("path", "", "index base path (its manifest is at <path>.manifest)")
		shards    = flag.Int("shards", 0, "target shard count K'")
		partition = flag.String("partition", "hash", "target partition policy: hash or speed")
		bandsFlag = flag.String("bands", "", "comma-separated speed-band boundaries (speed policy; empty = derive from the live speeds)")
		asJSON    = flag.Bool("json", false, "print the result as JSON instead of the report")
		quiet     = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()

	if *path == "" || *shards < 1 {
		fmt.Fprintln(os.Stderr, "rexpreshard: -path and -shards (>= 1) are required")
		flag.Usage()
		os.Exit(1)
	}
	spec := rexptree.ReshardSpec{Shards: *shards}
	var err error
	if spec.Policy, err = rexptree.ParsePartitionPolicy(*partition); err == nil {
		spec.SpeedBands, err = parseBands(*bandsFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpreshard:", err)
		os.Exit(1)
	}
	logf := func(string, ...any) {}
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "rexpreshard: "+format+"\n", args...)
		}
	}
	res, err := reshard(*path, spec, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpreshard:", err)
		os.Exit(1)
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpreshard:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
		return
	}
	fmt.Printf("source        : %d shard(s), %s\n", res.SourceShards, res.SourcePolicy)
	fmt.Printf("target        : %d shard(s), %s (generation %d)\n", res.TargetShards, res.TargetPolicy, res.Generation)
	fmt.Printf("entries       : %d scanned, %d live, %d expired dropped (clock %.3f)\n",
		res.Scanned, res.Live, res.Expired, res.Clock)
	fmt.Printf("routed        : %v\n", res.Routed)
	if res.TargetPolicy == "speed" {
		tuned := "given"
		if res.Retuned {
			tuned = "re-tuned"
		}
		fmt.Printf("speed bands   : %v (%s)\n", res.SpeedBands, tuned)
	}
	fmt.Printf("bytes written : %d\n", res.BytesWritten)
	fmt.Println("committed     : ok")
}

// reshard runs one open → Reshard → close pass over the index at path.
func reshard(path string, spec rexptree.ReshardSpec, logf func(string, ...any)) (*result, error) {
	// Refuse a bad target before touching anything.
	if spec.Policy == rexptree.PartitionHash && len(spec.SpeedBands) > 0 {
		return nil, errors.New("speed bands given for hash partitioning")
	}
	if err := manifest.ValidateBands(spec.SpeedBands, spec.Shards); err != nil {
		return nil, err
	}

	_, sharded, err := manifest.Read(manifest.Path(path))
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	single := err == nil && fi.Mode().IsRegular()
	switch {
	case sharded && single:
		return nil, fmt.Errorf("%s holds both a sharded index (%s) and a single tree file; remove one of them",
			path, manifest.Path(path))
	case !sharded && !single:
		return nil, fmt.Errorf("no index at %s", path)
	case single:
		if err := adopt(path); err != nil {
			unadopt(path)
			return nil, err
		}
		logf("adopted single tree %s as a one-shard index", path)
	}
	res, err := reshardStored(path, spec, logf)
	if err != nil {
		if single {
			unadopt(path)
		}
		return nil, err
	}
	if single {
		res.SourcePolicy = "single"
		// Committed: the adopted original is garbage now.
		if err := rexptree.RemoveIndex(path); err != nil {
			logf("cleanup: %v (the committed index does not reference this file)", err)
		}
	}
	return res, nil
}

// reshardStored opens the sharded index at path as stored, reshards it
// under spec and closes it.
func reshardStored(path string, spec rexptree.ReshardSpec, logf func(string, ...any)) (*result, error) {
	so, err := rexptree.StoredShardedOptions(path)
	if err != nil {
		return nil, err
	}
	ix, err := rexptree.OpenSharded(so)
	if err != nil {
		return nil, err
	}
	res := &result{
		SourceShards: ix.NumShards(),
		SourcePolicy: ix.Partition().String(),
		TargetShards: spec.Shards,
		TargetPolicy: spec.Policy.String(),
		Clock:        ix.Now(),
		Scanned:      ix.Len(),
	}
	logf("open: %d %s shard(s), generation %d, durability %s, %d entries at clock %.3f",
		res.SourceShards, res.SourcePolicy, ix.Generation(), so.Durability, res.Scanned, res.Clock)

	res.Retuned = spec.Policy == rexptree.PartitionSpeed && spec.Shards > 1 && len(spec.SpeedBands) == 0
	if res.Retuned && !hasLive(ix) {
		ix.Close()
		return nil, errors.New("cannot derive speed bands from an index without live objects; pass explicit -bands")
	}
	if err := ix.Reshard(spec); err != nil {
		ix.Close()
		return nil, err
	}
	res.Generation = ix.Generation()
	res.Live = ix.Len()
	res.Expired = res.Scanned - res.Live
	for i := 0; i < ix.NumShards(); i++ {
		res.Routed = append(res.Routed, ix.ShardMetrics(i).LeafEntries)
	}
	if spec.Policy == rexptree.PartitionSpeed {
		res.SpeedBands = ix.SpeedBands()
	}
	logf("reshard: %d live of %d entries (%d expired) -> %v, generation %d",
		res.Live, res.Scanned, res.Expired, res.Routed, res.Generation)
	if err := ix.Close(); err != nil {
		return nil, fmt.Errorf("closing the resharded index: %w", err)
	}
	for i := range res.Routed {
		if fi, err := os.Stat(manifest.ShardPath(path, res.Generation, i)); err == nil {
			res.BytesWritten += fi.Size()
		}
	}
	return res, nil
}

// hasLive reports whether the index holds an object live at its clock.
func hasLive(ix *rexptree.ShardedTree) bool {
	found := false
	ix.ForEach(ix.Now(), func(rexptree.Result) bool {
		found = true
		return false
	})
	return found
}

// adopt turns the single tree file at path into a one-shard
// generation-0 index: the page file (and its write-ahead log, if the
// tree was durable) is copied to the shard-0 names and a manifest is
// written.  A tree with a log is reopened on-commit, so a crashed one
// recovers; the original files stay untouched.
func adopt(path string) error {
	durability := rexptree.DurabilityNone
	if _, err := os.Stat(rexptree.WALPath(path)); err == nil {
		durability = rexptree.DurabilityOnCommit
		if err := copyFile(rexptree.WALPath(path), rexptree.WALPath(manifest.ShardPath(path, 0, 0))); err != nil {
			return err
		}
	}
	if err := copyFile(path, manifest.ShardPath(path, 0, 0)); err != nil {
		return err
	}
	return manifest.Write(manifest.Path(path), manifest.Manifest{
		Version:    manifest.Version,
		Shards:     1,
		Hash:       manifest.Hash,
		Partition:  rexptree.PartitionHash.String(),
		Durability: durability.String(),
	})
}

// unadopt removes what adopt and a failed reshard left beside the
// single tree file, which is again the only copy of the index.
func unadopt(path string) {
	manifest.CleanStale(path)
	os.Remove(manifest.Path(path))
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
