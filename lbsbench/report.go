package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// printReport writes the human-readable report: config, notes, then
// every metric by name and unit.
func printReport(rep *report) {
	c := rep.Config
	fmt.Printf("# lbsbench %s seed %d, %.0f s, trace %d\n", c.Workload, c.Seed, c.Seconds, c.Trace)
	fmt.Printf("# host: %d CPU, GOMAXPROCS %d, %s, rev %s, source sha256 %.12s\n",
		c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.GitRev, c.SourceSHA256)
	fmt.Printf("# rexpd flags: %s\n", strings.Join(c.RexpdFlags, " "))
	fmt.Printf("# offered: %.0f reports/s in %d-report batches, %.0f queries/s; latency limit %.0f ms\n",
		c.ReportRate, c.BatchSize, c.QueryRate, c.LimitMs)
	for _, n := range rep.Notes {
		fmt.Printf("# note: %s\n", n)
	}
	res := rep.Result
	fmt.Printf("# correct %v, attempted %d, failed %d (fail_ratio %.6f)\n",
		res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("%-44s %14.6g %s\n", k, m.Value, m.Unit)
	}
	names = names[:0]
	for k := range rep.Info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.Info[k]
		fmt.Printf("%-44s %14.6g %s  (informational, not gated)\n", k, m.Value, m.Unit)
	}
}

// sourceIdentity returns the git revision of the checkout at root, if
// it is a git work tree, and a SHA-256 over the Go sources and module
// files under root, which identifies the code even where git is absent.
func sourceIdentity(root string) (rev, sum string) {
	rev = "unknown"
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				h = strings.TrimSpace(string(b))
			} else {
				h = packedRef(root, ref)
			}
		}
		if h != "" {
			rev = h
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return rev, hex.EncodeToString(h.Sum(nil))
}

func packedRef(root, ref string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return ""
}
