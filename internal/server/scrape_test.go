package server

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rexptree/internal/obs"
)

// TestBenchmarkScrapeNamesExist keeps the serving benchmark honest.
// lbsbench computes its end-to-end figures (page_io_per_report,
// nodes_per_query, ...) from /metrics series it names literally, and
// reads a missing series as 0 — so a renamed family would show up as a
// gain rather than an error.  Every rexp_ name in lbsbench's sources,
// with the histogram _bucket/_sum/_count suffixes stripped, must be a
// family of a served /metrics response carrying the index, replication
// and runtime sections.
func TestBenchmarkScrapeNamesExist(t *testing.T) {
	hs, _ := newTestServer(t, func(c *Config) {
		c.ReplStats = func() obs.ReplStats { return obs.ReplStats{} }
	})
	_, body := get(t, hs.URL+"/metrics")
	families := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(rest)[0]] = true
		}
	}
	for _, section := range []string{"rexp_buffer_reads_total", "rexp_repl_feed_bytes_total", "rexp_go_goroutines"} {
		if !families[section] {
			t.Fatalf("served /metrics lacks %s; the index, replication and runtime sections must all be present", section)
		}
	}

	srcs, err := filepath.Glob(filepath.Join("..", "..", "lbsbench", "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no lbsbench sources found (%v)", err)
	}
	nameRe := regexp.MustCompile(`rexp_[a-z0-9_]*[a-z0-9]`)
	suffixRe := regexp.MustCompile(`_(bucket|sum|count)$`)
	read := map[string]string{} // family -> source file
	for _, src := range srcs {
		code, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range nameRe.FindAllString(string(code), -1) {
			read[suffixRe.ReplaceAllString(name, "")] = filepath.Base(src)
		}
	}
	if len(read) == 0 {
		t.Fatal("no rexp_ names found in the lbsbench sources")
	}
	for name, src := range read {
		if !families[name] {
			t.Errorf("lbsbench/%s reads %s, which /metrics does not serve", src, name)
		}
	}
}
