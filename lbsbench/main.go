// Command lbsbench is the repository's end-to-end benchmark: it starts
// rexpd as a separate process, drives it over HTTP with open-loop
// traffic generated from the paper's §5.1 network scenario, checks the
// answers against a brute-force oracle, and prints every metric by name
// and unit.  With -trace 1 it instead hosts the same layers in-process
// and reports per-layer metrics from spans, counters and a CPU profile.
//
// Usage (from the repository root; lbsbench/run.sh builds both binaries):
//
//	lbsbench -rexpd <binary> -workload lbs-mixed -seed 1 -seconds 16 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gated lists the end-to-end metrics that BENCHMARK.json bounds; a
// measured run's result line carries exactly these.  The other
// end-to-end metrics are printed for information only: their
// run-to-run spread on a 2-CPU host is wider than the largest bound a
// regression gate may use (README.md has the measured spreads).
var gated = map[string]bool{
	"server_cpu_cores": true, "setup_s": true, "rss_mb": true,
	"index_bytes_per_object": true, "page_io_per_report": true, "nodes_per_query": true,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "lbs-mixed", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 16, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
		rexpd   = flag.String("rexpd", "", "rexpd binary (required for -trace 0)")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for index files, spans and profiles")
		outPath = flag.String("out", "", "also write the full report (config, phases, metrics) as JSON here")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lbsbench: "+format+"\n", args...)
	}
	spec, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	wd, err := filepath.Abs(*workdir)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(wd, 0o755); err != nil {
		fail(err)
	}

	rep := &report{
		Config: hostConfig(spec, *seed, *seconds, *trace),
	}
	var res result
	if *trace == 1 {
		res, err = runTraced(spec, *seed, *seconds, wd, rep, logf)
	} else {
		if *rexpd == "" {
			fail(fmt.Errorf("-rexpd is required"))
		}
		res, err = runMeasured(spec, *seed, *seconds, *rexpd, wd, rep, logf)
	}
	if err != nil {
		fail(err)
	}
	rep.Result = res
	if *outPath != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	printReport(rep)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lbsbench: %v\n", err)
	os.Exit(1)
}

// report is everything a run knows, printed for humans before the
// result line and optionally written as JSON.
type report struct {
	Config  config         `json:"config"`
	Details map[string]any `json:"details,omitempty"`
	// Info holds the end-to-end metrics printed but not gated.
	Info   map[string]metric `json:"informational,omitempty"`
	Notes  []string          `json:"notes,omitempty"`
	Result result            `json:"result"`
}

func (r *report) detail(key string, v any) {
	if r.Details == nil {
		r.Details = map[string]any{}
	}
	r.Details[key] = v
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// config records the host and settings behind a result.
type config struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Trace        int       `json:"trace"`
	NumCPU       int       `json:"num_cpu"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	GoVersion    string    `json:"go_version"`
	GitRev       string    `json:"git_rev"`
	SourceSHA256 string    `json:"source_sha256"`
	RexpdFlags   []string  `json:"rexpd_flags"`
	Objects      int       `json:"objects"`
	NewOb        float64   `json:"new_ob"`
	BatchSize    int       `json:"batch_size"`
	ReportRate   float64   `json:"report_rate_per_s"`
	QueryRate    float64   `json:"query_rate_per_s"`
	LimitMs      float64   `json:"latency_limit_ms"`
	ReportLadder []float64 `json:"report_ladder_per_s"`
	QueryLadder  []float64 `json:"query_ladder_per_s"`
	Started      string    `json:"started"`
}

func hostConfig(spec *workloadSpec, seed int64, seconds float64, trace int) config {
	rev, sum := sourceIdentity(".")
	return config{
		Workload: spec.Name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: rev, SourceSHA256: sum,
		RexpdFlags: spec.rexpdFlags("<workdir>/idx"),
		Objects:    spec.Objects, NewOb: spec.NewOb, BatchSize: spec.BatchSize,
		ReportRate: spec.ReportRate, QueryRate: spec.QueryRate,
		LimitMs:      spec.LimitMs,
		ReportLadder: spec.ReportLadder, QueryLadder: spec.QueryLadder,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// rexpdFlags returns the daemon flags of the workload (after -addr).
func (w *workloadSpec) rexpdFlags(idx string) []string {
	var flags []string
	if w.Partition != "" {
		flags = append(flags, "-partition", w.Partition)
	}
	if w.Durable {
		flags = append(flags, "-path", idx, "-durability", "on-commit")
	}
	return flags
}
