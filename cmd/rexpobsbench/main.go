// Command rexpobsbench measures the overhead of the observability
// layer: it replays identical update and query workloads against an
// uninstrumented tree (nil *obs.Metrics — the nil fast path) and an
// instrumented one (metrics attached, no observer), and writes the
// measured throughputs and their relative difference as JSON.
//
// The two trees are driven in lockstep — every operation is timed on
// both back to back, alternating which goes first — so scheduler and
// thermal drift hits both sides equally instead of biasing whichever
// configuration happened to run during a slow spell.
//
// The acceptance budget for the instrumentation is a <2% throughput
// regression; CI runs this via `make bench-obs`, which writes
// BENCH_obs.json.
//
// Usage:
//
//	rexpobsbench [-scale 0.02] [-seed 1] [-rounds 5] [-out BENCH_obs.json]
//	rexpobsbench -trace [-scale 0.02] [-seed 1] [-rounds 5] [-out BENCH_trace.json]
//
// With -trace it instead measures the execution-tracing layer (see
// trace.go): the disabled-tracing regression against the same <2%
// budget, plus the informational cost of running with the flight
// recorder enabled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

// result is one measured configuration.
type result struct {
	Updates        int     `json:"updates"`
	Queries        int     `json:"queries"`
	UpdateSeconds  float64 `json:"update_seconds"`
	QuerySeconds   float64 `json:"query_seconds"`
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	SplitsObserved uint64  `json:"splits_observed,omitempty"`
}

type report struct {
	Scale              float64 `json:"scale"`
	Seed               int64   `json:"seed"`
	Rounds             int     `json:"rounds"`
	Baseline           result  `json:"baseline"`     // nil *obs.Metrics
	Instrumented       result  `json:"instrumented"` // metrics attached, nil observer
	UpdateRegressionPc float64 `json:"update_regression_pct"`
	QueryRegressionPc  float64 `json:"query_regression_pct"`
}

// genOps materializes the deterministic workload plus extra query
// rounds (so the query-side measurement is not dominated by timer
// resolution at small scales).
func genOps(scale float64, seed int64) ([]workload.Op, error) {
	gen, err := workload.NewGenerator(workload.Params{Seed: seed}.Scale(scale))
	if err != nil {
		return nil, err
	}
	var ops []workload.Op
	var last float64
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
		last = op.Time
	}
	q := geom.Window(geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{250, 250}}, last, last+10)
	for i := 0; i < 2000; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpQuery, Query: q, Time: last})
	}
	return ops, nil
}

func newTree(seed int64, met *obs.Metrics) (*core.Tree, error) {
	return core.New(core.Config{
		Dims:        2,
		ExpireAware: true,
		AlgsUseExp:  true,
		Seed:        seed,
		Metrics:     met,
	}, storage.NewMemStore())
}

// runPaired replays ops against a fresh baseline and a fresh
// instrumented tree in lockstep, timing each operation on both.  The
// returned results are index 0 = baseline, index 1 = instrumented.
func runPaired(ops []workload.Op, seed int64) ([2]result, error) {
	var res [2]result
	met := obs.New()
	var trees [2]*core.Tree
	for i, m := range []*obs.Metrics{nil, met} {
		t, err := newTree(seed, m)
		if err != nil {
			return res, err
		}
		trees[i] = t
	}
	var updateTime, queryTime [2]time.Duration
	apply := func(t *core.Tree, op workload.Op) (time.Duration, error) {
		start := time.Now()
		var err error
		switch op.Kind {
		case workload.OpInsert:
			err = t.Insert(op.OID, op.Point, op.Time)
		case workload.OpDelete:
			_, err = t.Delete(op.OID, op.Point, op.Time)
		default:
			_, err = t.Search(op.Query, op.Time)
		}
		return time.Since(start), err
	}
	for i, op := range ops {
		// Alternate which tree goes first so shared-state warming
		// (code caches, allocator) does not favour one side.
		first := i % 2
		for _, side := range []int{first, 1 - first} {
			d, err := apply(trees[side], op)
			if err != nil {
				return res, err
			}
			if op.Kind == workload.OpQuery {
				queryTime[side] += d
			} else {
				updateTime[side] += d
			}
		}
		if op.Kind == workload.OpQuery {
			res[0].Queries, res[1].Queries = res[0].Queries+1, res[1].Queries+1
		} else {
			res[0].Updates, res[1].Updates = res[0].Updates+1, res[1].Updates+1
		}
	}
	for side := range res {
		res[side].UpdateSeconds = updateTime[side].Seconds()
		res[side].QuerySeconds = queryTime[side].Seconds()
		if res[side].UpdateSeconds > 0 {
			res[side].UpdatesPerSec = float64(res[side].Updates) / res[side].UpdateSeconds
		}
		if res[side].QuerySeconds > 0 {
			res[side].QueriesPerSec = float64(res[side].Queries) / res[side].QuerySeconds
		}
	}
	res[1].SplitsObserved = met.Load(obs.Splits)
	return res, nil
}

// best folds b into a, keeping the higher update and query throughput
// independently.  Noise can only slow a round down, so the per-metric
// maximum over rounds converges to the configuration's true speed.
// The seconds fields are re-derived to stay consistent.
func best(a, b result) result {
	if a.Updates == 0 {
		return b
	}
	if b.UpdatesPerSec > a.UpdatesPerSec {
		a.UpdatesPerSec = b.UpdatesPerSec
	}
	if b.QueriesPerSec > a.QueriesPerSec {
		a.QueriesPerSec = b.QueriesPerSec
	}
	if a.UpdatesPerSec > 0 {
		a.UpdateSeconds = float64(a.Updates) / a.UpdatesPerSec
	}
	if a.QueriesPerSec > 0 {
		a.QuerySeconds = float64(a.Queries) / a.QueriesPerSec
	}
	return a
}

func main() {
	var (
		scale  = flag.Float64("scale", 0.02, "fraction of the paper's workload scale")
		seed   = flag.Int64("seed", 1, "workload and tree seed")
		rounds = flag.Int("rounds", 5, "measurement rounds; the best throughput of each configuration is kept")
		out    = flag.String("out", "", "output file (- for stdout); defaults to BENCH_obs.json, or BENCH_trace.json with -trace")
		trace  = flag.Bool("trace", false, "measure the tracing layer (disabled regression + recorder-on overhead) instead of the base metrics overhead")
	)
	flag.Parse()
	if *out == "" {
		if *trace {
			*out = "BENCH_trace.json"
		} else {
			*out = "BENCH_obs.json"
		}
	}

	if *trace {
		if err := runTraceBench(*scale, *seed, *rounds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "rexpobsbench:", err)
			os.Exit(1)
		}
		return
	}

	ops, err := genOps(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpobsbench:", err)
		os.Exit(1)
	}
	rep := report{Scale: *scale, Seed: *seed, Rounds: *rounds}
	// Warmup round, discarded: cold caches and lazy runtime state
	// would otherwise land on the first measured round.
	if _, err := runPaired(ops, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "rexpobsbench:", err)
		os.Exit(1)
	}
	for i := 0; i < *rounds; i++ {
		pair, err := runPaired(ops, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpobsbench:", err)
			os.Exit(1)
		}
		rep.Baseline = best(rep.Baseline, pair[0])
		rep.Instrumented = best(rep.Instrumented, pair[1])
	}
	if rep.Baseline.UpdatesPerSec > 0 {
		rep.UpdateRegressionPc = 100 * (1 - rep.Instrumented.UpdatesPerSec/rep.Baseline.UpdatesPerSec)
	}
	if rep.Baseline.QueriesPerSec > 0 {
		rep.QueryRegressionPc = 100 * (1 - rep.Instrumented.QueriesPerSec/rep.Baseline.QueriesPerSec)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpobsbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rexpobsbench:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "rexpobsbench: update regression %.2f%%, query regression %.2f%% (budget <2%%)\n",
		rep.UpdateRegressionPc, rep.QueryRegressionPc)
}
