package main

import (
	"fmt"

	"rexptree/internal/workload"
)

// workloadSpec is one traffic mix; BENCHMARK.json and README.md say
// why each was chosen.  Every workload uses the paper's
// network scenario (§5.1) with its default expiry ExpT = 2·UI; they
// differ in population, server configuration and offered load.
type workloadSpec struct {
	Name string

	Objects int     // live objects, about (the generator's Params.Objects)
	NewOb   float64 // fraction of objects turned off and replaced over the stream

	Partition string // rexpd -partition: hash (the default) or speed
	Durable   bool   // -path in the work directory, -durability on-commit

	BatchSize  int     // reports per POST /v1/batch
	ReportRate float64 // reports/s offered in the fixed-rate phase
	QueryRate  float64 // queries/s offered in the fixed-rate phase

	// LimitMs caps the tail latency of updates and of queries on a
	// passing capacity-ladder step.
	LimitMs float64

	// Fixed rate ladders, ascending: capacity is the highest step whose
	// tail latency meets the limit with no growing send backlog.
	ReportLadder []float64 // reports/s
	QueryLadder  []float64 // queries/s
}

// params returns the generator parameters of the workload.
func (w *workloadSpec) params(seed int64) workload.Params {
	return workload.Params{
		Seed:       seed,
		Objects:    w.Objects,
		Insertions: 40 * w.Objects,
		NewOb:      w.NewOb,
		// UI = 60 and ExpT = 2·UI are the generator's paper defaults.
		QueriesPerInsertions: 1 << 30, // queries come from queryPool
	}
}

// ladder returns n steps growing geometrically by factor from lo.
func ladder(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	x := lo
	for i := range out {
		out[i] = float64(int(x + 0.5))
		x *= factor
	}
	return out
}

var workloads = []*workloadSpec{
	{
		Name:         "lbs-mixed",
		Objects:      20000,
		NewOb:        1,
		BatchSize:    100,
		ReportRate:   5000,
		QueryRate:    100,
		LimitMs:      50,
		ReportLadder: ladder(800, 1.06, 63),
		QueryLadder:  ladder(150, 1.06, 63),
	},
	{
		Name:         "lbs-query-heavy",
		Objects:      20000,
		NewOb:        1,
		Partition:    "speed",
		BatchSize:    10,
		ReportRate:   200,
		QueryRate:    600,
		LimitMs:      20,
		ReportLadder: ladder(400, 1.06, 63),
		QueryLadder:  ladder(300, 1.06, 63),
	},
	{
		Name:         "durable-ingest",
		Objects:      100000,
		NewOb:        0,
		Durable:      true,
		BatchSize:    10,
		ReportRate:   600,
		QueryRate:    50,
		LimitMs:      100,
		ReportLadder: ladder(300, 1.06, 63),
		QueryLadder:  ladder(100, 1.06, 63),
	},
}

// The query mix: every nearestEvery-th query is a k-nearest query with
// k = nearestK, asked at least nearestLead time units after the server
// clock.  rexpd rejects a nearest query with a 400 when a concurrent
// batch moves a shard's clock past the query's time between the server
// resolving "+N" and the shard checking it (TestNearestAtClockUnderIngest
// reproduces this); the lead is about 30 batches of lbs-mixed, so the
// timed runs measure the query path instead of that race.
const (
	nearestEvery = 5
	nearestK     = 10
	nearestLead  = 10.0
)

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
