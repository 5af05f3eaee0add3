package main

// The -replbench mode: measure the replication stream end to end and
// publish BENCH_repl.json.  Three questions, three phases:
//
//  1. Catch-up: how fast does a cold follower converge?  The leader is
//     preloaded, then a follower bootstraps over HTTP and tails until
//     level; the report gives the transferred bytes and MB/s.
//  2. Steady state: with the follower level and the leader ingesting a
//     continuous update stream, how far behind does the follower run?
//     Sampled apply lag (seconds and bytes), mean and max.
//  3. Leader overhead: the leader's sustained UpdateBatch throughput
//     with no replication attached vs with a follower tailing — the
//     cost of feeding the stream, as a percentage.
//
// Everything runs in-process on temp dirs (the follower still goes
// through real HTTP over a loopback listener, exercising the same
// frames, endpoints and applier the production path uses).

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rexptree"
	"rexptree/internal/obs"
	"rexptree/internal/repl"
)

type replReport struct {
	Config  replBenchConfig  `json:"config"`
	Catchup replCatchup      `json:"catchup"`
	Steady  replSteady       `json:"steady"`
	Leader  replLeaderReport `json:"leader"`
}

type replBenchConfig struct {
	Objects   int     `json:"objects"`
	Shards    int     `json:"shards"`
	DurationS float64 `json:"duration_s"`
	Seed      int64   `json:"seed"`
}

type replCatchup struct {
	Records  int     `json:"records"`
	Bytes    int64   `json:"bytes"`
	Seconds  float64 `json:"seconds"`
	MBPerSec float64 `json:"mb_per_sec"`
}

type replSteady struct {
	Applied     uint64  `json:"applied_records"`
	MeanLagS    float64 `json:"mean_lag_s"`
	MaxLagS     float64 `json:"max_lag_s"`
	MaxLagBytes int64   `json:"max_lag_bytes"`
	FinalLagS   float64 `json:"final_lag_s"`
	UpdatesPerS float64 `json:"leader_updates_per_sec"`
	FrameErrors uint64  `json:"frame_errors"`
	Reconnects  uint64  `json:"reconnects"`
}

type replLeaderReport struct {
	AlonePerSec     float64 `json:"alone_per_sec"`
	StreamingPerSec float64 `json:"streaming_per_sec"`
	OverheadPct     float64 `json:"overhead_pct"`
}

// runReplBench measures the replication stream; see the file comment.
func runReplBench(objects, shards int, durationSec float64, seed int64, out string, progress func(string)) error {
	dir, err := os.MkdirTemp("", "rexp-replbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	report := replReport{Config: replBenchConfig{
		Objects: objects, Shards: shards, DurationS: durationSec, Seed: seed,
	}}
	phaseDur := time.Duration(durationSec * float64(time.Second))
	rng := rand.New(rand.NewSource(seed))

	// Phase 3a first (cheapest to isolate): leader throughput with no
	// replication hub attached, on its own index.
	alone, err := leaderRate(filepath.Join(dir, "alone"), shards, objects, phaseDur, rng, nil)
	if err != nil {
		return err
	}
	report.Leader.AlonePerSec = alone
	progress(fmt.Sprintf("rexpbench: leader alone: %.0f updates/s", alone))

	// The replicated leader: durable index + hub + loopback HTTP.
	leaderBase := filepath.Join(dir, "leader")
	opts := rexptree.DefaultOptions()
	opts.Path = leaderBase
	opts.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: shards})
	if err != nil {
		return err
	}
	defer ix.Close()
	hub := repl.NewHub(ix, repl.DefaultRetainBytes)
	defer hub.Close()

	mux := http.NewServeMux()
	mux.Handle("GET /v1/backup", hub.BackupHandler())
	mux.Handle("GET /v1/wal", hub.WALHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: mux}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	leaderURL := "http://" + ln.Addr().String()

	// Preload, then measure a cold follower's catch-up over HTTP.
	clock := 0.0
	preload := func() error {
		batch := make([]rexptree.Report, 0, 512)
		for i := 0; i < objects; i++ {
			clock += 0.001
			batch = append(batch, benchReport(rng, uint32(i), clock))
			if len(batch) == cap(batch) {
				if err := ix.UpdateBatch(batch, clock); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			return ix.UpdateBatch(batch, clock)
		}
		return nil
	}
	if err := preload(); err != nil {
		return err
	}

	app, err := repl.NewApplier(repl.ApplierOptions{
		Leader: leaderURL,
		Dir:    filepath.Join(dir, "follower"),
		Logf:   func(format string, args ...any) { progress(fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		return err
	}
	defer app.Close()

	t0 := time.Now()
	if err := app.Open(context.Background()); err != nil {
		return err
	}
	app.Start()
	head, _ := hub.Feed().Head()
	for app.AppliedLSN() < head-1 {
		time.Sleep(5 * time.Millisecond)
	}
	catchup := time.Since(t0).Seconds()
	hst := hub.Stats()
	bytes := int64(hst.Uint(obs.ReplSnapshotBytes)) + int64(hst.Uint(obs.ReplFeedBytes))
	report.Catchup = replCatchup{
		Records: objects,
		Bytes:   bytes,
		Seconds: catchup,
	}
	if catchup > 0 {
		report.Catchup.MBPerSec = float64(bytes) / (1 << 20) / catchup
	}
	progress(fmt.Sprintf("rexpbench: follower caught up: %d records, %.1f MiB in %.2fs (%.1f MB/s)",
		objects, float64(bytes)/(1<<20), catchup, report.Catchup.MBPerSec))

	// Steady state: continuous leader updates, sampled follower lag.
	var (
		lagSamples []float64
		maxLagS    float64
		maxLagB    int64
	)
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-t.C:
				s := app.LagSeconds()
				lagSamples = append(lagSamples, s)
				if s > maxLagS {
					maxLagS = s
				}
				if b := app.LagBytes(); b > maxLagB {
					maxLagB = b
				}
			}
		}
	}()

	updated, clock2, err := updateStream(ix, objects, clock, phaseDur, rng)
	if err != nil {
		return err
	}
	clock = clock2
	report.Leader.StreamingPerSec = float64(updated) / durationSec
	report.Steady.UpdatesPerS = report.Leader.StreamingPerSec

	// Let the follower drain before closing the books on lag.
	head, _ = hub.Feed().Head()
	deadline := time.Now().Add(30 * time.Second)
	for app.AppliedLSN() < head-1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stopSample)
	<-sampleDone

	ast := app.Stats()
	mean := 0.0
	for _, s := range lagSamples {
		mean += s
	}
	if len(lagSamples) > 0 {
		mean /= float64(len(lagSamples))
	}
	report.Steady.Applied = ast.Uint(obs.ReplAppliedRecords)
	report.Steady.MeanLagS = mean
	report.Steady.MaxLagS = maxLagS
	report.Steady.MaxLagBytes = maxLagB
	report.Steady.FinalLagS = app.LagSeconds()
	report.Steady.FrameErrors = ast.Uint(obs.ReplFrameErrors)
	report.Steady.Reconnects = ast.Uint(obs.ReplReconnects)
	if report.Leader.AlonePerSec > 0 {
		report.Leader.OverheadPct = 100 * (1 - report.Leader.StreamingPerSec/report.Leader.AlonePerSec)
	}
	progress(fmt.Sprintf("rexpbench: steady state: %.0f updates/s at the leader, follower lag mean %.0fms max %.0fms (leader overhead %.1f%%)",
		report.Steady.UpdatesPerS, 1000*mean, 1000*maxLagS, report.Leader.OverheadPct))

	// Stop the tail loop before reporting so its reconnect logging does
	// not interleave with the summary (the deferred Close is a no-op).
	if err := app.Close(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	progress("rexpbench: wrote " + out)
	return nil
}

// leaderRate measures sustained UpdateBatch throughput on a fresh
// durable index with no replication attached.
func leaderRate(base string, shards, objects int, dur time.Duration, rng *rand.Rand, _ any) (float64, error) {
	opts := rexptree.DefaultOptions()
	opts.Path = base
	opts.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: shards})
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	// Same preload shape as the replicated run, so the two throughput
	// phases mutate trees of equal population.
	clock := 0.0
	batch := make([]rexptree.Report, 0, 512)
	for i := 0; i < objects; i++ {
		clock += 0.001
		batch = append(batch, benchReport(rng, uint32(i), clock))
		if len(batch) == cap(batch) {
			if err := ix.UpdateBatch(batch, clock); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := ix.UpdateBatch(batch, clock); err != nil {
			return 0, err
		}
	}
	n, _, err := updateStream(ix, objects, clock, dur, rng)
	if err != nil {
		return 0, err
	}
	return float64(n) / dur.Seconds(), nil
}

// updateStream drives continuous batched position updates for dur and
// returns how many were applied and the advanced clock.
func updateStream(ix *rexptree.ShardedTree, objects int, clock float64, dur time.Duration, rng *rand.Rand) (int, float64, error) {
	const chunk = 256
	deadline := time.Now().Add(dur)
	n := 0
	batch := make([]rexptree.Report, chunk)
	for time.Now().Before(deadline) {
		for i := range batch {
			clock += 0.001
			batch[i] = benchReport(rng, uint32(rng.Intn(objects)), clock)
		}
		if err := ix.UpdateBatch(batch, clock); err != nil {
			return n, clock, err
		}
		n += chunk
	}
	return n, clock, nil
}

func benchReport(rng *rand.Rand, id uint32, t float64) rexptree.Report {
	return rexptree.Report{
		ID: id,
		Point: rexptree.Point{
			Time: t,
			Pos:  [3]float64{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  [3]float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
		},
	}
}
