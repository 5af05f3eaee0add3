package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a measured run spawns and preloads rexpd;
// setup_s is their median, and the last one serves the timed phases.
const setupReps = 3

// Shares of -seconds: the warm-up, the fixed-rate phase, and each probe
// of the two capacity ladders, which take at most maxProbes probes each.
const (
	warmShare  = 0.05
	fixedShare = 0.7
	probeShare = 0.05
	maxProbes  = 3
)

// runMeasured is the untraced run: rexpd as a child process, driven over
// HTTP, reporting the end-to-end metrics.
func runMeasured(spec *workloadSpec, seed int64, seconds float64, bin, wd string, rep *report, logf func(string, ...any)) (result, error) {
	r, err := newRun(spec, seed, seconds, logf)
	if err != nil {
		return result{}, err
	}
	logf("%s seed %d: %d preload reports, %d pooled queries", spec.Name, seed, r.preloadReports(), len(r.queries))
	dir, err := workDir(wd, fmt.Sprintf("%s-%d", spec.Name, os.Getpid()))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	// Set-up: spawn and preload setupReps times; keep the last daemon.
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		idx := filepath.Join(dir, fmt.Sprintf("s%d", i), "idx")
		if err := os.MkdirAll(filepath.Dir(idx), 0o755); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		d, err = startDaemon(bin, spec.rexpdFlags(idx))
		if err != nil {
			return result{}, err
		}
		r.connect(d.base)
		if err := r.load(); err != nil {
			d.kill()
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			d.kill()
			os.RemoveAll(filepath.Dir(idx))
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	r.attempted += len(r.preload)
	logf("setup: %.3f s (median of %v)", median(setups), setups)
	rep.detail("setup_s_reps", setups)

	res, err := r.measure(d.base, d.cmd.Process.Pid, rep)
	if err != nil {
		return res, err
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}

	ok, err := r.gate(d.base, rep)
	if err != nil {
		return res, err
	}
	res.Correct = ok
	if spec.Durable {
		ok, err := r.crashCheck(bin, d, filepath.Join(dir, fmt.Sprintf("s%d", setupReps-1), "idx"), rep)
		d = nil // crashCheck owns and stops the daemon
		if err != nil {
			return res, err
		}
		res.Correct = res.Correct && ok
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	rep.detail("failures", r.failures)
	for k, m := range res.Metrics {
		if !gated[k] {
			if rep.Info == nil {
				rep.Info = map[string]metric{}
			}
			rep.Info[k] = m
			delete(res.Metrics, k)
		}
	}
	return res, nil
}

// measure runs the warm-up, the fixed-rate phase and the ladders
// against base and fills the end-to-end metrics other than set-up.
func (r *run) measure(base string, pid int, rep *report) (result, error) {
	spec := r.spec
	res := result{Metrics: map[string]metric{}}
	mc := newClient()

	wi, wq, err := r.phase(r.secs(warmShare), spec.ReportRate, spec.QueryRate, 0)
	if err != nil {
		return res, err
	}
	r.count(wi, wq)
	before, err := scrapeMetrics(mc, base)
	if err != nil {
		return res, err
	}
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return res, err
	}
	rss := sampleRSS(pid, 200*time.Millisecond)
	ing, qry, err := r.phase(r.secs(fixedShare), spec.ReportRate, spec.QueryRate, 0)
	elapsed := time.Since(r.lastStart).Seconds()
	rssKB := median(rss())
	if err != nil {
		return res, err
	}
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return res, err
	}
	after, err := scrapeMetrics(mc, base)
	if err != nil {
		return res, err
	}
	st, err := fetchStats(mc, base)
	if err != nil {
		return res, err
	}
	// The peak up to here: set-up, warm-up and the fixed phase, not the
	// overload probes that follow.
	hwm, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return res, err
	}
	r.count(ing, qry)
	is, qs := reduce(ing), reduce(qry)
	delta := after.sub(before)
	reports := float64(is.completed * spec.BatchSize)

	res.Metrics["update_p50_ms"] = metric{is.lat.P50, "ms"}
	res.Metrics["update_p99_ms"] = metric{is.lat.Tail, "ms"}
	res.Metrics["query_p50_ms"] = metric{qs.lat.P50, "ms"}
	res.Metrics["query_p99_ms"] = metric{qs.lat.Tail, "ms"}
	res.Metrics["server_cpu_cores"] = metric{(cpu1 - cpu0) / elapsed, "cores"}
	res.Metrics["rss_peak_mb"] = metric{hwm / 1024, "MB"}
	res.Metrics["rss_mb"] = metric{rssKB / 1024, "MB"}
	res.Metrics["index_bytes_per_object"] = metric{ratio(float64(st.Pages)*4096, float64(st.Objects)), "B"}
	res.Metrics["page_io_per_report"] = metric{ratio(delta.get("rexp_buffer_reads_total")+delta.get("rexp_buffer_writes_total"), reports), "pages"}
	res.Metrics["nodes_per_query"] = metric{ratio(delta.get("rexp_query_node_visits_total"), float64(qs.completed)), "nodes"}
	rep.detail("fixed_phase", map[string]any{
		"update_latency_ms": is.lat, "query_latency_ms": qs.lat,
		"update_requests": is.attempted, "query_requests": qs.attempted,
		"update_failed": is.failed + is.unsent, "query_failed": qs.failed + qs.unsent,
		"lag_p99_ms": summarize(append(is.lagMs, qs.lagMs...)).at(99),
		"objects":    st.Objects, "pages": st.Pages, "height": st.Height,
	})
	r.log("fixed phase: update p50 %.2f p99 %.2f ms (n=%d, tail p%g %.2f), query p50 %.2f p99 %.2f ms (n=%d)",
		is.lat.P50, is.lat.at(99), is.lat.N, is.lat.TailP, is.lat.Tail, qs.lat.P50, qs.lat.at(99), qs.lat.N)

	// Each ladder walk starts just below the rate one connection could
	// sustain at the fixed phase's service time.
	probe := r.secs(probeShare)
	capR, stepsR, err := r.capacity(true, spec.ReportLadder, spec.LimitMs,
		0.85*ratio(float64(spec.BatchSize)*1000, is.serviceMs), probe, maxProbes)
	if err != nil {
		return res, err
	}
	capQ, stepsQ, err := r.capacity(false, spec.QueryLadder, spec.LimitMs,
		0.85*ratio(1000, qs.serviceMs), probe, maxProbes)
	if err != nil {
		return res, err
	}
	res.Metrics["capacity_reports_per_s"] = metric{capR, "1/s"}
	res.Metrics["capacity_queries_per_s"] = metric{capQ, "1/s"}
	rep.detail("report_ladder", stepsR)
	rep.detail("query_ladder", stepsQ)
	return res, nil
}

// sampleRSS samples the process's resident set (VmRSS, in kB) every
// period until the returned function is called, which stops the
// sampler and returns the samples.
func sampleRSS(pid int, period time.Duration) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var kb []float64
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- kb
				return
			case <-t.C:
				if v, err := procStatusKB(pid, "VmRSS"); err == nil {
					kb = append(kb, v)
				}
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}
