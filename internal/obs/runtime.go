package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
)

// runtimeSample maps one runtime/metrics sample to an exposed family.
// Histogram-kinded samples are summarized as quantile gauges rather
// than full histograms: the Go runtime's bucket layouts are dense and
// version-dependent, and the operational questions ("is GC pausing
// us?", "is the scheduler backed up?") are answered by the tail.
type runtimeSample struct {
	path      string // runtime/metrics key
	name      string // exposition suffix after <prefix>_go
	typ, help string
}

var runtimeSamples = []runtimeSample{
	{"/sched/goroutines:goroutines", "_goroutines", "gauge", "Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "_heap_objects_bytes", "gauge", "Bytes of allocated heap objects."},
	{"/memory/classes/total:bytes", "_memory_total_bytes", "gauge", "All memory mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "_gc_cycles_total", "counter", "Completed GC cycles."},
	{"/gc/pauses:seconds", "_gc_pause_seconds", "gauge", "Distribution of GC stop-the-world pause latencies (quantile gauges)."},
	{"/sched/latencies:seconds", "_sched_latency_seconds", "gauge", "Distribution of goroutine scheduling latencies (quantile gauges)."},
}

var runtimeQuantiles = []float64{0.5, 0.99, 1}

// WriteRuntimeMetrics writes a Go runtime health section (goroutines,
// heap and total memory, GC cycles, GC pause and scheduler latency
// quantiles) in Prometheus text format under <prefix>_go_*.  Samples
// the current runtime/metrics keys; keys missing from the running
// toolchain are skipped silently.
func WriteRuntimeMetrics(w io.Writer, prefix string) error {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.path
	}
	metrics.Read(samples)

	ew := expWriter{bufio.NewWriter(w)}
	for i, rs := range runtimeSamples {
		name := prefix + "_go" + rs.name
		v := samples[i].Value
		if v.Kind() == metrics.KindBad {
			continue
		}
		ew.header(name, rs.typ, rs.help)
		switch v.Kind() {
		case metrics.KindUint64:
			ew.sample(name, "", strconv.FormatUint(v.Uint64(), 10))
		case metrics.KindFloat64:
			ew.sample(name, "", formatFloat(v.Float64()))
		case metrics.KindFloat64Histogram:
			h := v.Float64Histogram()
			for _, q := range runtimeQuantiles {
				ew.sample(name, `quantile="`+formatFloat(q)+`"`, formatFloat(histQuantile(h, q)))
			}
		}
	}
	return ew.Flush()
}

// histQuantile estimates quantile q of a runtime Float64Histogram as
// the upper edge of the first bucket whose cumulative count reaches
// q of the total.  Returns 0 for an empty histogram; an unbounded top
// bucket reports the largest finite edge.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	thresh := uint64(q * float64(total))
	if thresh == 0 {
		thresh = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= thresh {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			edge := h.Buckets[i+1]
			if edge > maxFinite(h.Buckets) {
				edge = maxFinite(h.Buckets)
			}
			return edge
		}
	}
	return maxFinite(h.Buckets)
}

func maxFinite(edges []float64) float64 {
	for i := len(edges) - 1; i >= 0; i-- {
		if !math.IsInf(edges[i], 0) {
			return edges[i]
		}
	}
	return 0
}

// WithRuntimeMetrics wraps a metrics handler so the response carries
// the tree exposition followed by the <prefix>_go_* runtime section.
func WithRuntimeMetrics(h http.Handler, prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		WriteRuntimeMetrics(w, prefix)
	})
}

// RegisterPprof mounts the net/http/pprof handlers on mux under the
// standard /debug/pprof/ paths.  Serve-mode CLIs call this instead of
// importing net/http/pprof for its DefaultServeMux side effect, which
// would expose the profiles on any default-mux server.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
