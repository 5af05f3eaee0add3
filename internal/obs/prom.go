package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
)

// DefaultPrefix is the metric-name prefix of a stand-alone tree's
// exposition.  Sharded front-ends write one section per shard with the
// shard's own prefix (rexp_shard0, rexp_shard1, ...) so a single
// scrape distinguishes the sub-indexes.
const DefaultPrefix = "rexp"

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// formatScalar renders a raw scalar slot value of the given kind.
func formatScalar(k kind, v uint64) string {
	switch k {
	case kindGauge:
		return strconv.FormatInt(int64(v), 10)
	case kindFloat:
		return formatFloat(math.Float64frombits(v))
	}
	return strconv.FormatUint(v, 10)
}

// expWriter writes the Prometheus text exposition format (version
// 0.0.4).  The index, replication and runtime sections all go through
// it.
type expWriter struct{ *bufio.Writer }

// header announces one family.
func (w expWriter) header(name, typ, help string) {
	w.WriteString("# HELP ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(help)
	w.WriteString("\n# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(typ)
	w.WriteByte('\n')
}

// sample writes one sample line; labels is empty for an unlabelled
// series, else the rendered pairs without braces (op="update").
func (w expWriter) sample(name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// leLabels are the rendered bucket bounds: le="1e-06", ..., le="+Inf".
var leLabels = func() (l [NumBuckets]string) {
	for i := range l {
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		l[i] = `le="` + le + `"`
	}
	return l
}()

// hist writes one histogram series: the cumulative buckets, the sum
// and the count.
func (w expWriter) hist(name, labels string, h *HistSnapshot) {
	var cum uint64
	for i, le := range leLabels {
		cum += h.Buckets[i]
		if labels != "" {
			le = labels + "," + le
		}
		w.sample(name+"_bucket", le, strconv.FormatUint(cum, 10))
	}
	w.sample(name+"_sum", labels, formatFloat(h.SumSeconds))
	w.sample(name+"_count", labels, strconv.FormatUint(h.Count, 10))
}

// families writes every family of rows, reading counter and gauge
// slots from scalars and histogram slots from hists.
func (w expWriter) families(prefix string, rows []desc, scalars []uint64, hists []HistSnapshot) {
	for i := range rows {
		f := &rows[i]
		name := prefix + f.name
		w.header(name, promTypes[f.kind], f.help)
		for j := 0; j < f.series(); j++ {
			var labels string
			if f.label != "" {
				labels = f.label + `="` + labelValues[f.label][j] + `"`
			}
			if f.kind == kindHistogram {
				w.hist(name, labels, &hists[f.slot+j])
			} else {
				w.sample(name, labels, formatScalar(f.kind, scalars[f.slot+j]))
			}
		}
	}
}

// WriteSnapshot writes the snapshot in the Prometheus text exposition
// format (version 0.0.4) under the default "rexp" name prefix.  The
// output is deterministic for a given snapshot, which the golden-file
// test relies on.
func WriteSnapshot(w io.Writer, s Snapshot) error { return WriteSharded(w, s, nil) }

// WriteSharded writes a multi-section exposition: the aggregate
// snapshot under the default prefix followed by one section per shard
// under rexp_shard<i>.
func WriteSharded(w io.Writer, agg Snapshot, shards []Snapshot) error {
	ew := expWriter{bufio.NewWriter(w)}
	ew.families(DefaultPrefix, families, agg.scalars[:], agg.hists[:])
	for i := range shards {
		ew.families(DefaultPrefix+"_shard"+strconv.Itoa(i), families, shards[i].scalars[:], shards[i].hists[:])
	}
	return ew.Flush()
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the snapshots produced by
// snap in Prometheus text format.  snap is called once per request,
// so it can refresh gauges before freezing the state.
func Handler(snap func() Snapshot) http.Handler {
	return ShardedHandler(func() (Snapshot, []Snapshot) { return snap(), nil })
}

// ShardedHandler returns an http.Handler serving WriteSharded's
// multi-section exposition of the snapshots produced by snap.
func ShardedHandler(snap func() (agg Snapshot, shards []Snapshot)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		agg, shards := snap()
		// A failed write leaves the response partially sent; nothing
		// useful can be reported to the client.
		WriteSharded(w, agg, shards)
	})
}
