package obs

import (
	"bufio"
	"io"
	"math"
)

// Repl is the slot of one replication family in ReplStats.
type Repl int

// The replication slots, in exposition order.  The leader hub fills
// the feed, snapshot and tail slots, the follower applier the rest.
const (
	ReplFeedRecords Repl = iota
	ReplFeedBytes
	ReplRetainedBytes
	ReplSnapshots
	ReplSnapshotBytes
	ReplTailRequests
	ReplAppliedRecords
	ReplAppliedLSN
	ReplBootstraps
	ReplReconnects
	ReplFrameErrors
	ReplLagSeconds
	ReplLagBytes
	numRepl
)

// replFamilies declares the replication families, one row per Repl
// slot, in the same form as the index families.
var replFamilies = []desc{
	{"_repl_feed_records_total", kindCounter, aggSum, int(ReplFeedRecords), "Logical records appended to the leader's replication feed.", ""},
	{"_repl_feed_bytes_total", kindCounter, aggSum, int(ReplFeedBytes), "Payload bytes appended to the leader's replication feed.", ""},
	{"_repl_feed_retained_bytes", kindGauge, aggSum, int(ReplRetainedBytes), "Feed payload bytes currently retained for tailing followers.", ""},
	{"_repl_snapshots_total", kindCounter, aggSum, int(ReplSnapshots), "Hot-backup snapshot streams started.", ""},
	{"_repl_snapshot_bytes_total", kindCounter, aggSum, int(ReplSnapshotBytes), "Bytes sent across all hot-backup snapshot streams.", ""},
	{"_repl_tail_requests_total", kindCounter, aggSum, int(ReplTailRequests), "WAL tail (long-poll) requests served.", ""},
	{"_repl_applied_records_total", kindCounter, aggSum, int(ReplAppliedRecords), "Logical records applied to the local replica.", ""},
	{"_repl_applied_lsn", kindGauge, aggSum, int(ReplAppliedLSN), "Last log sequence number applied to the local replica.", ""},
	{"_repl_bootstraps_total", kindCounter, aggSum, int(ReplBootstraps), "Full snapshot bootstraps this follower completed.", ""},
	{"_repl_reconnects_total", kindCounter, aggSum, int(ReplReconnects), "Tail connections the follower re-established after a failure.", ""},
	{"_repl_frame_errors_total", kindCounter, aggSum, int(ReplFrameErrors), "Corrupt or truncated replication frames detected and refused.", ""},
	{"_repl_lag_seconds", kindFloat, aggSum, int(ReplLagSeconds), "Staleness of the replica: seconds since the last applied record was produced.", ""},
	{"_repl_lag_bytes", kindGauge, aggSum, int(ReplLagBytes), "Feed bytes the replica has not yet applied.", ""},
}

// ReplStats is a point-in-time view of the replication layer, filled
// by the leader hub and/or the follower applier (internal/repl) and
// rendered by WriteReplMetrics.  Slots a role does not use stay zero
// and are still exposed, so dashboards see a stable family set.
type ReplStats struct{ v [numRepl]uint64 }

// Set stores counter (or unsigned gauge) r.
func (s *ReplStats) Set(r Repl, v uint64) { s.v[r] = v }

// SetInt stores integer gauge r.
func (s *ReplStats) SetInt(r Repl, v int64) { s.v[r] = uint64(v) }

// SetFloat stores floating-point gauge r.
func (s *ReplStats) SetFloat(r Repl, v float64) { s.v[r] = math.Float64bits(v) }

// Uint returns counter r.
func (s ReplStats) Uint(r Repl) uint64 { return s.v[r] }

// WriteReplMetrics renders the replication families in Prometheus text
// exposition format under the given prefix.
func WriteReplMetrics(w io.Writer, prefix string, st ReplStats) error {
	ew := expWriter{bufio.NewWriter(w)}
	ew.families(prefix, replFamilies, st.v[:], nil)
	return ew.Flush()
}
