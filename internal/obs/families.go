package obs

// kind is the sample type of a metric family.
type kind uint8

// The family kinds.
const (
	kindCounter   kind = iota // monotonically increasing count
	kindGauge                 // integer gauge
	kindFloat                 // floating-point gauge
	kindHistogram             // latency histogram, exposed in seconds
)

// promTypes are the kinds' Prometheus TYPE keywords.
var promTypes = [...]string{kindCounter: "counter", kindGauge: "gauge", kindFloat: "gauge", kindHistogram: "histogram"}

// agg is the rule by which a sharded index folds its registries — one
// per shard plus the front end's own — into the aggregate view.
type agg uint8

// The aggregation rules.
const (
	aggSum   agg = iota // summed over the shards and the front end; each registry counts only its own work
	aggMax              // the largest shard value
	aggMin              // the smallest shard value
	aggFront            // the front end's value alone: it describes the whole fan-out
)

// desc declares one metric family: its exposition name (after the
// section prefix), type, shard-aggregation rule, first storage slot,
// help text and label name ("" for an unlabelled family).  A labelled
// family has one series per value in labelValues, stored in
// consecutive slots.  Counters and gauges occupy Scalar slots,
// histograms Hist slots.
type desc struct {
	name  string
	kind  kind
	agg   agg
	slot  int
	help  string
	label string
}

// labelValues are the values of each family label, in slot order.
var labelValues = map[string][]string{"mode": {"read", "write"}, "phase": phaseNames[:], "op": opNames[:]}

// series returns the number of series (and storage slots) of the family.
func (d *desc) series() int { return max(1, len(labelValues[d.label])) }

// Scalar is the storage slot of one counter or gauge series.
type Scalar int

// The scalar slots, in exposition order.  The labelled op-errors family
// owns NumOps consecutive slots, indexed by Op.
const (
	BufReads Scalar = iota
	BufWrites
	BufHits
	BufEvictions
	BufDirtyWritebacks
	BufLockFreeHits
	FaultTrips
	EpochPins
	SnapNodeHits
	SnapNodeMisses
	SnapPublishes
	SnapVersionsTrimmed
	ChooseSubtree
	NodeVisits
	LeafScans
	Splits
	ForcedReinserts
	Condenses
	OrphansReinserted
	ExpiredPurged
	SubtreesFreed
	BatchedUpdates
	ShardVisits
	ShardsPruned
	Rerouted
	WALAppends
	WALBytes
	WALFsyncs
	Checkpoints
	RecoveryReplayed
	RecoveryDroppedExpired
	ChecksumFailures
	ReshardRuns
	ReshardDualApplied
	ReshardBackfilled
	Height
	Pages
	LeafEntries
	BufResident
	BufPoolPages
	UI
	Horizon
	SpeedBandLo
	SpeedBandHi
	ReshardSkew
	ReshardChurn
	OpErrors
	NumScalars = OpErrors + Scalar(NumOps)
)

// Hist is the storage slot of one histogram series.
type Hist int

// The histogram slots, in exposition order.  The phase and operation
// families own NumPhases and NumOps consecutive slots, indexed by Phase
// and Op.
const (
	LockWaitRead Hist = iota
	LockWaitWrite
	PhaseDuration
)

const (
	RecoveryDuration = PhaseDuration + Hist(NumPhases) + iota
	ReshardCutoverStall
	OpDuration
	NumHists = OpDuration + Hist(NumOps)
)

// families declares every family of the index exposition, in exposition
// order.  It is the single source of the registry layout, snapshot
// deltas, shard aggregation, JSON keys and the Prometheus output.
var families = []desc{
	{"_buffer_reads_total", kindCounter, aggSum, int(BufReads), "Pages read from the store (buffer misses, paper 5.1).", ""},
	{"_buffer_writes_total", kindCounter, aggSum, int(BufWrites), "Pages written to the store.", ""},
	{"_buffer_hits_total", kindCounter, aggSum, int(BufHits), "Page requests served from the buffer.", ""},
	{"_buffer_evictions_total", kindCounter, aggSum, int(BufEvictions), "Buffer frames evicted by LRU replacement.", ""},
	{"_buffer_dirty_writebacks_total", kindCounter, aggSum, int(BufDirtyWritebacks), "Evictions that wrote a dirty frame back first.", ""},
	{"_buffer_lockfree_hits_total", kindCounter, aggSum, int(BufLockFreeHits), "Buffer hits served without taking the pool mutex.", ""},
	{"_storage_fault_trips_total", kindCounter, aggSum, int(FaultTrips), "Injected storage faults that fired.", ""},
	{"_epoch_pins_total", kindCounter, aggSum, int(EpochPins), "Epochs pinned by snapshot traversals.", ""},
	{"_snapshot_node_hits_total", kindCounter, aggSum, int(SnapNodeHits), "Node lookups served lock-free from page version chains.", ""},
	{"_snapshot_node_misses_total", kindCounter, aggSum, int(SnapNodeMisses), "Snapshot node lookups that fell back through the buffer pool.", ""},
	{"_snapshot_publishes_total", kindCounter, aggSum, int(SnapPublishes), "Snapshot publications (atomic root and version swaps by writers).", ""},
	{"_snapshot_versions_trimmed_total", kindCounter, aggSum, int(SnapVersionsTrimmed), "Retired page versions reclaimed after readers moved past them.", ""},
	{"_choose_subtree_total", kindCounter, aggSum, int(ChooseSubtree), "ChooseSubtree descents, one per level (paper 4.2.2).", ""},
	{"_query_node_visits_total", kindCounter, aggSum, int(NodeVisits), "Nodes visited by search and nearest-neighbor queries.", ""},
	{"_query_leaf_entries_scanned_total", kindCounter, aggSum, int(LeafScans), "Leaf entries examined by queries.", ""},
	{"_split_total", kindCounter, aggSum, int(Splits), "Node splits (paper 4.2.2).", ""},
	{"_forced_reinsert_total", kindCounter, aggSum, int(ForcedReinserts), "Forced-reinsertion rounds on node overflow (paper 4.2.2).", ""},
	{"_condense_total", kindCounter, aggSum, int(Condenses), "Underflowing nodes dissolved by CondenseTree (paper 4.3).", ""},
	{"_orphan_reinserted_total", kindCounter, aggSum, int(OrphansReinserted), "Entries placed back via the orphan list (CT3, paper 4.3).", ""},
	{"_expired_purged_total", kindCounter, aggSum, int(ExpiredPurged), "Expired leaf entries lazily purged (paper 4.3).", ""},
	{"_subtree_freed_total", kindCounter, aggSum, int(SubtreesFreed), "Expired internal subtrees deallocated (paper 4.3).", ""},
	{"_batched_updates_total", kindCounter, aggSum, int(BatchedUpdates), "Object reports applied through UpdateBatch.", ""},
	{"_query_shard_visits_total", kindCounter, aggFront, int(ShardVisits), "Shards actually searched by front-end queries.", ""},
	{"_query_shards_pruned_total", kindCounter, aggFront, int(ShardsPruned), "Shards skipped because the query missed their summary.", ""},
	{"_partition_rerouted_total", kindCounter, aggFront, int(Rerouted), "Objects moved between shards on a speed-band change.", ""},
	{"_wal_appends_total", kindCounter, aggSum, int(WALAppends), "Logical records appended to the write-ahead log.", ""},
	{"_wal_bytes_total", kindCounter, aggSum, int(WALBytes), "Bytes appended to the write-ahead log, including checkpoint images.", ""},
	{"_wal_fsyncs_total", kindCounter, aggSum, int(WALFsyncs), "Fsyncs issued on the write-ahead log file.", ""},
	{"_checkpoints_total", kindCounter, aggSum, int(Checkpoints), "Checkpoints completed (pool flush, superblock sync, WAL truncate).", ""},
	{"_recovery_replayed_total", kindCounter, aggSum, int(RecoveryReplayed), "Logical WAL records replayed during recovery.", ""},
	{"_recovery_dropped_expired_total", kindCounter, aggSum, int(RecoveryDroppedExpired), "Replayed inserts skipped because the entry had already expired.", ""},
	{"_checksum_failures_total", kindCounter, aggSum, int(ChecksumFailures), "Page or superblock checksum mismatches detected.", ""},
	{"_reshard_runs_total", kindCounter, aggFront, int(ReshardRuns), "Live reshards completed (cut over to a new generation).", ""},
	{"_reshard_dual_applied_total", kindCounter, aggFront, int(ReshardDualApplied), "Mutations mirrored into an in-flight target generation.", ""},
	{"_reshard_backfilled_total", kindCounter, aggFront, int(ReshardBackfilled), "Snapshot records copied into the target generation by the live reshard.", ""},
	{"_height", kindGauge, aggMax, int(Height), "Tree levels.", ""},
	{"_index_pages", kindGauge, aggSum, int(Pages), "Allocated pages (index size, paper Figure 15).", ""},
	{"_leaf_entries", kindGauge, aggSum, int(LeafEntries), "Stored leaf entries, live plus unpurged expired (paper 5.4).", ""},
	{"_buffer_resident_pages", kindGauge, aggSum, int(BufResident), "Pages currently buffered.", ""},
	{"_buffer_pool_pages", kindGauge, aggSum, int(BufPoolPages), "Buffer pool page capacity.", ""},
	{"_ui_estimate", kindFloat, aggMax, int(UI), "Self-tuned update-interval estimate UI (paper 4.2.3).", ""},
	{"_horizon", kindFloat, aggMax, int(Horizon), "Time horizon H = UI + W (paper 4.2.1).", ""},
	{"_speed_band_lo", kindFloat, aggMin, int(SpeedBandLo), "Lower |velocity| bound of the shard's speed band.", ""},
	{"_speed_band_hi", kindFloat, aggMax, int(SpeedBandHi), "Upper |velocity| bound of the shard's speed band.", ""},
	{"_reshard_skew", kindFloat, aggFront, int(ReshardSkew), "Routing skew last measured by the drift detector (max shard size over even share).", ""},
	{"_reshard_churn", kindFloat, aggFront, int(ReshardChurn), "Re-route churn last measured by the drift detector (re-routes per update).", ""},
	{"_lock_wait_seconds", kindHistogram, aggSum, int(LockWaitRead), "Time operations wait to acquire the tree lock, by mode.", "mode"},
	{"_phase_duration_seconds", kindHistogram, aggSum, int(PhaseDuration), "Latency of internal execution phases (queue wait, page I/O, WAL append and fsync, checkpoint, merge).", "phase"},
	{"_recovery_duration_seconds", kindHistogram, aggSum, int(RecoveryDuration), "Wall-clock duration of WAL recovery passes.", ""},
	{"_reshard_cutover_stall_seconds", kindHistogram, aggFront, int(ReshardCutoverStall), "Exclusive mutation stall taken by each live-reshard cutover.", ""},
	{"_op_errors_total", kindCounter, aggFront, int(OpErrors), "Public operations that returned an error.", "op"},
	{"_op_duration_seconds", kindHistogram, aggFront, int(OpDuration), "Latency of public index operations.", "op"},
}

// scalarDesc and histDesc map every storage slot of the index families
// back to its family; TestFamilySlots checks that every slot of both
// tables belongs to exactly one family.
var scalarDesc, histDesc = layout(families, int(NumScalars), int(NumHists))

// layout maps each storage slot of a family table to its family.
func layout(rows []desc, numScalars, numHists int) (scalars, hists []*desc) {
	scalars, hists = make([]*desc, numScalars), make([]*desc, numHists)
	for i := range rows {
		d := &rows[i]
		for s := d.slot; s < d.slot+d.series(); s++ {
			if d.kind == kindHistogram {
				hists[s] = d
			} else {
				scalars[s] = d
			}
		}
	}
	return scalars, hists
}
