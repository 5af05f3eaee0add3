package rexptree

import (
	"fmt"
	"os"

	"rexptree/internal/core"
	"rexptree/internal/hull"
	"rexptree/internal/manifest"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// ReplSink observes every mutation a tree applies, in apply order.  A
// sharded index calls the sink under the owning shard's exclusive lock
// immediately after the mutation succeeds (and, in WAL mode, before
// the commit fsync), so the sink sees exactly the applied history: a
// failed mutation is never emitted, and two mutations of one object
// arrive in their apply order.  internal/repl's Feed implements this
// to build the leader's replication log.
//
// Implementations must be fast and must not call back into the index.
type ReplSink interface {
	ReplUpdate(u wal.Update)
	ReplDelete(d wal.Delete)
}

// StoredOptions reads the layout-affecting configuration recorded in a
// shard page file's metadata (dimensions, bounding-rectangle kind,
// expiration flags) and returns Options that open the file faithfully,
// with every non-layout field at its DefaultOptions value.  A follower
// uses it to open a replica streamed from a leader whose tree
// configuration it was never told.
func StoredOptions(pagePath string) (Options, error) {
	fs, err := storage.OpenFileStoreReadOnly(pagePath)
	if err != nil {
		return Options{}, err
	}
	defer fs.Close()
	cfg, err := core.MetaConfig(fs)
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	opts.Dims = cfg.Dims
	opts.ExpireAware = cfg.ExpireAware
	opts.StoreBRExpiration = cfg.StoreBRExp
	// Expiration-aware heuristics follow the expire-aware layout flag:
	// that pairing is how both stock configurations are built.
	opts.HeuristicsUseExpiration = cfg.ExpireAware
	switch cfg.BRKind {
	case hull.KindStatic:
		opts.Bounding = Static
	case hull.KindUpdateMinimum:
		opts.Bounding = UpdateMinimum
	case hull.KindNearOptimal:
		opts.Bounding = NearOptimal
	case hull.KindOptimal:
		opts.Bounding = Optimal
	default:
		opts.Bounding = Conservative
	}
	return opts, nil
}

// StoredShardedOptions reads the file-backed sharded index at base as
// it is stored — its manifest, then shard 0's layout through
// StoredOptions — and returns ShardedOptions that reopen it
// faithfully: the manifest's shard count, partition policy and
// durability policy, with the recorded speed bands applied by
// OpenSharded itself, and every other field at its default.  Opening
// the result runs normal recovery, so a crashed durable index replays
// its write-ahead logs.  A missing manifest is reported as an error
// wrapping os.ErrNotExist.
func StoredShardedOptions(base string) (ShardedOptions, error) {
	man, found, err := manifest.Read(manifest.Path(base))
	if err != nil {
		return ShardedOptions{}, fmt.Errorf("rexptree: %w", err)
	}
	if !found {
		return ShardedOptions{}, fmt.Errorf("rexptree: %w: no manifest at %s", os.ErrNotExist, manifest.Path(base))
	}
	opts, err := StoredOptions(manifest.ShardPath(base, man.Generation, 0))
	if err != nil {
		return ShardedOptions{}, fmt.Errorf("rexptree: reading the stored layout of %s: %w", base, err)
	}
	opts.Path = base
	if opts.Durability, err = ParseDurability(man.Durability); err != nil {
		return ShardedOptions{}, err
	}
	so := ShardedOptions{Options: opts, Shards: man.Shards}
	if so.Partition, err = ParsePartitionPolicy(man.Partition); err != nil {
		return ShardedOptions{}, err
	}
	return so, nil
}

// replNoteUpdate forwards an applied update to the sink, if any.
// Called under mu after the apply succeeded.
func (tr *Tree) replNoteUpdate(id uint32, p Point, now float64) {
	if tr.replSink == nil {
		return
	}
	u := wal.Update{ID: id, Now: now, Time: p.Time, Expires: p.Expires}
	copy(u.Pos[:], p.Pos[:])
	copy(u.Vel[:], p.Vel[:])
	tr.replSink.ReplUpdate(u)
}

// replNoteDelete forwards an applied deletion to the sink, if any.
func (tr *Tree) replNoteDelete(id uint32, now float64) {
	if tr.replSink == nil {
		return
	}
	tr.replSink.ReplDelete(wal.Delete{ID: id, Now: now})
}

// SetReplSink attaches sink to every current shard (nil detaches).  A
// live-reshard cutover carries the sink over to the new generation, so
// emission never pauses across a reshard; during the dual-apply window
// only the current generation emits, so no mutation is ever emitted
// twice.
func (s *ShardedTree) SetReplSink(sink ReplSink) {
	s.rerouteMu.Lock()
	defer s.rerouteMu.Unlock()
	s.replSink = sink
	for _, t := range s.cur.Load().shards {
		t.mu.Lock()
		t.replSink = sink
		t.mu.Unlock()
	}
}

// beginStream freezes this tree's on-disk image for a backup stream:
// it defers checkpoints (ckptHold), so the page file stays the exact
// image of the last checkpoint while it is copied and the WAL only
// grows — the retained-segment guarantee.  Taking the exclusive lock
// once is the barrier against a checkpoint already in flight; the WAL
// flush makes every applied record visible in the file.  It returns
// the WAL length to stream and the snapshot epoch to validate against;
// callers must endStream exactly once.
func (tr *Tree) beginStream() (walLen int64, epoch uint64, err error) {
	tr.ckptHold.Add(1)
	tr.lock()
	defer tr.mu.Unlock()
	if tr.closed || tr.wal == nil || tr.walPoison != nil {
		tr.ckptHold.Add(-1)
		if tr.walPoison != nil {
			return 0, 0, tr.walPoison
		}
		return 0, 0, fmt.Errorf("rexptree: tree is not streamable (closed or not durable)")
	}
	if err := tr.wal.Flush(); err != nil {
		tr.ckptHold.Add(-1)
		return 0, 0, err
	}
	return tr.wal.Size(), tr.snapEpoch.Load(), nil
}

// endStream releases the checkpoint hold taken by beginStream.
func (tr *Tree) endStream() { tr.ckptHold.Add(-1) }

// Backup is a consistent, pinned view of a sharded index for a hot
// backup: the generation pin keeps the shard files on disk (a reshard
// retiring this generation waits for the pin), and each shard is
// streamed under its own checkpoint hold.  Close releases the pin;
// always call it.
type Backup struct {
	s    *ShardedTree
	g    *generation
	done bool
}

// BeginBackup pins the current generation for streaming.  It requires
// a file-backed, durable index: only the WAL + checkpoint machinery
// makes the on-disk files a crash-consistent image.
func (s *ShardedTree) BeginBackup() (*Backup, error) {
	if s.basePath == "" || s.durability == DurabilityNone {
		return nil, fmt.Errorf("rexptree: hot backup requires a file-backed index with a durability policy")
	}
	return &Backup{s: s, g: s.pin()}, nil
}

// Shards returns the pinned generation's shard count.
func (b *Backup) Shards() int { return len(b.g.shards) }

// Generation returns the pinned generation's shard-file generation
// number, as recorded in the manifest.
func (b *Backup) Generation() int { return b.g.gen }

// ManifestBytes returns the manifest file's raw contents, after
// checking the pinned generation is still current — a reshard that cut
// over since BeginBackup has rewritten the manifest for a different
// shard set, so the stream must abort rather than mix the two.
func (b *Backup) ManifestBytes() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return os.ReadFile(manifest.Path(b.s.basePath))
}

// Validate reports whether the pinned generation is still the current
// one.  Stream producers call it before declaring the stream complete;
// a failure must abort the stream loudly.
func (b *Backup) Validate() error {
	if b.s.cur.Load() != b.g {
		return fmt.Errorf("rexptree: backup invalidated: the index resharded while streaming")
	}
	return nil
}

// Close releases the generation pin.  Idempotent.
func (b *Backup) Close() {
	if !b.done {
		b.done = true
		b.g.unpin()
	}
}

// BackupShard is one shard frozen for streaming: read PageBytes bytes
// of PagePath and WALBytes bytes of WALPath (both prefixes are stable
// while the shard's checkpoint hold is in place), call Validate, then
// End.  Concurrent zero-fills of free pages may tear inside the page
// prefix; recovery never reads free pages, so the image stays
// crash-consistent.
type BackupShard struct {
	PagePath  string
	WALPath   string
	PageBytes int64
	WALBytes  int64

	tr    *Tree
	epoch uint64
}

// BeginShard freezes shard i for streaming.  Callers must End the
// returned shard exactly once.
func (b *Backup) BeginShard(i int) (*BackupShard, error) {
	if i < 0 || i >= len(b.g.shards) {
		return nil, fmt.Errorf("rexptree: backup shard %d out of range [0,%d)", i, len(b.g.shards))
	}
	tr := b.g.shards[i]
	walLen, epoch, err := tr.beginStream()
	if err != nil {
		return nil, err
	}
	base := manifest.ShardPath(b.s.basePath, b.g.gen, i)
	fi, err := os.Stat(base)
	if err != nil {
		tr.endStream()
		return nil, err
	}
	return &BackupShard{
		PagePath:  base,
		WALPath:   WALPath(base),
		PageBytes: fi.Size(),
		WALBytes:  walLen,
		tr:        tr,
		epoch:     epoch,
	}, nil
}

// Validate reports whether the streamed prefixes are still the frozen
// image: a checkpoint or WAL rewind since BeginShard (a manual
// checkpoint, a close, a failed mutation's rollback) bumps the shard's
// snapshot epoch and invalidates the bytes already sent.
func (bs *BackupShard) Validate() error {
	if bs.tr.snapEpoch.Load() != bs.epoch {
		return fmt.Errorf("rexptree: backup shard invalidated: the shard checkpointed or rewound its WAL while streaming")
	}
	return nil
}

// End releases the shard's checkpoint hold.
func (bs *BackupShard) End() { bs.tr.endStream() }
