package repl

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"rexptree"
	"rexptree/internal/obs"
)

// BackupMeta is the backup stream's leading frame: everything a
// receiver needs to lay the files down and resume tailing.  StartLSN /
// StartOff name the feed position pinned for the whole stream — every
// record from there on is retained until the stream ends, so a
// receiver that bootstraps from this snapshot can always tail from
// StartLSN without a gap (re-applying the WAL tail records the
// snapshot already contains is idempotent).
type BackupMeta struct {
	Version    int             `json:"version"`
	Epoch      uint64          `json:"epoch"`
	StartLSN   uint64          `json:"start_lsn"`
	StartOff   uint64          `json:"start_off"`
	Shards     int             `json:"shards"`
	Generation int             `json:"generation"`
	Manifest   json.RawMessage `json:"manifest"`
}

// ShardHeader is the per-shard ShardBegin frame: exactly PageBytes of
// page-chunk payload and WALBytes of WAL-chunk payload follow.
type ShardHeader struct {
	Shard     int   `json:"shard"`
	PageBytes int64 `json:"page_bytes"`
	WALBytes  int64 `json:"wal_bytes"`
}

// TailHeader is the tail stream's leading frame; Head/HeadOff are the
// feed's current head (which may lie beyond this response's last
// record when the batch was clipped at maxTailBatch) — the receiver
// derives its byte lag from them.
type TailHeader struct {
	Epoch   uint64 `json:"epoch"`
	From    uint64 `json:"from"`
	Head    uint64 `json:"head"`
	HeadOff uint64 `json:"head_off"`
}

// TailTrailer is the tail stream's terminator; it repeats the head so
// a receiver can check it saw every promised record.
type TailTrailer struct {
	Head    uint64 `json:"head"`
	HeadOff uint64 `json:"head_off"`
}

// ProtocolVersion is bumped on any incompatible stream-format change.
const ProtocolVersion = 1

// maxTailBatch bounds one tail response's record payload.
const maxTailBatch = 1 << 20

// longPollWindow is how long an empty tail request parks before
// returning an empty (heartbeat) response.
const longPollWindow = 20 * time.Second

// Hub is the leader side: it owns the replication feed (attached to
// the index as its ReplSink) and serves the snapshot and tail streams.
type Hub struct {
	ix   *rexptree.ShardedTree
	feed *Feed

	// Logf reports stream failures that cannot reach the client as an
	// HTTP status (the stream is already flowing).  Defaults to
	// log.Printf.
	Logf func(format string, args ...any)

	snapshots     atomic.Uint64
	snapshotBytes atomic.Uint64
	tailRequests  atomic.Uint64
}

// NewHub attaches a fresh feed to ix and returns the hub serving it.
// retainBytes bounds the feed's retained window (<= 0 means
// DefaultRetainBytes); a follower that falls further behind than the
// window is told to re-bootstrap.
func NewHub(ix *rexptree.ShardedTree, retainBytes int64) *Hub {
	h := &Hub{ix: ix, feed: NewFeed(retainBytes), Logf: log.Printf}
	ix.SetReplSink(h.feed)
	return h
}

// Feed exposes the hub's feed (tests and benches).
func (h *Hub) Feed() *Feed { return h.feed }

// Close detaches the feed from the index.
func (h *Hub) Close() { h.ix.SetReplSink(nil) }

// Stats returns the leader-side replication counters.
func (h *Hub) Stats() obs.ReplStats {
	recs, bytes, retained := h.feed.Stats()
	var st obs.ReplStats
	st.Set(obs.ReplFeedRecords, recs)
	st.Set(obs.ReplFeedBytes, bytes)
	st.SetInt(obs.ReplRetainedBytes, retained)
	st.Set(obs.ReplSnapshots, h.snapshots.Load())
	st.Set(obs.ReplSnapshotBytes, h.snapshotBytes.Load())
	st.Set(obs.ReplTailRequests, h.tailRequests.Load())
	return st
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func writeJSONFrame(fw *FrameWriter, kind byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return fw.WriteFrame(kind, body)
}

// BackupHandler serves GET /v1/backup: one consistent snapshot stream.
// Failures after the stream has started are surfaced by cutting the
// connection before the BackupEnd terminator — the receiver sees a
// truncated stream and discards it; a complete stream is always a
// consistent image.
func (h *Hub) BackupHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.snapshots.Add(1)

		// Pin the feed head first: every record from startLSN on stays
		// retained until this stream finishes, so the image plus the
		// tail from startLSN is gapless no matter how long the copy
		// takes or how far the leader moves meanwhile.
		startLSN, startOff, release := h.feed.Pin()
		defer release()

		b, err := h.ix.BeginBackup()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer b.Close()
		manifestBytes, err := b.ManifestBytes()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}

		w.Header().Set("Content-Type", "application/octet-stream")
		cw := &countWriter{w: w}
		defer func() { h.snapshotBytes.Add(uint64(cw.n)) }()
		fw := NewFrameWriter(cw)

		meta := BackupMeta{
			Version:    ProtocolVersion,
			Epoch:      h.feed.Epoch(),
			StartLSN:   startLSN,
			StartOff:   startOff,
			Shards:     b.Shards(),
			Generation: b.Generation(),
			Manifest:   json.RawMessage(manifestBytes),
		}
		if err := writeJSONFrame(fw, FrameMeta, meta); err != nil {
			h.Logf("repl: backup stream: %v", err)
			return
		}
		for i := 0; i < b.Shards(); i++ {
			if err := h.streamShard(fw, b, i); err != nil {
				h.Logf("repl: backup stream aborted at shard %d: %v", i, err)
				return
			}
		}
		// The shard images are sent; only now, with the whole-backup
		// validation passed, is the stream declared complete.
		if err := b.Validate(); err != nil {
			h.Logf("repl: backup stream aborted: %v", err)
			return
		}
		if err := writeJSONFrame(fw, FrameBackupEnd, struct{}{}); err != nil {
			h.Logf("repl: backup stream: %v", err)
		}
	})
}

// streamShard freezes one shard and streams its page file and WAL
// prefix as chunk frames.
func (h *Hub) streamShard(fw *FrameWriter, b *rexptree.Backup, i int) error {
	bs, err := b.BeginShard(i)
	if err != nil {
		return err
	}
	defer bs.End()
	hdr := ShardHeader{Shard: i, PageBytes: bs.PageBytes, WALBytes: bs.WALBytes}
	if err := writeJSONFrame(fw, FrameShardBegin, hdr); err != nil {
		return err
	}
	if err := streamFilePrefix(fw, FramePageChunk, bs.PagePath, bs.PageBytes); err != nil {
		return err
	}
	if bs.WALBytes > 0 {
		if err := streamFilePrefix(fw, FrameWALChunk, bs.WALPath, bs.WALBytes); err != nil {
			return err
		}
	}
	// The bytes are on the wire; check nothing rewrote them under us
	// before marking the shard complete.
	if err := bs.Validate(); err != nil {
		return err
	}
	return writeJSONFrame(fw, FrameShardEnd, struct {
		Shard int `json:"shard"`
	}{i})
}

// streamFilePrefix sends the first n bytes of path as chunk frames of
// the given kind, reading through its own descriptor so the live
// index's handles are untouched.
func streamFilePrefix(fw *FrameWriter, kind byte, path string, n int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, ChunkSize)
	for n > 0 {
		c := int64(len(buf))
		if c > n {
			c = n
		}
		if _, err := io.ReadFull(f, buf[:c]); err != nil {
			return fmt.Errorf("repl: reading %s: %w", path, err)
		}
		if err := fw.WriteFrame(kind, buf[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// WALHandler serves GET /v1/wal?from=<lsn>&epoch=<epoch>: the logical
// record tail from LSN from.  An empty response (TailMeta directly
// followed by TailEnd) is a heartbeat carrying the current head; the
// handler long-polls up to longPollWindow before sending one.  A from
// below the retained window, or an epoch from another leader
// incarnation, gets 410 Gone: the follower must re-bootstrap.
func (h *Hub) WALHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.tailRequests.Add(1)
		q := r.URL.Query()
		from, err := strconv.ParseUint(q.Get("from"), 10, 64)
		if err != nil || from == 0 {
			http.Error(w, "repl: invalid or missing from= parameter", http.StatusBadRequest)
			return
		}
		epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
		if err != nil {
			http.Error(w, "repl: invalid or missing epoch= parameter", http.StatusBadRequest)
			return
		}
		if epoch != h.feed.Epoch() {
			http.Error(w, ErrGone.Error(), http.StatusGone)
			return
		}

		// The wait channel is taken before the read: an append landing
		// between the two closes this channel, so the park below can
		// never miss it and stall a full window with records pending.
		appended := h.feed.Wait()
		recs, head, headOff, err := h.feed.ReadFrom(from, maxTailBatch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		if len(recs) == 0 {
			// Nothing new: park until an append, the client leaves, or
			// the window elapses (heartbeat).
			timer := time.NewTimer(longPollWindow)
			select {
			case <-appended:
			case <-r.Context().Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			timer.Stop()
			recs, head, headOff, err = h.feed.ReadFrom(from, maxTailBatch)
			if err != nil {
				http.Error(w, err.Error(), http.StatusGone)
				return
			}
		}

		w.Header().Set("Content-Type", "application/octet-stream")
		fw := NewFrameWriter(w)
		hdr := TailHeader{Epoch: epoch, From: from, Head: head, HeadOff: headOff}
		if err := writeJSONFrame(fw, FrameTailMeta, hdr); err != nil {
			return
		}
		var body []byte
		for _, rec := range recs {
			body = EncodeRecordFrame(body, rec.LSN, rec.Off, rec.Payload)
			if err := fw.WriteFrame(FrameRecord, body); err != nil {
				return
			}
		}
		writeJSONFrame(fw, FrameTailEnd, TailTrailer{Head: head, HeadOff: headOff})
	})
}
