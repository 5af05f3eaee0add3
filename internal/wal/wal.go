// Package wal implements the per-tree append-only write-ahead log of
// the durability subsystem.  The log carries two things:
//
//   - Logical redo records (RecUpdate, RecDelete): each public mutation
//     is appended before it is applied to the buffered tree, so a crash
//     can replay the operations since the last checkpoint.
//   - Checkpoint page images (CkptBegin, CkptPage..., CkptCommit): when
//     the tree checkpoints, every dirty buffer page is first imaged to
//     the log and fsynced, and only then written to the page file —
//     a double-write that makes a torn page-file write recoverable by
//     re-applying the images.
//
// Frames are length-prefixed and CRC32C-checksummed; a torn tail (a
// short, bit-flipped or half-written last frame) terminates the scan
// cleanly instead of corrupting replay, and Analyze reports it along
// with the valid-prefix offset so recovery can cut it off before
// appending (TruncateTail).  After a successful checkpoint the log is
// truncated to empty.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// Kind identifies a WAL record type.
type Kind uint8

// The record kinds.  Values are persisted on disk; append only.
const (
	// RecUpdate logs one object report: the public-point fields plus
	// the tree clock at which the update was applied.
	RecUpdate Kind = 1
	// RecDelete logs the removal of one object.
	RecDelete Kind = 2
	// CkptBegin opens a checkpoint image set.
	CkptBegin Kind = 3
	// CkptPage carries the image of one page (id + PageSize bytes).
	CkptPage Kind = 4
	// CkptCommit closes a checkpoint image set and records the page
	// count of the imaged state.
	CkptCommit Kind = 5
)

const (
	frameHdrSize = 8 // [len u32][crc32c u32]

	// maxPayload bounds a frame payload: a checkpoint page image plus
	// its header is the largest legitimate record.  A corrupt length
	// prefix beyond this terminates the scan.
	maxPayload = storage.PageSize + 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Update is the decoded payload of a RecUpdate record.  Pos and Vel
// are the public (report-time) coordinates; Now is the tree clock at
// which the update was applied.
type Update struct {
	ID      uint32
	Now     float64
	Time    float64
	Expires float64
	Pos     [3]float64
	Vel     [3]float64
}

// Delete is the decoded payload of a RecDelete record.
type Delete struct {
	ID  uint32
	Now float64
}

// Record is one decoded WAL record.  Exactly the fields for its Kind
// are meaningful.
type Record struct {
	Kind   Kind
	Update Update         // RecUpdate
	Delete Delete         // RecDelete
	Page   storage.PageID // CkptPage
	Data   []byte         // CkptPage image (len PageSize, aliases scan buffer)
	Pages  int            // CkptCommit: page count of the imaged state
}

// EncodeUpdate appends the RecUpdate payload for u to dst.
func EncodeUpdate(dst []byte, u Update) []byte {
	dst = append(dst, byte(RecUpdate))
	dst = binary.LittleEndian.AppendUint32(dst, u.ID)
	for _, f := range [...]float64{u.Now, u.Time, u.Expires,
		u.Pos[0], u.Pos[1], u.Pos[2], u.Vel[0], u.Vel[1], u.Vel[2]} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// EncodeDelete appends the RecDelete payload for d to dst.
func EncodeDelete(dst []byte, d Delete) []byte {
	dst = append(dst, byte(RecDelete))
	dst = binary.LittleEndian.AppendUint32(dst, d.ID)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Now))
}

// encode sizes of the fixed payloads, including the kind byte.
const (
	updateSize     = 1 + 4 + 9*8
	deleteSize     = 1 + 4 + 8
	ckptPageSize   = 1 + 4 + storage.PageSize
	ckptCommitSize = 1 + 4
)

// DecodeRecord decodes one logical record payload — the bytes
// EncodeUpdate/EncodeDelete produce, as scanned from a log or carried
// on a replication feed — into rec.
func DecodeRecord(p []byte, rec *Record) error { return decodePayload(p, rec) }

// decodePayload decodes one frame payload into rec.
func decodePayload(p []byte, rec *Record) error {
	if len(p) == 0 {
		return errors.New("wal: empty payload")
	}
	rec.Kind = Kind(p[0])
	switch rec.Kind {
	case RecUpdate:
		if len(p) != updateSize {
			return fmt.Errorf("wal: update payload is %d bytes, want %d", len(p), updateSize)
		}
		u := &rec.Update
		u.ID = binary.LittleEndian.Uint32(p[1:])
		fs := p[5:]
		for i, dst := range [...]*float64{&u.Now, &u.Time, &u.Expires,
			&u.Pos[0], &u.Pos[1], &u.Pos[2], &u.Vel[0], &u.Vel[1], &u.Vel[2]} {
			*dst = math.Float64frombits(binary.LittleEndian.Uint64(fs[i*8:]))
		}
	case RecDelete:
		if len(p) != deleteSize {
			return fmt.Errorf("wal: delete payload is %d bytes, want %d", len(p), deleteSize)
		}
		rec.Delete.ID = binary.LittleEndian.Uint32(p[1:])
		rec.Delete.Now = math.Float64frombits(binary.LittleEndian.Uint64(p[5:]))
	case CkptBegin:
		if len(p) != 1 {
			return fmt.Errorf("wal: ckpt-begin payload is %d bytes, want 1", len(p))
		}
	case CkptPage:
		if len(p) != ckptPageSize {
			return fmt.Errorf("wal: ckpt-page payload is %d bytes, want %d", len(p), ckptPageSize)
		}
		rec.Page = storage.PageID(binary.LittleEndian.Uint32(p[1:]))
		rec.Data = p[5:]
	case CkptCommit:
		if len(p) != ckptCommitSize {
			return fmt.Errorf("wal: ckpt-commit payload is %d bytes, want %d", len(p), ckptCommitSize)
		}
		rec.Pages = int(binary.LittleEndian.Uint32(p[1:]))
	default:
		return fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	return nil
}

// Writer appends framed records to a WAL file through a buffered
// writer.  It is not safe for concurrent use; the tree's exclusive
// lock serializes appends.
type Writer struct {
	f    *os.File
	bw   *bufio.Writer
	size int64 // bytes appended since the last Reset (flushed or not)
	met  *obs.Metrics

	// Hook, when non-nil, is called at WAL lifecycle points ("append",
	// "flush", "sync", "ckpt-page", "reset") before the step runs; a
	// non-nil return aborts the step with that error.  Crash tests use
	// it to stop the world at exact injection points.
	Hook func(event string) error
}

// Create opens (creating or truncating to its current content) the WAL
// file at path for appending.  An existing non-empty file is preserved
// — the caller decides whether to scan or reset it.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), size: st.Size()}, nil
}

// SetMetrics attaches an instrument registry.
func (w *Writer) SetMetrics(m *obs.Metrics) { w.met = m }

// Size returns the log's current size in bytes, counting buffered
// appends that have not reached the file yet.
func (w *Writer) Size() int64 { return w.size }

func (w *Writer) hook(event string) error {
	if w.Hook == nil {
		return nil
	}
	return w.Hook(event)
}

// Append frames the payload and appends it to the buffered log.  The
// bytes are not durable until Flush (into the OS) and Sync (onto the
// device).
func (w *Writer) Append(payload []byte) error {
	if err := w.hook("append"); err != nil {
		return err
	}
	var start time.Time
	if w.met != nil {
		start = time.Now()
	}
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += int64(frameHdrSize + len(payload))
	if w.met != nil {
		w.met.Add(obs.WALBytes, uint64(frameHdrSize+len(payload)))
		w.met.ObservePhase(obs.PhaseWALAppend, time.Since(start))
	}
	return nil
}

// Flush pushes buffered frames into the OS.
func (w *Writer) Flush() error {
	if err := w.hook("flush"); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Sync flushes and fsyncs the log; after Sync returns, every appended
// frame survives a crash.
func (w *Writer) Sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.hook("sync"); err != nil {
		return err
	}
	var start time.Time
	if w.met != nil {
		start = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.met != nil {
		w.met.Inc(obs.WALFsyncs)
		w.met.ObservePhase(obs.PhaseWALFsync, time.Since(start))
	}
	return nil
}

// Reset truncates the log to empty and fsyncs the truncation — the
// final step of a checkpoint, after the page file holds the imaged
// state.
func (w *Writer) Reset() error {
	if err := w.hook("reset"); err != nil {
		return err
	}
	w.bw.Reset(w.f)
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var start time.Time
	if w.met != nil {
		start = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.met != nil {
		w.met.Inc(obs.WALFsyncs)
		w.met.ObservePhase(obs.PhaseWALFsync, time.Since(start))
	}
	w.size = 0
	return nil
}

// Unwind flushes the buffer and truncates the log back to off bytes,
// dropping everything appended after that point.  The tree uses it to
// roll back the record of a mutation that failed after its append: the
// record was never acknowledged, so it must not survive to the next
// commit point and be replayed by recovery.
func (w *Writer) Unwind(off int64) error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	w.size = off
	return nil
}

// Close flushes and closes the file without truncating it.
func (w *Writer) Close() error {
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the log file WITHOUT flushing buffered frames — the
// on-disk log is exactly what a crash at this instant would leave.
// Crash-simulation tests use it; everything else wants Close.
func (w *Writer) Abort() error { return w.f.Close() }

// Scan reads the log at path and calls fn for each valid record in
// order.  A torn tail (short frame, bad checksum, corrupt length or
// unknown kind) ends the scan without error: everything before it is
// returned, which is exactly the prefix that was durable at the crash.
// A missing file scans as empty.  The Record passed to fn may alias
// the scan buffer; fn must not retain it.
func Scan(path string, fn func(Record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	return ScanBytes(data, fn)
}

// ScanBytes scans an in-memory log image (see Scan).
func ScanBytes(data []byte, fn func(Record) error) error {
	_, _, err := scanFrames(data, fn)
	return err
}

// scanFrames walks the framed records in data, calling fn for each
// valid one.  It returns the byte offset just past the last valid
// frame (the valid prefix) and whether unscannable bytes — a torn tail
// — follow it.
func scanFrames(data []byte, fn func(Record) error) (validEnd int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHdrSize {
			return int64(off), true, nil // torn tail: partial header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxPayload || len(data)-off-frameHdrSize < n {
			return int64(off), true, nil // torn tail: corrupt length or partial payload
		}
		payload := data[off+frameHdrSize : off+frameHdrSize+n]
		if crc32.Checksum(payload, castagnoli) != want {
			return int64(off), true, nil // torn tail: bit flip or half-written frame
		}
		var rec Record
		if err := decodePayload(payload, &rec); err != nil {
			return int64(off), true, nil // torn tail: undecodable payload
		}
		if err := fn(rec); err != nil {
			return int64(off), false, err
		}
		off += frameHdrSize + n
	}
	return int64(off), false, nil
}

// Analysis summarizes a scanned log for recovery.
type Analysis struct {
	// Records is the count of valid frames of any kind.
	Records int
	// Images holds the page images of the LAST complete checkpoint
	// (CkptBegin..CkptCommit) in the log, keyed by page id; nil when no
	// complete checkpoint is present.
	Images map[storage.PageID][]byte
	// Pages is the CkptCommit page count of that checkpoint (0 if none).
	Pages int
	// Tail holds the logical records (RecUpdate/RecDelete) appended
	// after the last complete checkpoint — or all of them when the log
	// has no complete checkpoint.
	Tail []Record
	// ValidPrefix is the byte offset just past the last valid frame.
	ValidPrefix int64
	// Torn reports that unscannable bytes follow the valid prefix —
	// the log ends in a torn tail, the expected state after a crash
	// mid-append.  Appending past those bytes would make the new frames
	// unreachable; truncate to ValidPrefix first (TruncateTail).
	Torn bool
}

// Analyze scans the log at path and splits it into the last complete
// checkpoint's images and the logical tail to replay, reporting the
// valid prefix and whether a torn tail follows it.  A missing file
// analyzes as empty.
func Analyze(path string) (Analysis, error) {
	var a Analysis
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return a, nil
		}
		return a, err
	}
	var open map[storage.PageID][]byte // images of an unclosed checkpoint
	a.ValidPrefix, a.Torn, err = scanFrames(data, func(rec Record) error {
		a.Records++
		switch rec.Kind {
		case CkptBegin:
			open = make(map[storage.PageID][]byte)
		case CkptPage:
			if open != nil {
				img := make([]byte, len(rec.Data))
				copy(img, rec.Data)
				open[rec.Page] = img
			}
		case CkptCommit:
			if open != nil {
				a.Images = open
				a.Pages = rec.Pages
				a.Tail = a.Tail[:0] // replay restarts after the checkpoint
				open = nil
			}
		case RecUpdate, RecDelete:
			a.Tail = append(a.Tail, rec)
		}
		return nil
	})
	return a, err
}

// TruncateTail cuts the log at path to off bytes and fsyncs the
// truncation.  Recovery uses it to drop a torn tail before attaching a
// writer: frames appended after garbage would be unreachable by every
// later Scan, so a crash during recovery would silently lose the
// recovery checkpoint.
func TruncateTail(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}
