package wal

import (
	"os"
	"path/filepath"
	"testing"

	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

func testUpdate(id uint32) Update {
	return Update{
		ID: id, Now: 10.5, Time: 10.25, Expires: 70,
		Pos: [3]float64{1.5, -2.25, 0}, Vel: [3]float64{0.5, 0.125, 0},
	}
}

// appendAll appends the given payloads and syncs.
func appendAll(t *testing.T, w *Writer, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, storage.PageSize)
	for i := range img {
		img[i] = byte(i)
	}
	page := append(append([]byte{byte(CkptPage)}, 7, 0, 0, 0), img...)
	appendAll(t, w,
		EncodeUpdate(nil, testUpdate(42)),
		EncodeDelete(nil, Delete{ID: 7, Now: 11}),
		[]byte{byte(CkptBegin)},
		page,
		[]byte{byte(CkptCommit), 9, 0, 0, 0},
	)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var recs []Record
	if err := Scan(path, func(r Record) error {
		if r.Kind == CkptPage {
			d := make([]byte, len(r.Data))
			copy(d, r.Data)
			r.Data = d
		}
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("scanned %d records, want 5", len(recs))
	}
	if recs[0].Kind != RecUpdate || recs[0].Update != testUpdate(42) {
		t.Errorf("update record mismatch: %+v", recs[0].Update)
	}
	if recs[1].Kind != RecDelete || recs[1].Delete != (Delete{ID: 7, Now: 11}) {
		t.Errorf("delete record mismatch: %+v", recs[1].Delete)
	}
	if recs[3].Kind != CkptPage || recs[3].Page != 7 || recs[3].Data[100] != img[100] {
		t.Errorf("ckpt-page record mismatch")
	}
	if recs[4].Kind != CkptCommit || recs[4].Pages != 9 {
		t.Errorf("ckpt-commit record mismatch: %+v", recs[4])
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, EncodeUpdate(nil, testUpdate(1)), EncodeUpdate(nil, testUpdate(2)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	countRecords := func(data []byte) int {
		n := 0
		if err := ScanBytes(data, func(Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := countRecords(whole); n != 2 {
		t.Fatalf("clean log scans %d records, want 2", n)
	}
	// Every strict prefix that cuts into the second frame must yield
	// exactly the first record; cutting into the first yields none.
	first := frameHdrSize + updateSize
	for cut := 1; cut < len(whole); cut++ {
		want := 0
		if cut >= first {
			want = 1
		}
		if cut == len(whole) {
			want = 2
		}
		if n := countRecords(whole[:cut]); n != want {
			t.Fatalf("prefix %d scans %d records, want %d", cut, n, want)
		}
	}
	// A flipped bit anywhere in the second frame drops it (and only it).
	for off := first; off < len(whole); off++ {
		mut := append([]byte(nil), whole...)
		mut[off] ^= 0x40
		if n := countRecords(mut); n != 1 {
			t.Fatalf("bit flip at %d scans %d records, want 1", off, n)
		}
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	w.SetMetrics(m)
	appendAll(t, w, EncodeUpdate(nil, testUpdate(1)))
	if w.Size() == 0 {
		t.Fatal("size should grow on append")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("size after reset = %d, want 0", w.Size())
	}
	appendAll(t, w, EncodeDelete(nil, Delete{ID: 3, Now: 1}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := Scan(path, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != RecDelete {
		t.Fatalf("after reset the log should hold only the new record, got %+v", recs)
	}
	if m.Load(obs.WALFsyncs) < 2 {
		t.Errorf("fsyncs = %d, want >= 2", m.Load(obs.WALFsyncs))
	}
}

func TestAnalyzeSplitsAtLastCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, storage.PageSize)
	page := func(id byte) []byte {
		return append(append([]byte{byte(CkptPage)}, id, 0, 0, 0), img...)
	}
	appendAll(t, w,
		EncodeUpdate(nil, testUpdate(1)), // before the checkpoint: dropped
		[]byte{byte(CkptBegin)},
		page(0),
		page(3),
		[]byte{byte(CkptCommit), 5, 0, 0, 0},
		EncodeUpdate(nil, testUpdate(2)), // after: replayed
		EncodeDelete(nil, Delete{ID: 9, Now: 12}),
	)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != 7 {
		t.Errorf("records = %d, want 7", a.Records)
	}
	if len(a.Images) != 2 || a.Pages != 5 {
		t.Errorf("images = %d pages=%d, want 2 images pages=5", len(a.Images), a.Pages)
	}
	if len(a.Tail) != 2 || a.Tail[0].Update.ID != 2 || a.Tail[1].Delete.ID != 9 {
		t.Errorf("tail mismatch: %+v", a.Tail)
	}
}

func TestAnalyzeIncompleteCheckpointIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, storage.PageSize)
	appendAll(t, w,
		EncodeUpdate(nil, testUpdate(1)),
		[]byte{byte(CkptBegin)},
		append(append([]byte{byte(CkptPage)}, 0, 0, 0, 0), img...),
		// no CkptCommit: crashed mid-checkpoint
	)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Images != nil {
		t.Error("incomplete checkpoint must yield no images")
	}
	if len(a.Tail) != 1 || a.Tail[0].Update.ID != 1 {
		t.Errorf("tail should hold the pre-checkpoint logical records, got %+v", a.Tail)
	}
}

// TestAnalyzeReportsTornTail: Analyze must report where the valid
// frame prefix ends and that garbage follows it, TruncateTail must cut
// exactly there, and frames appended after the cut must be reachable
// by a later scan — the property recovery's checkpoint depends on.
func TestAnalyzeReportsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, EncodeUpdate(nil, testUpdate(1)), EncodeUpdate(nil, testUpdate(2)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Torn || a.ValidPrefix != int64(len(clean)) {
		t.Fatalf("clean log: torn=%v prefix=%d, want false/%d", a.Torn, a.ValidPrefix, len(clean))
	}

	garbage := append(append([]byte(nil), clean...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0x03)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err = Analyze(path)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Torn || a.ValidPrefix != int64(len(clean)) || a.Records != 2 {
		t.Fatalf("torn log: torn=%v prefix=%d records=%d, want true/%d/2", a.Torn, a.ValidPrefix, a.Records, len(clean))
	}

	if err := TruncateTail(path, a.ValidPrefix); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(clean)) {
		t.Fatalf("truncated log is %d bytes, want %d", st.Size(), len(clean))
	}

	// Frames appended after the cut follow the valid prefix and scan.
	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w2, EncodeDelete(nil, Delete{ID: 9, Now: 3}))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	a, err = Analyze(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Torn || a.Records != 3 {
		t.Fatalf("after truncate+append: torn=%v records=%d, want false/3", a.Torn, a.Records)
	}
}

// TestWriterUnwind: dropping the bytes appended after an offset must
// remove exactly those frames, leave earlier ones intact, and let later
// appends continue from the cut.
func TestWriterUnwind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, EncodeUpdate(nil, testUpdate(1)))
	mark := w.Size()
	if err := w.Append(EncodeUpdate(nil, testUpdate(2))); err != nil {
		t.Fatal(err)
	}
	if err := w.Unwind(mark); err != nil {
		t.Fatal(err)
	}
	if w.Size() != mark {
		t.Fatalf("size after unwind = %d, want %d", w.Size(), mark)
	}
	appendAll(t, w, EncodeDelete(nil, Delete{ID: 3, Now: 2}))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := Scan(path, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Update.ID != 1 || recs[1].Kind != RecDelete {
		t.Fatalf("after unwind the log holds %+v, want update(1) + delete", recs)
	}
}

func TestWriterHookAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	boom := os.ErrClosed
	w.Hook = func(event string) error {
		if event == "append" {
			return boom
		}
		return nil
	}
	if err := w.Append(EncodeUpdate(nil, testUpdate(1))); err != boom {
		t.Fatalf("append with failing hook = %v, want %v", err, boom)
	}
	if w.Size() != 0 {
		t.Fatal("aborted append must not grow the log")
	}
}

func TestCreatePreservesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, EncodeUpdate(nil, testUpdate(1)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Size() == 0 {
		t.Fatal("reopen must report the existing bytes")
	}
	appendAll(t, w2, EncodeUpdate(nil, testUpdate(2)))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Scan(path, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scanned %d records, want 2 (append must not truncate)", n)
	}
}
