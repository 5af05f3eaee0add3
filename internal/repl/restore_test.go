package repl

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rexptree/internal/manifest"
)

// backupStream encodes a complete two-shard backup stream whose files
// hold the given bytes.  WriteBackup checks framing, not page contents,
// so the payloads need not be real page files.
func backupStream(t testing.TB, page, wal []byte) []byte {
	t.Helper()
	man, err := manifest.Manifest{Version: manifest.Version, Shards: 2, Hash: manifest.Hash,
		Partition: "hash", Durability: "on-commit", Generation: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	write := func(kind byte, v any) {
		if err := writeJSONFrame(fw, kind, v); err != nil {
			t.Fatal(err)
		}
	}
	chunk := func(kind byte, body []byte) {
		if err := fw.WriteFrame(kind, body); err != nil {
			t.Fatal(err)
		}
	}
	write(FrameMeta, BackupMeta{Version: ProtocolVersion, Epoch: 3, StartLSN: 10, Shards: 2,
		Generation: 1, Manifest: json.RawMessage(man)})
	for i := 0; i < 2; i++ {
		write(FrameShardBegin, ShardHeader{Shard: i, PageBytes: int64(len(page)), WALBytes: int64(len(wal))})
		chunk(FramePageChunk, page)
		if len(wal) > 0 {
			chunk(FrameWALChunk, wal)
		}
		write(FrameShardEnd, struct {
			Shard int `json:"shard"`
		}{i})
	}
	write(FrameBackupEnd, struct{}{})
	return buf.Bytes()
}

func TestWriteBackupStream(t *testing.T) {
	base := filepath.Join(t.TempDir(), "replica")
	page, wal := bytes.Repeat([]byte{0xAB}, 300), []byte("wal-tail")
	info, err := WriteBackup(base, bytes.NewReader(backupStream(t, page, wal)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Shards != 2 || info.Manifest.Generation != 1 || info.Bytes != 2*int64(len(page)+len(wal)) {
		t.Fatalf("unexpected backup info %+v", info)
	}
	for i := 0; i < 2; i++ {
		got, err := os.ReadFile(manifest.ShardPath(base, 1, i))
		if err != nil || !bytes.Equal(got, page) {
			t.Fatalf("shard %d page file: %v", i, err)
		}
	}
	if _, found, err := manifest.Read(manifest.Path(base)); !found || err != nil {
		t.Fatalf("restored manifest: found %v, %v", found, err)
	}
}

// FuzzWriteBackup feeds arbitrary bytes to the backup-stream restore.
// It must never panic, and a failed restore must leave nothing under
// its base — no page file, no WAL and no manifest — so a torn or
// corrupt transfer can never pass for a backup.
func FuzzWriteBackup(f *testing.F) {
	valid := backupStream(f, bytes.Repeat([]byte{0x5A}, 64), []byte("log"))
	f.Add(valid)
	for _, n := range []int{0, 1, 9, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if _, err := WriteBackup(filepath.Join(dir, "replica"), bytes.NewReader(data)); err == nil {
			return
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("failed restore left %s", e.Name())
		}
	})
}
