package server

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"simcloud/internal/leaktest"
	"simcloud/internal/mindex"
	"simcloud/internal/wal"
	"simcloud/internal/wire"
)

// diskGolden is the digest of every file TestDiskFilesGolden's history
// leaves behind, recorded when a bucket was still held decoded in memory.
const diskGolden = "3a1ee76f19d064f194d3e6fdda49e76b8e1fb69a82c94e55fc84bd07a9cc6a18"

// TestDiskFilesGolden pins the bytes a disk server stores — every bucket
// file, the snapshot and the write-ahead log — for one seeded history:
// inserts in large batches and one entry at a time (splits included),
// deletes, re-inserts that purge a tombstoned twin, moves and a
// compaction. How the server holds a bucket in memory must not show in any
// of them.
func TestDiskFilesGolden(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	cfg := mindex.Config{
		NumPivots: 8, MaxLevel: 4, BucketCapacity: 12, Shards: 2,
		Storage: mindex.StorageDisk, DiskPath: filepath.Join(dir, "buckets"), Ranking: mindex.RankFootrule,
	}
	l, _, err := wal.Open(filepath.Join(dir, "wal"), wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachWAL(l)

	rng := rand.New(rand.NewPCG(29, 29))
	entries := make([]mindex.Entry, 400)
	for i := range entries {
		e := mindex.Entry{ID: uint64(i + 1), Perm: make([]int32, cfg.NumPivots)}
		for p, q := range rng.Perm(cfg.NumPivots) {
			e.Perm[p] = int32(q)
		}
		if i%3 != 0 {
			e.Dists = make([]float64, cfg.NumPivots)
			for p := range e.Dists {
				e.Dists[p] = rng.Float64() * 10
			}
		}
		e.Payload = make([]byte, rng.IntN(40))
		for j := range e.Payload {
			e.Payload[j] = byte(rng.Uint32())
		}
		entries[i] = e
	}
	var buf wire.Buffer
	do := func(typ wire.MsgType, payload []byte) {
		t.Helper()
		if _, _, err := srv.handle(typ, payload, time.Now(), &buf); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
	}
	for at, i := 0, 0; at < len(entries); i++ {
		n := min([]int{40, 3, 1, 64, 17, 5}[i%6], len(entries)-at)
		do(wire.MsgIngestChunk, wire.IngestChunkReq{Seq: uint32(i), Entries: entries[at : at+n]}.Encode())
		at += n
	}
	var refs []mindex.Entry
	for i := 0; i < len(entries); i += 9 {
		refs = append(refs, mindex.Entry{ID: entries[i].ID, Perm: entries[i].Perm})
	}
	do(wire.MsgDeleteEntries, wire.DeleteEntriesReq{Refs: refs}.Encode())
	for i := 0; i < 45; i += 9 {
		do(wire.MsgIngestChunk, wire.IngestChunkReq{Entries: entries[i : i+1]}.Encode())
	}
	eng := srv.Index()
	for i := 1; i < 60; i += 11 {
		// A move: a delete routed by the old permutation, then an insert.
		e := entries[i]
		e.Perm = entries[i+100].Perm
		if _, err := eng.Delete([]mindex.Entry{{ID: e.ID, Perm: entries[i].Perm}}); err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertBulk([]mindex.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveSnapshot(filepath.Join(dir, "snap")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	files := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != diskGolden {
		t.Fatalf("the %d files hash to %s, want %s", files, got, diskGolden)
	}
}
