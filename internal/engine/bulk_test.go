package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simcloud/internal/mindex"
)

func mustEngine(t *testing.T, cfg mindex.Config) *ShardedIndex {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestBulkBuildShardEquivalence pins that the write planner gives one
// batch and the same entries in 8-entry chunks the same result, across 1
// and 4 shards on both storage backends: an engine loaded by one
// InsertBulk call is byte-identical on disk — snapshot files and bucket
// files — to an engine fed the same entries in the same order in chunks of
// 8. The entries of a chunk reach each shard as one small build, so this is
// the planner's arrival-order invariance across batch boundaries.
func TestBulkBuildShardEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
			name := "mem"
			if storage == mindex.StorageDisk {
				name = "disk"
			}
			t.Run(fmt.Sprintf("%s-shards=%d", name, shards), func(t *testing.T) {
				w := newWorld(t, 31, 3000, 10)
				cfgA, cfgB := testCfg(shards), testCfg(shards)
				cfgA.Storage, cfgB.Storage = storage, storage
				if storage == mindex.StorageDisk {
					cfgA.DiskPath = filepath.Join(t.TempDir(), "bulk")
					cfgB.DiskPath = filepath.Join(t.TempDir(), "chunks")
				}
				engBulk := mustEngine(t, cfgA)
				engChunks := mustEngine(t, cfgB)

				if err := engBulk.InsertBulk(w.entries); err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(w.entries); off += 8 {
					end := min(off+8, len(w.entries))
					if err := engChunks.InsertBulk(w.entries[off:end]); err != nil {
						t.Fatal(err)
					}
				}

				if engBulk.Size() != engChunks.Size() {
					t.Fatalf("sizes differ: %d vs %d", engBulk.Size(), engChunks.Size())
				}
				if storage == mindex.StorageDisk {
					compareSnapshots(t, engBulk, engChunks, shards)
					compareBucketDirs(t, cfgA.DiskPath, cfgB.DiskPath)
				} else {
					// Memory indexes have no snapshot codec; the per-shard
					// tree statistics pin shape, counts and occupancy. The
					// Builds counter counts the batches applied — the one
					// field meant to differ between the two engines.
					sa, sb := engBulk.Stats(), engChunks.Stats()
					sa.Ingest.Builds, sb.Ingest.Builds = 0, 0
					if !reflect.DeepEqual(sa, sb) {
						t.Errorf("engine stats differ:\n%+v\nvs\n%+v", sa, sb)
					}
				}
				// And through the read path, for good measure.
				for _, q := range w.queries {
					qDists, aq := w.query(q)
					ra, err := engBulk.RangeByDists(qDists, 3)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := engChunks.RangeByDists(qDists, 3)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ra, rb) {
						t.Fatal("range results differ")
					}
					aa, err := engBulk.ApproxCandidates(aq, 64)
					if err != nil {
						t.Fatal(err)
					}
					ab, err := engChunks.ApproxCandidates(aq, 64)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(aa, ab) {
						t.Fatal("approximate results differ")
					}
				}
			})
		}
	}
}

// compareSnapshots saves both engines and compares the snapshot files byte
// for byte (per shard for a sharded engine).
func compareSnapshots(t *testing.T, a, b *ShardedIndex, shards int) {
	t.Helper()
	pathA := filepath.Join(t.TempDir(), "a.snap")
	pathB := filepath.Join(t.TempDir(), "b.snap")
	if err := a.SaveSnapshot(pathA); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(pathB); err != nil {
		t.Fatal(err)
	}
	var files [][2]string
	if shards == 1 {
		files = append(files, [2]string{pathA, pathB})
	} else {
		for i := 0; i < shards; i++ {
			files = append(files, [2]string{shardSnapshotPath(pathA, i), shardSnapshotPath(pathB, i)})
		}
	}
	for i, pair := range files {
		rawA, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		rawB, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawA, rawB) {
			t.Errorf("shard %d: snapshot files differ byte-for-byte", i)
		}
	}
}

// compareBucketDirs recursively compares two bucket directory trees.
func compareBucketDirs(t *testing.T, dirA, dirB string) {
	t.Helper()
	var relFiles func(dir string) []string
	relFiles = func(dir string) []string {
		var out []string
		filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				t.Fatal(err)
			}
			if !d.IsDir() {
				rel, _ := filepath.Rel(dir, p)
				out = append(out, rel)
			}
			return nil
		})
		return out
	}
	filesA, filesB := relFiles(dirA), relFiles(dirB)
	if !reflect.DeepEqual(filesA, filesB) {
		t.Fatalf("bucket file sets differ:\n%v\nvs\n%v", filesA, filesB)
	}
	for _, rel := range filesA {
		ca, err := os.ReadFile(filepath.Join(dirA, rel))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := os.ReadFile(filepath.Join(dirB, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ca, cb) {
			t.Errorf("bucket file %s differs", rel)
		}
	}
}
