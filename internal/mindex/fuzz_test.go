package mindex

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSnapshot is the fuzz target of the snapshot decoder, an on-disk
// format: a hostile or damaged file must be refused with an error, never
// panic or allocate without bound, and whatever loads must be an index that
// answers queries and saves a snapshot that loads again. The corpus is
// seeded with one small index's snapshot in each codec version; every input
// is loaded against that index's bucket directory, which loading only reads.
func FuzzLoadSnapshot(f *testing.F) {
	const nPivots = 6
	cfg := Config{
		NumPivots: nPivots, MaxLevel: 3, BucketCapacity: 8,
		Storage: StorageDisk, DiskPath: f.TempDir(), Ranking: RankFootrule,
	}
	entries, approx, queries := perfEntries(120, nPivots)
	ix, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.InsertBulk(entries); err != nil {
		f.Fatal(err)
	}
	f.Add(writeLegacySnapshot(f, ix, 1))
	// Tombstones leave the buckets as they are, so the version-1 file above
	// still describes them.
	if _, err := ix.Delete([]uint64{entries[3].ID, entries[40].ID, entries[77].ID}); err != nil {
		f.Fatal(err)
	}
	f.Add(writeLegacySnapshot(f, ix, 2))
	snap := filepath.Join(f.TempDir(), "v3.snap")
	if err := ix.SaveSnapshot(snap); err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	if err := ix.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := LoadSnapshot(cfg, path)
		if err != nil {
			return
		}
		defer ix.Close()
		if _, err := ix.RangeByDists(queries[0], 3); err != nil {
			t.Fatalf("range query on a loaded snapshot: %v", err)
		}
		if _, err := ix.ApproxCandidates(approx[0], 20); err != nil {
			t.Fatalf("approximate query on a loaded snapshot: %v", err)
		}
		resaved := filepath.Join(dir, "resaved.snap")
		if err := ix.SaveSnapshot(resaved); err != nil {
			t.Fatalf("re-saving a loaded snapshot: %v", err)
		}
		again, err := LoadSnapshot(cfg, resaved)
		if err != nil {
			t.Fatalf("a re-saved snapshot does not load: %v", err)
		}
		again.Close()
	})
}
