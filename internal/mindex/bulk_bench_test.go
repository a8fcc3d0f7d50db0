package mindex

// Write-path benchmarks: the planner against the entry-at-a-time
// reference it replaced, and Compact.

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// clusteredEntries derives n entries with full distance vectors from a
// clustered 8-d collection over nPivots random pivots.
func clusteredEntries(seed uint64, n, nPivots int) []Entry {
	ds := dataset.Clustered(seed, n, 8, 12, metric.L2{})
	pv := pivot.SelectRandom(rand.New(rand.NewPCG(seed, 7)), ds.Dist, ds.Objects, nPivots)
	entries := make([]Entry, n)
	for i, o := range ds.Objects {
		dists := pv.Distances(o.Vec)
		entries[i] = Entry{ID: o.ID, Perm: pivot.Permutation(dists), Dists: dists}
	}
	return entries
}

var bulkBench struct {
	once    sync.Once
	entries []Entry
}

// BenchmarkBulkBuild files 20 000 entries into an empty index two ways: the
// planner in one InsertBulk call ("builder"), and the entry-at-a-time
// reference (reference_test.go) in 15-entry batches — the algorithm every
// batch under 16 entries took before the planner took every batch. CI
// gates their in-run ratio (cmd/benchgate -speedup-min 2.2 on memory), so
// the planner cannot rot back toward per-entry cost. The configuration is
// the root BenchmarkBulkLoad's.
func BenchmarkBulkBuild(b *testing.B) {
	bulkBench.once.Do(func() { bulkBench.entries = clusteredEntries(2024, 20000, 24) })
	entries := bulkBench.entries
	load := func(b *testing.B, storage StorageKind, insert func(ix *Index) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := Config{
				NumPivots: 24, MaxLevel: 6, BucketCapacity: 200,
				Storage: storage, Ranking: RankFootrule,
			}
			if storage == StorageDisk {
				cfg.DiskPath = filepath.Join(b.TempDir(), "buckets")
			}
			b.StartTimer()
			ix, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := insert(ix); err != nil {
				b.Fatal(err)
			}
			if ix.Size() != len(entries) {
				b.Fatal("lost entries")
			}
			ix.Close()
		}
		b.ReportMetric(float64(len(entries))*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
	}
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		b.Run(fmt.Sprintf("%s/builder", storage), func(b *testing.B) {
			load(b, storage, func(ix *Index) error { return ix.InsertBulk(entries) })
		})
		b.Run(fmt.Sprintf("%s/reference/chunks=15", storage), func(b *testing.B) {
			load(b, storage, func(ix *Index) error { return refWriter(ix).inChunks(entries, 15) })
		})
	}
}

// BenchmarkCompact compacts an index of 20 000 clustered 8-d entries (16
// pivots, buckets of 50) of which every tenth is deleted: the rebuild of
// 18 000 survivors into a fresh tree. Only Compact is timed.
func BenchmarkCompact(b *testing.B) {
	entries := clusteredEntries(4242, 20000, 16)
	var victims []uint64
	for i := 0; i < len(entries); i += 10 {
		victims = append(victims, entries[i].ID)
	}
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		b.Run(storage.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := benchMemConfig()
				cfg.Storage = storage
				if storage == StorageDisk {
					cfg.DiskPath = filepath.Join(b.TempDir(), "buckets")
				}
				ix, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.InsertBulk(entries); err != nil {
					b.Fatal(err)
				}
				if _, err := ix.Delete(victims); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := ix.Compact(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if live, dead := ix.Counts(); live != len(entries)-len(victims) || dead != 0 {
					b.Fatalf("after Compact: %d live, %d dead", live, dead)
				}
				ix.Close()
			}
		})
	}
}
