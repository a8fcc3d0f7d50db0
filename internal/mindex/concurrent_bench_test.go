package mindex

// Concurrent-scaling benchmarks for the read path. Run with -cpu 1,4,8 they
// produce the reader-scaling curve the CI bench job gates on: before the
// RCU snapshot refactor every search serialized on the index RWMutex (reads
// flatlined as cores were added, and collapsed under a churning writer);
// after it readers are wait-free and the curve should be near-linear. Both
// curves are committed under bench/ (BENCH_RWMUTEX_6.txt is the pre-refactor
// lock-based baseline, BENCH_BASELINE_6.txt the snapshot-based result).

import (
	"sync"
	"sync/atomic"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"

	"math/rand/v2"
)

// benchIndexChurn builds the standard benchmark index plus a disjoint set of
// pre-computed churn entries (fresh IDs far above the dataset's) that a
// background writer can insert, delete, re-insert and compact away while
// readers run.
func benchIndexChurn(b *testing.B, cfg Config, n int) (*Index, []ApproxQuery, [][]float64, []Entry) {
	b.Helper()
	ds := dataset.Clustered(4242, n, 8, 10, metric.L2{})
	rng := rand.New(rand.NewPCG(4242, 7))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, cfg.NumPivots)
	ix, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	for _, o := range ds.Objects {
		dists := pv.Distances(o.Vec)
		err := ix.Insert(Entry{ID: o.ID, Perm: pivot.Permutation(dists), Dists: dists})
		if err != nil {
			b.Fatal(err)
		}
	}
	var queries []ApproxQuery
	var qDists [][]float64
	for i := range 32 {
		q := ds.Objects[(i*173)%len(ds.Objects)].Vec
		d := pv.Distances(q)
		queries = append(queries, ApproxQuery{
			Ranks: pivot.Ranks(pivot.Permutation(d)),
			Dists: d,
		})
		qDists = append(qDists, d)
	}
	churn := make([]Entry, 0, 256)
	for i := range 256 {
		o := ds.Objects[(i*37)%len(ds.Objects)]
		dists := pv.Distances(o.Vec)
		churn = append(churn, Entry{
			ID:    uint64(1)<<40 + uint64(i),
			Perm:  pivot.Permutation(dists),
			Dists: dists,
		})
	}
	return ix, queries, qDists, churn
}

// BenchmarkConcurrentReadApprox measures parallel approximate candidate
// collection against a static index — the pure reader-scaling curve. With
// the RWMutex read path the RLock/RUnlock pair's shared-cacheline traffic
// caps scaling; with published snapshots readers share nothing mutable.
func BenchmarkConcurrentReadApprox(b *testing.B) {
	ix, queries, _ := benchIndex(b, benchMemConfig(), 8000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			cands, err := ix.ApproxCandidatesRanked(queries[i%len(queries)], 600)
			if err != nil {
				b.Error(err)
				return
			}
			if len(cands) == 0 {
				b.Error("no candidates")
				return
			}
			i++
		}
	})
}

// BenchmarkConcurrentReadRange is the reader-scaling curve for the precise
// range traversal (tree pruning + pivot filtering).
func BenchmarkConcurrentReadRange(b *testing.B) {
	ix, _, qDists := benchIndex(b, benchMemConfig(), 8000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := rangeSearch(ix, qDists[i%len(qDists)], 3); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkConcurrentDiskRangeCold is BenchmarkDiskRangeCold from several
// goroutines: every reader's every leaf is a cache miss on the one DiskStore.
// With the store mutex held across the file read, readers
// queue behind each other's system calls and two procs run slower per
// operation than one (1.3–1.6x); with the miss's I/O outside the mutex they
// share only the map work. The bench job's -scale-limit covers it with the
// memory readers above.
func BenchmarkConcurrentDiskRangeCold(b *testing.B) {
	cfg := benchMemConfig()
	cfg.Storage = StorageDisk
	cfg.DiskPath = b.TempDir()
	cfg.DiskCacheBytes = -1
	ix, _, qDists := benchIndex(b, cfg, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := rangeSearch(ix, qDists[i%len(qDists)], 3); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkConcurrentSearchUnderChurn measures parallel approximate searches
// while one background writer continuously inserts, deletes, re-inserts and
// periodically compacts — the workload ROADMAP item 2 names: with a single
// RWMutex every reader stalls behind every mutation (and Compact holds the
// write lock for a full tree rebuild); with snapshot publication readers
// proceed wait-free on the last published tree.
func BenchmarkConcurrentSearchUnderChurn(b *testing.B) {
	ix, queries, _, churn := benchIndexChurn(b, benchMemConfig(), 8000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerOps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := churn[i%len(churn)]
			if err := ix.Insert(e); err != nil {
				b.Error(err)
				return
			}
			if _, err := ix.Delete([]uint64{e.ID}); err != nil {
				b.Error(err)
				return
			}
			i++
			if i%128 == 0 {
				if err := ix.Compact(); err != nil {
					b.Error(err)
					return
				}
			}
			writerOps.Add(1)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			cands, err := ix.ApproxCandidatesRanked(queries[i%len(queries)], 600)
			if err != nil {
				b.Error(err)
				return
			}
			if len(cands) == 0 {
				b.Error("no candidates")
				return
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(writerOps.Load())/b.Elapsed().Seconds(), "writer-ops/s")
}

// BenchmarkConcurrentStatsUnderChurn measures Size/Dead/TreeStats while a
// writer churns — the bookkeeping reads that used to take the same lock as
// mutations (and, taken separately, could report mutually inconsistent
// numbers; see Counts).
func BenchmarkConcurrentStatsUnderChurn(b *testing.B) {
	ix, _, _, churn := benchIndexChurn(b, benchMemConfig(), 8000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := churn[i%len(churn)]
			if err := ix.Insert(e); err != nil {
				b.Error(err)
				return
			}
			if _, err := ix.Delete([]uint64{e.ID}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if ix.Size() < 0 {
				b.Error("negative size")
				return
			}
			st := ix.TreeStats()
			if st.Entries < 0 {
				b.Error("negative entries")
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}
