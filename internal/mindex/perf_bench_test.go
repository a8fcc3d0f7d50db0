package mindex

// Hot-path microbenchmarks for the query path. These are the benchmarks the
// CI bench job runs with -benchmem and compares against the committed
// baseline in bench/BENCH_BASELINE_4.txt (recorded before the
// allocation-discipline pass of PR 4), tracking the perf trajectory of the
// serving hot path: promise-ranked approximate collection, range pruning,
// first-cell selection, and repeated disk-backed queries. They run the
// ranked forms the server answers with; a flat form (ApproxCandidates,
// RangeByDists, ...) decodes each candidate into an Entry on top.

import (
	"math/rand/v2"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// benchIndex builds an index over a clustered collection with full distance
// vectors (so both pruning bounds and both rankings are exercised) and
// returns it together with prepared queries.
func benchIndex(b *testing.B, cfg Config, n int) (*Index, []ApproxQuery, [][]float64) {
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
		err := ix.InsertBulk([]Entry{{ID: o.ID, Perm: pivot.Permutation(dists), Dists: dists}})
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
	return ix, queries, qDists
}

// rangeSearch is a KindRange Search: the range query as the server runs it.
func rangeSearch(ix *Index, qDists []float64, r float64) ([]RankedCandidate, error) {
	return ix.Search(Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qDists}, Radius: r})
}

func benchMemConfig() Config {
	return Config{
		NumPivots: 16, MaxLevel: 5, BucketCapacity: 50,
		Storage: StorageMemory, Ranking: RankFootrule,
	}
}

// BenchmarkQueryPathApprox measures the approximate k-NN candidate
// collection (Algorithm 4) on a memory-backed index: the promise heap, the
// leaf loads and the candidate assembly.
func BenchmarkQueryPathApprox(b *testing.B) {
	ix, queries, _ := benchIndex(b, benchMemConfig(), 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := ix.ApproxCandidatesRanked(queries[i%len(queries)], 600)
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkQueryPathRange measures the precise range query (Algorithm 3):
// tree pruning by the box and hyperplane bounds plus pivot filtering of
// surviving leaves, and the sort of the answer by bound key.
func BenchmarkQueryPathRange(b *testing.B) {
	ix, _, qDists := benchIndex(b, benchMemConfig(), 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rangeSearch(ix, qDists[i%len(qDists)], 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPathRangePruned measures the pruning machinery alone: a
// radius so tight that (nearly) every cell is excluded, so the cost is pure
// traversal + lower-bound evaluation.
func BenchmarkQueryPathRangePruned(b *testing.B) {
	ix, _, qDists := benchIndex(b, benchMemConfig(), 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rangeSearch(ix, qDists[i%len(qDists)], 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPathFirstCell measures the single-cell strategy of the
// paper's 1-NN comparison: one promise-ordered descent to the best leaf.
func BenchmarkQueryPathFirstCell(b *testing.B) {
	ix, queries, _ := benchIndex(b, benchMemConfig(), 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := ix.Search(Query{Kind: KindFirstCell, ApproxQuery: queries[i%len(queries)]})
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkDiskRepeatedQuery measures a repeated-query workload against a
// disk-backed index — the paper's evaluation shape (Tables 5–9): a fixed
// query set replayed against a static index. This is the workload the
// DiskStore read-through bucket cache exists for.
func BenchmarkDiskRepeatedQuery(b *testing.B) {
	cfg := benchMemConfig()
	cfg.Storage = StorageDisk
	for _, sub := range diskBenchVariants() {
		b.Run(sub.name, func(b *testing.B) {
			c := cfg
			c.DiskPath = b.TempDir()
			sub.tune(&c)
			ix, queries, _ := benchIndex(b, c, 8000)
			// Warm once so the steady state (not first-touch IO) is measured.
			if _, err := ix.ApproxCandidatesRanked(queries[0], 600); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, err := ix.ApproxCandidatesRanked(queries[i%len(queries)], 600)
				if err != nil {
					b.Fatal(err)
				}
				if len(cands) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkDiskRangeRepeated is BenchmarkDiskRepeatedQuery for the precise
// range query, whose leaf loads dominate once pruning has done its work.
func BenchmarkDiskRangeRepeated(b *testing.B) {
	cfg := benchMemConfig()
	cfg.Storage = StorageDisk
	for _, sub := range diskBenchVariants() {
		b.Run(sub.name, func(b *testing.B) {
			c := cfg
			c.DiskPath = b.TempDir()
			sub.tune(&c)
			ix, _, qDists := benchIndex(b, c, 8000)
			if _, err := rangeSearch(ix, qDists[0], 3); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rangeSearch(ix, qDists[i%len(qDists)], 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiskRangeCold is the precise range query with the bucket cache
// off — the regime of a collection far larger than the cache, where every
// leaf the traversal does not prune is a file read. misses/op counts those
// reads (the cell boxes exist to lower it), allocs/op prices each one (the
// file name, the open, the image and its offset table; nothing is decoded).
func BenchmarkDiskRangeCold(b *testing.B) {
	cfg := benchMemConfig()
	cfg.Storage = StorageDisk
	cfg.DiskPath = b.TempDir()
	cfg.DiskCacheBytes = -1
	ix, _, qDists := benchIndex(b, cfg, 8000)
	_, before, _ := ix.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rangeSearch(ix, qDists[i%len(qDists)], 3); err != nil {
			b.Fatal(err)
		}
	}
	_, after, _ := ix.CacheStats()
	b.ReportMetric(float64(after-before)/float64(b.N), "misses/op")
}

// diskBenchVariant tunes the disk-backed config for one sub-benchmark.
// "default" is whatever a plain Config gets — before PR 4 that meant a full
// file read + decode per leaf visit, after it the read-through bucket cache;
// benchstat against the committed baseline therefore shows the cache win
// under the same benchmark name.
type diskBenchVariant struct {
	name string
	tune func(*Config)
}

func diskBenchVariants() []diskBenchVariant {
	return []diskBenchVariant{
		{name: "default", tune: func(*Config) {}},
		// nocache approximates the seed's per-query read+decode behavior
		// for a same-binary ablation of the cache alone.
		{name: "nocache", tune: func(c *Config) { c.DiskCacheBytes = -1 }},
	}
}
