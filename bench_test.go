package simcloud

// Benchmarks regenerating the paper's evaluation, one benchmark per table
// (see EXPERIMENTS.md for the full-scale `simbench` runs and paper-vs-
// measured discussion), plus ablation benches for the design choices listed
// in DESIGN.md §5.
//
// Benchmark scale: the gene-expression sets run at full paper size; CoPhIR
// runs at a laptop-scale subset (override with SIMCLOUD_BENCH_SCALE).
// Search benchmarks report recall, communication cost and candidate counts
// via b.ReportMetric.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"simcloud/internal/baseline"
	"simcloud/internal/bench"
	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/engine"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
	"simcloud/internal/wal"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xBE7C)) }

func benchCoPhIRScale() int {
	if v := os.Getenv("SIMCLOUD_BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 10000
}

func benchOptions() bench.Options {
	return bench.Options{
		CoPhIRScale: benchCoPhIRScale(),
		Queries:     100,
		K:           30,
		Seed:        2012,
		BulkSize:    1000,
	}
}

// --- Construction (Tables 3 and 4) ------------------------------------

func benchConstruction(b *testing.B, specName string, encrypted bool) {
	o := benchOptions()
	spec, err := bench.SpecByName(specName)
	if err != nil {
		b.Fatal(err)
	}
	ds := spec.Load(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs, err := bench.Construction(ds, spec, o, encrypted)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(costs.ClientTime.Seconds(), "client-s")
		b.ReportMetric(costs.EncryptTime.Seconds(), "encrypt-s")
		b.ReportMetric(costs.DistCompTime.Seconds(), "dist-s")
		b.ReportMetric(costs.ServerTime.Seconds(), "server-s")
		b.ReportMetric(costs.CommTime.Seconds(), "comm-s")
	}
	b.SetBytes(0)
}

func BenchmarkTable3ConstructionEncrypted(b *testing.B) {
	for _, name := range []string{"YEAST", "HUMAN", "CoPhIR"} {
		b.Run(name, func(b *testing.B) { benchConstruction(b, name, true) })
	}
}

func BenchmarkTable4ConstructionPlain(b *testing.B) {
	for _, name := range []string{"YEAST", "HUMAN", "CoPhIR"} {
		b.Run(name, func(b *testing.B) { benchConstruction(b, name, false) })
	}
}

// --- Search (Tables 5–8) ----------------------------------------------

// searchEnv caches a built cloud per (spec, encrypted) so candidate-size
// sub-benchmarks share one index.
type searchEnv struct {
	cloud   *bench.Cloud
	ds      *dataset.Dataset
	queries []Object
	exact   [][]uint64
}

var (
	searchEnvMu sync.Mutex
	searchEnvs  = map[string]*searchEnv{}
)

func getSearchEnv(b *testing.B, specName string, encrypted bool) *searchEnv {
	b.Helper()
	o := benchOptions()
	keyStr := fmt.Sprintf("%s-%v", specName, encrypted)
	searchEnvMu.Lock()
	defer searchEnvMu.Unlock()
	if env, ok := searchEnvs[keyStr]; ok {
		return env
	}
	spec, err := bench.SpecByName(specName)
	if err != nil {
		b.Fatal(err)
	}
	ds := spec.Load(o)
	queries, indexed := dataset.SampleQueries(ds, o.Queries, o.Seed, false)
	var cloud *bench.Cloud
	if encrypted {
		cloud, err = bench.NewEncryptedCloud(ds, spec.Cfg, o.Seed, core.Options{})
	} else {
		cloud, err = bench.NewPlainCloud(ds, spec.Cfg, o.Seed)
	}
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cloud.InsertAll(indexed, o.BulkSize); err != nil {
		b.Fatal(err)
	}
	env := &searchEnv{
		cloud:   cloud,
		ds:      ds,
		queries: queries,
		exact:   bench.GroundTruth(ds, indexed, queries, o.K),
	}
	searchEnvs[keyStr] = env
	return env
}

func benchSearch(b *testing.B, specName string, encrypted bool, candSize int) {
	env := getSearchEnv(b, specName, encrypted)
	const k = 30
	var sum stats.Costs
	var recallSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.queries[i%len(env.queries)]
		var res []core.Result
		var costs stats.Costs
		var err error
		query := core.Query{Kind: core.KindApproxKNN, Vec: q.Vec, K: k, CandSize: candSize}
		if encrypted {
			res, costs, err = env.cloud.Enc.Search(context.Background(), query)
		} else {
			res, costs, err = env.cloud.Plain.Search(context.Background(), query)
		}
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]uint64, len(res))
		for j, r := range res {
			ids[j] = r.ID
		}
		recallSum += stats.Recall(ids, env.exact[i%len(env.queries)])
		sum.Accumulate(costs)
	}
	b.StopTimer()
	avg := sum.DividedBy(b.N)
	b.ReportMetric(recallSum/float64(b.N), "recall-%")
	b.ReportMetric(float64(avg.CommBytes())/1000, "comm-kB")
	b.ReportMetric(float64(avg.Candidates), "candidates")
	b.ReportMetric(avg.DecryptTime.Seconds()*1000, "decrypt-ms")
	b.ReportMetric(avg.ServerTime.Seconds()*1000, "server-ms")
}

func BenchmarkTable5ApproxKNNEncryptedYeast(b *testing.B) {
	for _, cs := range []int{150, 300, 600, 1500} {
		b.Run(fmt.Sprintf("cand%d", cs), func(b *testing.B) { benchSearch(b, "YEAST", true, cs) })
	}
}

func BenchmarkTable6ApproxKNNEncryptedCoPhIR(b *testing.B) {
	for _, cs := range []int{500, 1000, 5000} {
		b.Run(fmt.Sprintf("cand%d", cs), func(b *testing.B) { benchSearch(b, "CoPhIR", true, cs) })
	}
}

func BenchmarkTable7ApproxKNNPlainYeast(b *testing.B) {
	for _, cs := range []int{150, 300, 600, 1500} {
		b.Run(fmt.Sprintf("cand%d", cs), func(b *testing.B) { benchSearch(b, "YEAST", false, cs) })
	}
}

func BenchmarkTable8ApproxKNNPlainCoPhIR(b *testing.B) {
	for _, cs := range []int{500, 1000, 5000} {
		b.Run(fmt.Sprintf("cand%d", cs), func(b *testing.B) { benchSearch(b, "CoPhIR", false, cs) })
	}
}

// --- 1-NN comparison (Table 9) -----------------------------------------

// table9Env caches the four clients of the Section 5.4 comparison.
type table9Env struct {
	cloud   *bench.Cloud
	ehi     *baseline.EHIClient
	fdh     *baseline.FDHClient
	triv    *baseline.TrivialClient
	ds      *dataset.Dataset
	queries []Object
	exact   [][]uint64
}

var (
	t9Once sync.Once
	t9Env  *table9Env
	t9Err  error
)

func getTable9Env(b *testing.B) *table9Env {
	b.Helper()
	t9Once.Do(func() {
		o := benchOptions()
		spec, err := bench.SpecByName("YEAST")
		if err != nil {
			t9Err = err
			return
		}
		ds := spec.Load(o)
		queries, indexed := dataset.SampleQueries(ds, o.Queries, o.Seed, true)
		cloud, err := bench.NewEncryptedCloud(ds, spec.Cfg, o.Seed, core.Options{})
		if err != nil {
			t9Err = err
			return
		}
		if _, err := cloud.InsertAll(indexed, o.BulkSize); err != nil {
			t9Err = err
			return
		}
		rng := newRNG(o.Seed)
		root, nodes, err := baseline.EHIBuild(rng, ds.Dist, indexed, cloud.Key, 10, spec.Cfg.BucketCapacity/4)
		if err != nil {
			t9Err = err
			return
		}
		ehi, err := baseline.DialEHI(cloud.Srv.Addr(), cloud.Key, ds.Dist)
		if err != nil {
			t9Err = err
			return
		}
		if _, err := ehi.Upload(root, nodes); err != nil {
			t9Err = err
			return
		}
		params, err := baseline.NewFDHParams(rng, ds.Dist, indexed, 16)
		if err != nil {
			t9Err = err
			return
		}
		items, err := baseline.FDHBuild(params, cloud.Key, indexed)
		if err != nil {
			t9Err = err
			return
		}
		fdh, err := baseline.DialFDH(cloud.Srv.Addr(), cloud.Key, params)
		if err != nil {
			t9Err = err
			return
		}
		if _, err := fdh.Upload(items); err != nil {
			t9Err = err
			return
		}
		triv, err := baseline.DialTrivial(cloud.Srv.Addr(), cloud.Key)
		if err != nil {
			t9Err = err
			return
		}
		t9Env = &table9Env{
			cloud: cloud, ehi: ehi, fdh: fdh, triv: triv,
			ds: ds, queries: queries,
			exact: bench.GroundTruth(ds, indexed, queries, 1),
		}
	})
	if t9Err != nil {
		b.Fatal(t9Err)
	}
	return t9Env
}

func benchTable9(b *testing.B, query func(env *table9Env, q Vector) ([]core.Result, stats.Costs, error)) {
	env := getTable9Env(b)
	var sum stats.Costs
	var recallSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.queries)
		res, costs, err := query(env, env.queries[qi].Vec)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]uint64, len(res))
		for j, r := range res {
			ids[j] = r.ID
		}
		recallSum += stats.Recall(ids, env.exact[qi])
		sum.Accumulate(costs)
	}
	b.StopTimer()
	avg := sum.DividedBy(b.N)
	b.ReportMetric(recallSum/float64(b.N), "recall-%")
	b.ReportMetric(float64(avg.CommBytes())/1000, "comm-kB")
	b.ReportMetric(float64(avg.RoundTrips), "roundtrips")
	b.ReportMetric(float64(avg.Candidates), "candidates")
}

func BenchmarkTable9ApproxOneNN(b *testing.B) {
	b.Run("EncMIndex", func(b *testing.B) {
		benchTable9(b, func(env *table9Env, q Vector) ([]core.Result, stats.Costs, error) {
			return env.cloud.Enc.Search(context.Background(), core.Query{Kind: core.KindFirstCell, Vec: q, K: 1})
		})
	})
	b.Run("EHI", func(b *testing.B) {
		benchTable9(b, func(env *table9Env, q Vector) ([]core.Result, stats.Costs, error) {
			return env.ehi.KNN(q, 1)
		})
	})
	b.Run("FDH", func(b *testing.B) {
		benchTable9(b, func(env *table9Env, q Vector) ([]core.Result, stats.Costs, error) {
			return env.fdh.KNN(q, 1, 42, 2)
		})
	})
	b.Run("Trivial", func(b *testing.B) {
		benchTable9(b, func(env *table9Env, q Vector) ([]core.Result, stats.Costs, error) {
			return env.triv.KNN(q, env.ds.Dist, 1)
		})
	})
}

// --- Sharded engine scaling (DESIGN.md §Sharding) -----------------------

// shardBenchEntries prepares plain (unencrypted) index entries once, so the
// benchmark measures pure engine work: routing, locking, splitting, search
// fan-out and merge.
var (
	shardBenchOnce    sync.Once
	shardBenchEntries []mindex.Entry
	shardBenchQueries []mindex.ApproxQuery
	shardBenchDists   [][]float64
	shardBenchObjects []metric.Object
	shardBenchPivots  *pivot.Set
)

func shardBenchSetup() {
	shardBenchOnce.Do(func() {
		const pivots = 24
		ds := dataset.Clustered(2024, 20000, 8, 12, L2())
		rng := newRNG(2024)
		pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, pivots)
		shardBenchObjects = ds.Objects
		shardBenchPivots = pv
		for _, o := range ds.Objects {
			dists := pv.Distances(o.Vec)
			shardBenchEntries = append(shardBenchEntries, mindex.Entry{
				ID:    o.ID,
				Perm:  pivot.Permutation(dists),
				Dists: dists,
			})
		}
		for i := range 64 {
			q := ds.Objects[(i*311)%ds.Size()].Vec
			qDists := pv.Distances(q)
			shardBenchQueries = append(shardBenchQueries, mindex.ApproxQuery{
				Ranks: pivot.Ranks(pivot.Permutation(qDists)),
				Dists: qDists,
			})
			shardBenchDists = append(shardBenchDists, qDists)
		}
	})
}

func shardBenchConfig(shards int) mindex.Config {
	return mindex.Config{
		NumPivots: 24, MaxLevel: 6, BucketCapacity: 200,
		Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
		Shards: shards,
	}
}

// BenchmarkShardedVsSingle measures the sharded engine against the
// single-lock baseline: bulk-insert throughput and approximate-kNN /
// range-query latency at 1, 4 and 8 shards. On a multi-core host the
// sharded inserts and searches spread across the worker pool; on one core
// the numbers bound the sharding overhead instead.
func BenchmarkShardedVsSingle(b *testing.B) {
	shardBenchSetup()
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("insert/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := engine.New(shardBenchConfig(shards))
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.InsertBulk(shardBenchEntries); err != nil {
					b.Fatal(err)
				}
				if eng.Size() != len(shardBenchEntries) {
					b.Fatal("lost entries")
				}
				eng.Close()
			}
			b.ReportMetric(float64(len(shardBenchEntries))*float64(b.N)/b.Elapsed().Seconds(), "inserts/s")
		})
	}
	for _, shards := range []int{1, 4, 8} {
		eng, err := engine.New(shardBenchConfig(shards))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		if err := eng.InsertBulk(shardBenchEntries); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("approx/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cands, err := eng.ApproxCandidates(shardBenchQueries[i%len(shardBenchQueries)], 600)
				if err != nil {
					b.Fatal(err)
				}
				if len(cands) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
		b.Run(fmt.Sprintf("range/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.RangeByDists(shardBenchDists[i%len(shardBenchDists)], 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Concurrent search throughput: the configuration sharding exists
		// for. RunParallel drives GOMAXPROCS goroutines against the engine.
		b.Run(fmt.Sprintf("approx-parallel/shards=%d", shards), func(b *testing.B) {
			var qi atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(qi.Add(1))
					if _, err := eng.ApproxCandidates(shardBenchQueries[i%len(shardBenchQueries)], 600); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkBulkLoad measures bulk-ingest throughput at two layers.
//
// The engine group is in-core: one InsertBulk call of the whole collection
// ("builder") against the same entries in 15-entry calls ("chunks=15", the
// size of a small write's share of one shard). Both go through mindex's
// write planner and produce byte-identical snapshots
// (TestBulkBuildShardEquivalence); the planner against the entry-at-a-time
// algorithm it replaced is mindex's BenchmarkBulkBuild.
//
// The pipeline group is end to end over loopback TCP with a WAL attached:
// "batch" is the pre-PR ingest pipeline — stop-and-wait InsertContext
// bulks of the paper's bulk size, each a flight of 64-entry chunk frames,
// with -wal-sync always, one fsync per chunk frame — while "stream" is the new one — pipelined ingest-chunk frames
// under windowed acks with WAL group commit, one fsync per window plus the
// end-of-stream flush, so both runs end with the same durability. The
// stream/batch ratio at shards=1 is the ingest speedup of streaming; CI
// runs the group once as a smoke test, and cmd/benchab -speedup-min checks
// the ratio within one run. Shard counts beyond 1 add the parallel
// per-shard builds; with -cpu 4,8 on a multi-core host they overlap, on
// one core the numbers bound the fan-out overhead instead.
func BenchmarkBulkLoad(b *testing.B) {
	shardBenchSetup()
	load := func(b *testing.B, storage mindex.StorageKind, shards, chunk int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := shardBenchConfig(shards)
			cfg.Storage = storage
			if storage == mindex.StorageDisk {
				cfg.DiskPath = b.TempDir()
			}
			b.StartTimer()
			eng, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(shardBenchEntries); off += chunk {
				end := min(off+chunk, len(shardBenchEntries))
				if err := eng.InsertBulk(shardBenchEntries[off:end]); err != nil {
					b.Fatal(err)
				}
			}
			if eng.Size() != len(shardBenchEntries) {
				b.Fatal("lost entries")
			}
			eng.Close()
		}
		b.ReportMetric(float64(len(shardBenchEntries))*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
	}
	for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
		b.Run(fmt.Sprintf("engine/%s/chunks=15/shards=1", storage), func(b *testing.B) {
			load(b, storage, 1, 15)
		})
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("engine/%s/builder/shards=%d", storage, shards), func(b *testing.B) {
				load(b, storage, shards, len(shardBenchEntries))
			})
		}
	}

	key, err := secret.Generate(shardBenchPivots, secret.ModeCTRHMAC)
	if err != nil {
		b.Fatal(err)
	}
	pipeline := func(b *testing.B, shards int, policy wal.SyncPolicy, stream bool) {
		objs := shardBenchObjects
		opts := core.Options{MaxLevel: 6, Ranking: mindex.RankFootrule}
		if stream {
			// The streamed mode ships construction-bulk-sized frames (the
			// paper's bulk size) under the ack window; the batch mode keeps
			// the pre-PR default of 64-entry pipelined frames, each of which
			// the server WAL-appends (and, under -wal-sync always, fsyncs).
			opts.BatchChunk = 1000
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv, err := server.NewEncrypted(shardBenchConfig(shards))
			if err != nil {
				b.Fatal(err)
			}
			l, _, err := wal.Open(b.TempDir(), policy)
			if err != nil {
				b.Fatal(err)
			}
			srv.AttachWAL(l)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			client, err := core.DialEncrypted(srv.Addr(), key, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if stream {
				if _, err := client.InsertStream(objs); err != nil {
					b.Fatal(err)
				}
			} else {
				const bulk = 1000 // the paper's construction bulk size
				for off := 0; off < len(objs); off += bulk {
					end := min(off+bulk, len(objs))
					if _, err := client.Insert(objs[off:end]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if got := srv.Index().Size(); got != len(objs) {
				b.Fatalf("server holds %d entries, want %d", got, len(objs))
			}
			client.Close()
			srv.Close()
			l.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(len(shardBenchObjects))*float64(b.N)/b.Elapsed().Seconds(), "objs/s")
	}
	b.Run("pipeline/batch/shards=1", func(b *testing.B) {
		pipeline(b, 1, wal.SyncAlways, false)
	})
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("pipeline/stream/shards=%d", shards), func(b *testing.B) {
			pipeline(b, shards, wal.SyncGroup, true)
		})
	}
}

// BenchmarkChurn measures the mutable index at steady state: each round
// tombstones the oldest batch of entries, inserts a fresh batch under new
// IDs, and runs one approximate query — the sustained insert/delete
// workload an append-only index cannot express. Auto-compaction is on
// (fraction 0.25), so the numbers include the periodic shard rebuilds that
// keep tombstones from accumulating. The reported churn-ops/s counts
// deletes + inserts.
func BenchmarkChurn(b *testing.B) {
	shardBenchSetup()
	const population = 10000
	const batch = 100
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := shardBenchConfig(shards)
			cfg.AutoCompactFraction = 0.25
			eng, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			if err := eng.InsertBulk(shardBenchEntries[:population]); err != nil {
				b.Fatal(err)
			}
			// FIFO of live entries: each round deletes the oldest batch and
			// appends the fresh one, holding the live set at steady state.
			fifo := make([]mindex.Entry, population)
			copy(fifo, shardBenchEntries[:population])
			nextID := uint64(1) << 32 // fresh IDs, disjoint from the data set's
			src := population         // recycle pool cursor for fresh pivot metadata
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deleted, err := eng.Delete(fifo[:batch])
				if err != nil {
					b.Fatal(err)
				}
				if deleted != batch {
					b.Fatalf("deleted %d of %d", deleted, batch)
				}
				fifo = fifo[batch:]
				fresh := make([]mindex.Entry, batch)
				for j := range fresh {
					e := shardBenchEntries[src%len(shardBenchEntries)]
					src++
					e.ID = nextID
					nextID++
					fresh[j] = e
				}
				if err := eng.InsertBulk(fresh); err != nil {
					b.Fatal(err)
				}
				fifo = append(fifo, fresh...)
				if _, err := eng.ApproxCandidates(shardBenchQueries[i%len(shardBenchQueries)], 600); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if eng.Size() != population {
				b.Fatalf("steady state drifted to %d entries", eng.Size())
			}
			b.ReportMetric(float64(2*batch)*float64(b.N)/b.Elapsed().Seconds(), "churn-ops/s")
		})
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationPromise compares the two cell-ranking strategies at
// equal candidate size: the rank-based footrule (permutation request) vs
// the distance-sum ranking (distance-vector request).
func BenchmarkAblationPromise(b *testing.B) {
	for _, ranking := range []mindex.RankStrategy{mindex.RankFootrule, mindex.RankDistSum} {
		b.Run(ranking.String(), func(b *testing.B) {
			ds := dataset.Yeast()
			spec, _ := bench.SpecByName("YEAST")
			cfg := spec.Cfg
			cfg.Ranking = ranking
			queries, indexed := dataset.SampleQueries(ds, 50, 99, false)
			cloud, err := bench.NewEncryptedCloud(ds, cfg, 99, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cloud.Close()
			if _, err := cloud.InsertAll(indexed, 1000); err != nil {
				b.Fatal(err)
			}
			exact := bench.GroundTruth(ds, indexed, queries, 30)
			var recallSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := i % len(queries)
				res, _, err := cloud.Enc.Search(context.Background(), core.Query{
					Kind: core.KindApproxKNN, Vec: queries[qi].Vec, K: 30, CandSize: 600,
				})
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]uint64, len(res))
				for j, r := range res {
					ids[j] = r.ID
				}
				recallSum += stats.Recall(ids, exact[qi])
			}
			b.ReportMetric(recallSum/float64(b.N), "recall-%")
		})
	}
}

// BenchmarkAblationFilter compares range-query cost with permutation-only
// records (no server-side pivot filtering) against records carrying full
// distance vectors (Algorithm 1's precise strategy).
func BenchmarkAblationFilter(b *testing.B) {
	for _, storeDists := range []bool{false, true} {
		name := "permonly"
		if storeDists {
			name = "withdists"
		}
		b.Run(name, func(b *testing.B) {
			ds := dataset.Yeast()
			spec, _ := bench.SpecByName("YEAST")
			queries, indexed := dataset.SampleQueries(ds, 50, 17, false)
			cloud, err := bench.NewEncryptedCloud(ds, spec.Cfg, 17, core.Options{StoreDists: storeDists})
			if err != nil {
				b.Fatal(err)
			}
			defer cloud.Close()
			if _, err := cloud.InsertAll(indexed, 1000); err != nil {
				b.Fatal(err)
			}
			var sum stats.Costs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, costs, err := cloud.Enc.Search(context.Background(), core.Query{
					Kind: core.KindRange, Vec: queries[i%len(queries)].Vec, Radius: 300,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum.Accumulate(costs)
			}
			b.StopTimer()
			avg := sum.DividedBy(b.N)
			b.ReportMetric(float64(avg.Candidates), "candidates")
			b.ReportMetric(float64(avg.CommBytes())/1000, "comm-kB")
		})
	}
}

// BenchmarkAblationStorage compares memory vs disk bucket storage on the
// same collection and workload.
func BenchmarkAblationStorage(b *testing.B) {
	for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
		b.Run(storage.String(), func(b *testing.B) {
			ds := dataset.Yeast()
			spec, _ := bench.SpecByName("YEAST")
			cfg := spec.Cfg
			cfg.Storage = storage
			queries, indexed := dataset.SampleQueries(ds, 50, 23, false)
			cloud, err := bench.NewEncryptedCloud(ds, cfg, 23, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cloud.Close()
			if _, err := cloud.InsertAll(indexed, 1000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cloud.Enc.Search(context.Background(), core.Query{
					Kind: core.KindApproxKNN, Vec: queries[i%len(queries)].Vec, K: 30, CandSize: 600,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCipher compares the two cipher constructions on object
// encrypt/decrypt round trips.
func BenchmarkAblationCipher(b *testing.B) {
	ds := dataset.Yeast()
	pivots := SelectPivots(31, ds.Dist, ds.Objects, 8)
	for _, mode := range []secret.Mode{secret.ModeCTRHMAC, secret.ModeGCM} {
		b.Run(mode.String(), func(b *testing.B) {
			key, err := secret.Generate(pivots, mode)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := ds.Objects[i%ds.Size()]
				ct, err := key.EncryptObject(o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := key.DecryptObject(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPivotSelection compares the paper's random pivot choice
// against greedy max-separation at equal pivot count and candidate size.
func BenchmarkAblationPivotSelection(b *testing.B) {
	ds := dataset.Yeast()
	for _, strategy := range []string{"random", "maxsep"} {
		b.Run(strategy, func(b *testing.B) {
			rng := newRNG(47)
			var pv *pivot.Set
			if strategy == "maxsep" {
				pv = pivot.SelectMaxSeparated(rng, ds.Dist, ds.Objects, 30, 0)
			} else {
				pv = pivot.SelectRandom(rng, ds.Dist, ds.Objects, 30)
			}
			key, err := secret.Generate(pv, secret.ModeCTRHMAC)
			if err != nil {
				b.Fatal(err)
			}
			spec, _ := bench.SpecByName("YEAST")
			srv, err := server.NewEncrypted(spec.Cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			if err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			client, err := core.DialEncrypted(srv.Addr(), key, core.Options{MaxLevel: spec.Cfg.MaxLevel})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			queries, indexed := dataset.SampleQueries(ds, 50, 47, false)
			for start := 0; start < len(indexed); start += 1000 {
				if _, err := client.Insert(indexed[start:min(start+1000, len(indexed))]); err != nil {
					b.Fatal(err)
				}
			}
			exact := bench.GroundTruth(ds, indexed, queries, 30)
			var recallSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := i % len(queries)
				res, _, err := client.Search(context.Background(), core.Query{
					Kind: core.KindApproxKNN, Vec: queries[qi].Vec, K: 30, CandSize: 600,
				})
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]uint64, len(res))
				for j, r := range res {
					ids[j] = r.ID
				}
				recallSum += stats.Recall(ids, exact[qi])
			}
			b.ReportMetric(recallSum/float64(b.N), "recall-%")
		})
	}
}

// BenchmarkAblationTransform measures the price of the distribution-hiding
// distance transformation (the paper's future-work privacy level 4,
// implemented in internal/transform): same range workload, raw vs
// transformed stored distances. The transform loosens pruning, so the
// candidate sets and communication grow — results stay exact either way.
func BenchmarkAblationTransform(b *testing.B) {
	for _, hide := range []bool{false, true} {
		name := "raw"
		if hide {
			name = "hidden"
		}
		b.Run(name, func(b *testing.B) {
			ds := dataset.Yeast()
			spec, _ := bench.SpecByName("YEAST")
			queries, indexed := dataset.SampleQueries(ds, 50, 19, false)
			cloud, err := bench.NewEncryptedCloud(ds, spec.Cfg, 19, core.Options{StoreDists: true})
			if err != nil {
				b.Fatal(err)
			}
			defer cloud.Close()
			if hide {
				if err := FitEqualizingTransform(cloud.Key, indexed, 300, 32); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := cloud.InsertAll(indexed, 1000); err != nil {
				b.Fatal(err)
			}
			var sum stats.Costs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, costs, err := cloud.Enc.Search(context.Background(), core.Query{
					Kind: core.KindRange, Vec: queries[i%len(queries)].Vec, Radius: 300,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum.Accumulate(costs)
			}
			b.StopTimer()
			avg := sum.DividedBy(b.N)
			b.ReportMetric(float64(avg.Candidates), "candidates")
			b.ReportMetric(float64(avg.CommBytes())/1000, "comm-kB")
		})
	}
}

// BenchmarkAblationPivots sweeps the pivot count: more pivots give finer
// partitioning (better recall at equal candidate size) at higher insert and
// query-preprocessing cost.
func BenchmarkAblationPivots(b *testing.B) {
	for _, n := range []int{10, 30, 60} {
		b.Run(fmt.Sprintf("pivots%d", n), func(b *testing.B) {
			ds := dataset.Yeast()
			cfg := mindex.Config{
				NumPivots: n, MaxLevel: min(6, n), BucketCapacity: 200,
				Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
			}
			queries, indexed := dataset.SampleQueries(ds, 50, 41, false)
			cloud, err := bench.NewEncryptedCloud(ds, cfg, 41, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cloud.Close()
			if _, err := cloud.InsertAll(indexed, 1000); err != nil {
				b.Fatal(err)
			}
			exact := bench.GroundTruth(ds, indexed, queries, 30)
			var recallSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := i % len(queries)
				res, _, err := cloud.Enc.Search(context.Background(), core.Query{
					Kind: core.KindApproxKNN, Vec: queries[qi].Vec, K: 30, CandSize: 600,
				})
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]uint64, len(res))
				for j, r := range res {
					ids[j] = r.ID
				}
				recallSum += stats.Recall(ids, exact[qi])
			}
			b.ReportMetric(recallSum/float64(b.N), "recall-%")
		})
	}
}
