package mindex

// Tests for the PR 4 allocation-discipline pass: allocation-regression
// bounds on the query hot paths, DiskStore bucket-cache invalidation and
// budget behavior, the append-handle dirty-flag fix, and — the contract the
// whole pass rests on — equivalence tests proving that cached, pooled,
// zero-copy reads return byte-identical candidate lists under churn.

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// perfEntries prepares deterministic entries (with distance vectors, so all
// pruning bounds are live) and matching queries.
func perfEntries(n, numPivots int) ([]Entry, []ApproxQuery, [][]float64) {
	ds := dataset.Clustered(777, n, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(777, 3))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, numPivots)
	entries := make([]Entry, 0, len(ds.Objects))
	for _, o := range ds.Objects {
		dists := pv.Distances(o.Vec)
		entries = append(entries, Entry{ID: o.ID, Perm: pivot.Permutation(dists), Dists: dists})
	}
	var queries []ApproxQuery
	var qDists [][]float64
	for i := range 16 {
		d := pv.Distances(ds.Objects[(i*97)%len(ds.Objects)].Vec)
		queries = append(queries, ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(d)), Dists: d})
		qDists = append(qDists, d)
	}
	return entries, queries, qDists
}

func perfConfig(numPivots int) Config {
	return Config{
		NumPivots: numPivots, MaxLevel: 4, BucketCapacity: 25,
		Storage: StorageMemory, Ranking: RankFootrule,
	}
}

// TestQueryPathAllocs pins allocation ceilings on the prune, promise and
// approximate-collect paths. Before the allocation-discipline pass the
// approximate path cost >100 allocs/op (heap boxing per visited child plus
// a bucket copy per visited leaf) and the range path allocated a map per
// pruning decision; the ceilings below would all fail loudly on a
// regression to that state while leaving slack for incidental allocations.
func TestQueryPathAllocs(t *testing.T) {
	entries, queries, qDists := perfEntries(3000, 12)
	ix, err := New(perfConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	// Warm pools so the steady state is measured, not first-touch growth.
	for i := range queries {
		if _, err := ix.ApproxCandidates(queries[i], 400); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.RangeByDists(qDists[i], 2); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		max  float64
		run  func(i int)
	}{
		// The ranked forms, which the server answers with: the flat forms
		// decode every candidate into an Entry of its own on top.
		{"approx-collect", 12, func(i int) {
			if _, err := ix.ApproxCandidatesRanked(queries[i%len(queries)], 400); err != nil {
				t.Fatal(err)
			}
		}},
		{"first-cell", 12, func(i int) {
			if _, err := ix.Search(Query{Kind: KindFirstCell, ApproxQuery: queries[i%len(queries)]}); err != nil {
				t.Fatal(err)
			}
		}},
		{"bound-collect", 4, func(i int) {
			// The bound-ordered first page of a precise k-NN at the
			// client's default candidate size: the entry heap, which
			// becomes the result, and the keys its sort orders (2
			// allocations), nothing per visited cell or entry — the cell
			// queue is pooled.
			if _, err := ix.Search(Query{Kind: KindRange, ApproxQuery: queries[i%len(queries)], Radius: math.Inf(1), CandSize: 200, Page: 1 << 20}); err != nil {
				t.Fatal(err)
			}
		}},
		{"range-pruned", 8, func(i int) {
			// A tiny radius exercises the pruning machinery (the box and
			// hyperplane bounds per child) with almost no leaf visits.
			if _, err := ix.Search(Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qDists[i%len(qDists)]}, Radius: 1e-9}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			got := testing.AllocsPerRun(50, func() { tc.run(i); i++ })
			if got > tc.max {
				t.Errorf("%s: %.1f allocs/op, want <= %.0f", tc.name, got, tc.max)
			}
		})
	}
}

// TestDiskSearchMissAllocs pins what a search's cache miss costs once the
// budget has no room for the bucket, the regime of a collection far larger
// than its cache: the file is read into the search's pooled scratch, so a
// miss allocates the file name and its C string and nothing sized by the
// bucket, and the search's bytes are what it keeps — the records copied
// into its arena and the result — plus a fixed slack. A miss that allocated
// its image (and an os.File) cost six allocations and every byte of every
// leaf read. The index is TestQueryPathAllocs' collection, on disk with a
// budget below one bucket.
func TestDiskSearchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the pin holds for a warm scratch pool, which the race detector's sync.Pool does not keep")
	}
	entries, queries, qDists := perfEntries(3000, 12)
	cfg := perfConfig(12)
	cfg.Storage = StorageDisk
	cfg.DiskPath = t.TempDir()
	cfg.DiskCacheBytes = 1 << 10
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    func(i int) Query
	}{
		{"range", func(i int) Query {
			return Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qDists[i%len(qDists)]}, Radius: 3}
		}},
		{"bound-collect", func(i int) Query {
			return Query{Kind: KindRange, ApproxQuery: queries[i%len(queries)], Radius: math.Inf(1), CandSize: 50, Page: 1 << 20}
		}},
	}
	const runs = 64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kept := 0 // bytes of the records and the results the searches keep
			search := func(i int) {
				rcs, err := ix.Search(tc.q(i))
				if err != nil {
					t.Fatal(err)
				}
				kept += cap(rcs) * int(unsafe.Sizeof(RankedCandidate{}))
				for _, rc := range rcs {
					kept += len(rc.Entry.Record)
				}
			}
			for i := range runs { // warm the pools
				search(i)
			}
			kept = 0
			_, misses0, _ := ix.CacheStats()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range runs {
				search(i)
			}
			runtime.ReadMemStats(&after)
			_, misses1, _ := ix.CacheStats()
			allocs := float64(after.Mallocs-before.Mallocs) / runs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			perMiss := float64(misses1-misses0) / runs
			t.Logf("%.1f misses, %.1f allocs, %.0f B per search; kept %.0f B", perMiss, allocs, bytes, float64(kept)/runs)
			if perMiss < 4 {
				t.Fatalf("%.1f misses per search: the leaves were not cold", perMiss)
			}
			if allocs > 3*perMiss {
				t.Errorf("%.1f allocs per search over %.1f misses: %.2f a miss, want <= 3", allocs, perMiss, allocs/perMiss)
			}
			// Slack: the result's growth before its final size, the bound
			// heap, and the arena chunk ends a copy does not fill.
			if limit := 2*float64(kept)/runs + 8<<10; bytes > limit {
				t.Errorf("%.0f B per search, want <= %.0f (twice the %.0f B kept, plus 8 KiB)", bytes, limit, float64(kept)/runs)
			}
		})
	}
}

// TestDiskCacheInvalidation drives the DiskStore read-through cache through
// every invalidation edge: append, cut and free after a cached read must
// serve fresh data, and the hit/miss counters must tick accordingly.
func TestDiskCacheInvalidation(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewPCG(9, 9))
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	e1, e2, e3 := randomEntry(rng, 1), randomEntry(rng, 2), randomEntry(rng, 3)

	expect := func(step string, want []Entry) {
		t.Helper()
		for range 2 { // the second is the cached re-read
			got, err := viewEntries(s.View(id))
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: got %d entries, want %d", step, len(got), len(want))
			}
			for i := range want {
				if !entriesEqual(got[i], want[i]) {
					t.Fatalf("%s: entry %d differs", step, i)
				}
			}
		}
	}

	if err := s.Append(id, bucketOf(e1)); err != nil {
		t.Fatal(err)
	}
	expect("after first append", []Entry{e1})
	expect("cached reread", []Entry{e1})
	if hits, misses, _ := s.CacheStats(); hits < 3 || misses != 1 {
		t.Fatalf("after warm rereads: hits=%d misses=%d, want >=3 hits and exactly 1 miss", hits, misses)
	}

	if err := s.Append(id, bucketOf(e2)); err != nil {
		t.Fatal(err)
	}
	expect("append invalidates", []Entry{e1, e2})

	if err := s.Cut(id, 1); err != nil {
		t.Fatal(err)
	}
	expect("cut invalidates", []Entry{e1})
	hitsBefore, missesBefore, _ := s.CacheStats()
	expect("cached after cut", []Entry{e1}) // two reads, both hits
	if hits, misses, _ := s.CacheStats(); hits != hitsBefore+2 || misses != missesBefore {
		t.Fatalf("the read after cut should have cached the bucket: hits %d->%d misses %d->%d",
			hitsBefore, hits, missesBefore, misses)
	}
	if err := s.Append(id, bucketOf(e3)); err != nil {
		t.Fatal(err)
	}
	expect("append after cut", []Entry{e1, e3})

	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(id); err == nil {
		t.Fatal("view of freed bucket succeeded")
	}
	if _, _, bytes := s.CacheStats(); bytes != 0 {
		t.Fatalf("freed bucket still charged %d bytes against the cache", bytes)
	}
}

// TestDiskCacheBudget verifies the cache's one admission rule: a miss is
// admitted only if it fits the free budget, and a cached bucket leaves only
// when Append, Cut or Free changes it, SetCacheBudget empties the cache,
// or the store closes. So the charged bytes never exceed the budget, a full
// cache keeps what it holds across any read of a bucket that does not fit —
// a mutator's View or a search's ViewScratch alike — a cut or grown
// bucket is uncached until its next read, and correctness is unaffected
// throughout (checkCacheCharges recomputes every charge from the cached
// bucket).
func TestDiskCacheBudget(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewPCG(11, 11))
	const buckets = 12
	budget := 4 * 1024
	s.SetCacheBudget(budget)
	ids := make([]BucketID, buckets)
	want := make(map[BucketID][]Entry)
	for i := range ids {
		ids[i], err = s.Create()
		if err != nil {
			t.Fatal(err)
		}
		for j := range 8 {
			e := randomEntry(rng, uint64(i*100+j))
			want[ids[i]] = append(want[ids[i]], e)
			if err := s.Append(ids[i], bucketOf(e)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step string, id BucketID, got Bucket, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		es := entriesOf(got)
		if len(es) != len(want[id]) {
			t.Fatalf("%s bucket %d: %d entries, want %d", step, id, len(es), len(want[id]))
		}
		for i := range es {
			if !entriesEqual(es[i], want[id][i]) {
				t.Fatalf("%s bucket %d entry %d differs", step, id, i)
			}
		}
		checkCacheCharges(t, s)
	}
	cached := func() map[BucketID]bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := map[BucketID]bool{}
		for id := range s.cache {
			out[id] = true
		}
		return out
	}
	for round := range 3 {
		for _, id := range ids {
			b, err := s.View(id)
			check(fmt.Sprintf("round %d", round), id, b, err)
		}
		// A cut bucket leaves the cache; its next read is a miss.
		id := ids[round]
		want[id] = want[id][:len(want[id])-1]
		if err := s.Cut(id, len(want[id])); err != nil {
			t.Fatal(err)
		}
		if cached()[id] {
			t.Fatalf("round %d: Cut left bucket %d cached", round, id)
		}
		checkCacheCharges(t, s)
	}
	_, misses, _ := s.CacheStats()
	if misses == 0 {
		t.Fatalf("budget churn should produce misses, got %d", misses)
	}

	// Fill the free budget, then read a bucket that does not fit, as a
	// mutator and as a search: both are served, neither is admitted, and
	// every cached bucket stays.
	for _, id := range ids {
		b, err := s.View(id)
		check("fill", id, b, err)
	}
	full := cached()
	var out BucketID
	for _, id := range ids {
		if !full[id] {
			out = id
			break
		}
	}
	if out == 0 || len(full) == 0 {
		t.Fatalf("%d of %d buckets cached under a %d-byte budget; the test needs some in and some out", len(full), buckets, budget)
	}
	b, err := s.View(out)
	check("mutator view past the budget", out, b, err)
	var scratch Bucket
	b, transient, err := s.ViewScratch(out, &scratch)
	check("search view past the budget", out, b, err)
	if !transient {
		t.Fatalf("search view of bucket %d, which does not fit, is not transient", out)
	}
	if now := cached(); !maps.Equal(now, full) {
		t.Fatalf("reads past the budget changed the cached set from %v to %v", full, now)
	}
	hitsBefore, _, _ := s.CacheStats()
	for id := range full {
		if _, err := s.View(id); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _, _ := s.CacheStats(); hits != hitsBefore+uint64(len(full)) {
		t.Fatalf("re-reads of %d cached buckets made %d hits", len(full), hits-hitsBefore)
	}

	// Cut and Append drop a cached bucket; neither caches what it wrote.
	var in BucketID
	for id := range full {
		in = id
		break
	}
	want[in] = want[in][:len(want[in])-1]
	if err := s.Cut(in, len(want[in])); err != nil {
		t.Fatal(err)
	}
	if cached()[in] {
		t.Fatalf("Cut left bucket %d cached", in)
	}
	b, err = s.View(in) // fits the budget Cut freed
	check("view after cut", in, b, err)
	if !cached()[in] {
		t.Fatalf("bucket %d not re-admitted after Cut", in)
	}
	e := randomEntry(rng, 9999)
	want[in] = append(want[in], e)
	if err := s.Append(in, bucketOf(e)); err != nil {
		t.Fatal(err)
	}
	if cached()[in] {
		t.Fatalf("Append left bucket %d cached", in)
	}
	checkCacheCharges(t, s)

	// SetCacheBudget empties the cache, whatever the new budget.
	s.SetCacheBudget(2 * budget)
	if _, _, bytes := s.CacheStats(); bytes != 0 || len(cached()) != 0 {
		t.Fatalf("SetCacheBudget left %d buckets cached, %d bytes charged", len(cached()), bytes)
	}
	s.SetCacheBudget(-1)
	b, err = s.View(ids[0])
	check("cache-disabled view", ids[0], b, err)
	if _, _, bytes := s.CacheStats(); bytes != 0 {
		t.Fatalf("disabled cache still charges %d bytes", bytes)
	}
}

// TestDiskViewKeepsAppendHandle: a View between appends must keep the
// append handle open, so the next append does not pay a file-open syscall
// (the seed closed the handle on every read). White-box: the handle registry
// is inspected.
func TestDiskViewKeepsAppendHandle(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewPCG(13, 13))
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(id, bucketOf(randomEntry(rng, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(id); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	h, open := s.open[id]
	s.mu.Unlock()
	if !open {
		t.Fatal("view closed the append handle")
	}
	// A subsequent append must reuse the same handle.
	if err := s.Append(id, bucketOf(randomEntry(rng, 2))); err != nil {
		t.Fatal(err)
	}
	if h2 := s.open[id]; h2 != h {
		t.Fatal("the append after a view opened a new handle")
	}
	got, err := s.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("viewed %d entries, want 2", got.Len())
	}
}

// TestDiskHandleLRUConsistency hammers the bounded append-handle cache
// (container/list since PR 4) across eviction churn and checks the map and
// list never diverge.
func TestDiskHandleLRUConsistency(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.maxFDs = 3
	rng := rand.New(rand.NewPCG(17, 17))
	ids := make([]BucketID, 10)
	for i := range ids {
		if ids[i], err = s.Create(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 500 {
		id := ids[rng.IntN(len(ids))]
		if err := s.Append(id, bucketOf(randomEntry(rng, uint64(i)))); err != nil {
			t.Fatal(err)
		}
		if rng.IntN(4) == 0 {
			if _, err := s.View(id); err != nil {
				t.Fatal(err)
			}
		}
		s.mu.Lock()
		mapLen, listLen := len(s.open), s.handleLRU.Len()
		over := mapLen > s.maxFDs
		s.mu.Unlock()
		if mapLen != listLen {
			t.Fatalf("handle map has %d entries, LRU list %d", mapLen, listLen)
		}
		if over {
			t.Fatalf("%d handles open, cap %d", mapLen, s.maxFDs)
		}
	}
}

// TestCacheEquivalenceUnderChurn is the tentpole contract: a memory-backed
// index, a disk-backed index with the read-through cache, and a disk-backed
// index with the cache disabled must return byte-identical ranked candidate
// lists, range candidate sets and first cells at every point of an
// insert/delete/move/compact churn schedule. Run under -race in CI.
func TestCacheEquivalenceUnderChurn(t *testing.T) {
	entries, queries, qDists := perfEntries(1200, 10)
	mk := func(tune func(*Config)) *Index {
		cfg := perfConfig(10)
		tune(&cfg)
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	indexes := map[string]*Index{
		"mem": mk(func(c *Config) {}),
		"disk-cached": mk(func(c *Config) {
			c.Storage = StorageDisk
			c.DiskPath = t.TempDir()
		}),
		"disk-nocache": mk(func(c *Config) {
			c.Storage = StorageDisk
			c.DiskPath = t.TempDir()
			c.DiskCacheBytes = -1
		}),
		"disk-tiny-cache": mk(func(c *Config) {
			c.Storage = StorageDisk
			c.DiskPath = t.TempDir()
			c.DiskCacheBytes = 8 * 1024 // heavy eviction churn
		}),
	}

	compareAll := func(phase string) {
		t.Helper()
		ref := indexes["mem"]
		for qi := range queries {
			wantRanked, err := ref.ApproxCandidatesRanked(queries[qi], 300)
			if err != nil {
				t.Fatal(err)
			}
			wantRange, err := ref.RangeByDists(qDists[qi], 3)
			if err != nil {
				t.Fatal(err)
			}
			wantCell, err := ref.Search(Query{Kind: KindFirstCell, ApproxQuery: queries[qi]})
			if err != nil {
				t.Fatal(err)
			}
			for name, ix := range indexes {
				if name == "mem" {
					continue
				}
				gotRanked, err := ix.ApproxCandidatesRanked(queries[qi], 300)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotRanked) != len(wantRanked) {
					t.Fatalf("%s %s q%d: %d ranked candidates, want %d", phase, name, qi, len(gotRanked), len(wantRanked))
				}
				for i := range wantRanked {
					if !sameRecord(gotRanked[i].Entry, wantRanked[i].Entry) ||
						gotRanked[i].Promise != wantRanked[i].Promise ||
						!slices.Equal(gotRanked[i].Prefix, wantRanked[i].Prefix) {
						t.Fatalf("%s %s q%d: ranked candidate %d differs", phase, name, qi, i)
					}
				}
				gotRange, err := ix.RangeByDists(qDists[qi], 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotRange) != len(wantRange) {
					t.Fatalf("%s %s q%d: %d range candidates, want %d", phase, name, qi, len(gotRange), len(wantRange))
				}
				for i := range wantRange {
					if !entriesEqual(gotRange[i], wantRange[i]) {
						t.Fatalf("%s %s q%d: range candidate %d differs", phase, name, qi, i)
					}
				}
				gotCell, err := ix.Search(Query{Kind: KindFirstCell, ApproxQuery: queries[qi]})
				if err != nil {
					t.Fatal(err)
				}
				if len(gotCell) != len(wantCell) {
					t.Fatalf("%s %s q%d: first cell differs", phase, name, qi)
				}
				for i := range wantCell {
					if !sameRecord(gotCell[i].Entry, wantCell[i].Entry) ||
						gotCell[i].Promise != wantCell[i].Promise ||
						!slices.Equal(gotCell[i].Prefix, wantCell[i].Prefix) {
						t.Fatalf("%s %s q%d: first-cell entry %d differs", phase, name, qi, i)
					}
				}
			}
		}
	}

	apply := func(phase string, f func(ix *Index) error) {
		t.Helper()
		for name, ix := range indexes {
			if err := f(ix); err != nil {
				t.Fatalf("%s on %s: %v", phase, name, err)
			}
		}
		compareAll(phase)
	}

	apply("initial build", func(ix *Index) error { return ix.InsertBulk(entries[:800]) })
	var dead []uint64
	for i := 0; i < 800; i += 3 {
		dead = append(dead, entries[i].ID)
	}
	apply("delete third", func(ix *Index) error { _, err := ix.Delete(dead); return err })
	apply("insert more", func(ix *Index) error { return ix.InsertBulk(entries[800:]) })
	apply("move batch", func(ix *Index) error {
		for i := 801; i < 850; i++ {
			e := entries[i]
			e.Dists = entries[i-400].Dists
			e.Perm = entries[i-400].Perm
			if err := move(ix, e); err != nil {
				return err
			}
		}
		return nil
	})
	apply("compact", func(ix *Index) error { return ix.Compact() })
	apply("reinsert deleted", func(ix *Index) error {
		for _, id := range dead[:50] {
			for _, e := range entries {
				if e.ID == id {
					if err := ix.InsertBulk([]Entry{e}); err != nil {
						return err
					}
					break
				}
			}
		}
		return nil
	})
}

// TestCacheConcurrentChurn runs concurrent searches against a disk-backed
// cached index while a writer inserts and deletes — the -race gate over the
// zero-copy view discipline (views of buckets being appended to, cache
// entries dropped mid-read, pooled queues shared across goroutines).
func TestCacheConcurrentChurn(t *testing.T) {
	entries, queries, qDists := perfEntries(1500, 10)
	cfg := perfConfig(10)
	cfg.Storage = StorageDisk
	cfg.DiskPath = t.TempDir()
	cfg.DiskCacheBytes = 64 * 1024
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertBulk(entries[:1000]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (i + w) % len(queries)
				if _, err := ix.ApproxCandidates(queries[qi], 200); err != nil {
					t.Error(err)
					return
				}
				if _, err := ix.RangeByDists(qDists[qi], 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 1000; i < len(entries); i++ {
		if err := ix.InsertBulk([]Entry{entries[i]}); err != nil {
			t.Error(err)
			break
		}
		if i%7 == 0 {
			if _, err := ix.Delete([]uint64{entries[i-900].ID}); err != nil {
				t.Error(err)
				break
			}
		}
		if i%250 == 0 {
			if err := ix.Compact(); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDiskMissAllocs pins the cost of a cache miss on the owned path (View,
// and a search's miss the free budget holds), in allocations and in bytes.
// The file is read with three system calls into a buffer of exactly its
// length, which becomes the image, and one ScanEntry pass builds the offset
// table, so a cold View of a 45-entry bucket allocates the file name, its C
// string, the image and the table — where os.Open cost two more, a decode
// into one block per field kind four more, and one DecodeEntry per entry
// 143 — and its bytes are the file's plus four an entry: at most 1.1 × the
// file. (The entries are
// sized so the file sits just under one of the allocator's size classes,
// 16 KiB: the bound is on what the miss asks for, not on the rounding.)
func TestDiskMissAllocs(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCacheBudget(-1) // every View is a miss
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	entries, _, _ := perfEntries(45, 24)
	for i := range entries {
		entries[i].Perm = entries[i].Perm[:8]
		entries[i].Payload = make([]byte, 116)
	}
	recs := bucketOf(entries...)
	if err := s.Append(id, recs); err != nil {
		t.Fatal(err)
	}
	file := len(recs.Bytes())
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			v, err := s.View(id)
			if err != nil || v.Len() != len(entries) {
				b.Fatalf("view: %d entries, %v", v.Len(), err)
			}
		}
	})
	t.Logf("%d allocs, %d B per cold View (file %d B)", res.AllocsPerOp(), res.AllocedBytesPerOp(), file)
	if got := res.AllocsPerOp(); got > 4 {
		t.Errorf("cold View of a %d-entry bucket: %d allocs, want <= 4", len(entries), got)
	}
	if got, limit := res.AllocedBytesPerOp(), int64(file*11/10); got > limit {
		t.Errorf("cold View of a %d-entry bucket: %d B allocated, want <= %d (1.1 x the file's %d)", len(entries), got, limit, file)
	}
	if _, misses, _ := s.CacheStats(); misses < uint64(res.N) {
		t.Fatalf("%d misses in %d Views: they were not cold", misses, res.N)
	}
}
