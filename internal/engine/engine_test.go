package engine

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/stats"
)

const testPivots = 12

func testCfg(shards int) mindex.Config {
	return mindex.Config{
		NumPivots:      testPivots,
		MaxLevel:       5,
		BucketCapacity: 20,
		Storage:        mindex.StorageMemory,
		Ranking:        mindex.RankFootrule,
		Shards:         shards,
	}
}

// testWorld generates a deterministic collection with precomputed entries
// and query vectors in pivot space.
type testWorld struct {
	ds      *dataset.Dataset
	pv      *pivot.Set
	entries []mindex.Entry
	queries []metric.Vector
}

func newWorld(t testing.TB, seed uint64, n, queries int) *testWorld {
	t.Helper()
	ds := dataset.Clustered(seed, n+queries, 6, 4, metric.L2{})
	rng := rand.New(rand.NewPCG(seed, 7))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects[:n], testPivots)
	w := &testWorld{ds: ds, pv: pv}
	for _, o := range ds.Objects[:n] {
		dists := pv.Distances(o.Vec)
		w.entries = append(w.entries, mindex.Entry{
			ID:    o.ID,
			Perm:  pivot.Permutation(dists),
			Dists: dists,
		})
	}
	for _, o := range ds.Objects[n:] {
		w.queries = append(w.queries, o.Vec)
	}
	return w
}

func (w *testWorld) query(q metric.Vector) (qDists []float64, aq mindex.ApproxQuery) {
	qDists = w.pv.Distances(q)
	return qDists, mindex.ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qDists)), Dists: qDists}
}

// exactKNN returns the IDs of the k nearest indexed objects by brute force.
func (w *testWorld) exactKNN(q metric.Vector, k int) []uint64 {
	type pair struct {
		id uint64
		d  float64
	}
	ps := make([]pair, len(w.entries))
	for i, e := range w.entries {
		ps[i] = pair{e.ID, w.ds.Dist.Dist(q, w.ds.Objects[i].Vec)}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].d != ps[j].d {
			return ps[i].d < ps[j].d
		}
		return ps[i].id < ps[j].id
	})
	out := make([]uint64, 0, k)
	for _, p := range ps[:min(k, len(ps))] {
		out = append(out, p.id)
	}
	return out
}

func ids(entries []mindex.Entry) []uint64 {
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

func sortedIDs(entries []mindex.Entry) []uint64 {
	out := ids(entries)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSingleShardMatchesBareIndex: Shards=1 must reproduce the bare
// mindex.Index byte for byte — same candidate lists in the same order.
func TestSingleShardMatchesBareIndex(t *testing.T) {
	w := newWorld(t, 1, 600, 10)
	bare, err := mindex.New(testCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	eng, err := New(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := bare.InsertBulk(w.entries); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBulk(w.entries); err != nil {
		t.Fatal(err)
	}
	if eng.Size() != bare.Size() {
		t.Fatalf("size %d != %d", eng.Size(), bare.Size())
	}
	for _, q := range w.queries {
		qDists, aq := w.query(q)
		wantRange, err := bare.RangeByDists(qDists, 8)
		if err != nil {
			t.Fatal(err)
		}
		gotRange, err := eng.RangeByDists(qDists, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Range candidate order depends on map iteration and is not part of
		// the index contract; the candidate *set* is.
		if !equalIDs(sortedIDs(gotRange), sortedIDs(wantRange)) {
			t.Fatalf("range sets differ: %v vs %v", sortedIDs(gotRange), sortedIDs(wantRange))
		}
		wantApprox, err := bare.ApproxCandidates(aq, 100)
		if err != nil {
			t.Fatal(err)
		}
		gotApprox, err := eng.ApproxCandidates(aq, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(ids(gotApprox), ids(wantApprox)) {
			t.Fatalf("approx order differs: %v vs %v", ids(gotApprox), ids(wantApprox))
		}
		wantFirst, err := mindex.Flat(bare.Search(mindex.Query{Kind: mindex.KindFirstCell, ApproxQuery: aq}))
		if err != nil {
			t.Fatal(err)
		}
		gotFirst, err := mindex.Flat(eng.Search(mindex.Query{Kind: mindex.KindFirstCell, ApproxQuery: aq}))
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(ids(gotFirst), ids(wantFirst)) {
			t.Fatalf("first-cell differs: %v vs %v", ids(gotFirst), ids(wantFirst))
		}
	}
}

// TestShardedEquivalence: for several shard counts, range queries return
// the same result set as a single shard, and approximate candidates lose no
// recall against brute-force ground truth.
func TestShardedEquivalence(t *testing.T) {
	w := newWorld(t, 2, 900, 12)
	const k, candSize = 10, 150
	single, err := New(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.InsertBulk(w.entries); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			eng, err := New(testCfg(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.InsertBulk(w.entries); err != nil {
				t.Fatal(err)
			}
			if eng.Size() != len(w.entries) {
				t.Fatalf("size = %d, want %d", eng.Size(), len(w.entries))
			}
			st := eng.TreeStats()
			if st.Entries != len(w.entries) || st.TotalBucket != len(w.entries) {
				t.Fatalf("stats %+v for %d entries", st, len(w.entries))
			}
			var recallSingle, recallSharded float64
			for _, q := range w.queries {
				qDists, aq := w.query(q)
				want, err := single.RangeByDists(qDists, 8)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.RangeByDists(qDists, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !equalIDs(sortedIDs(got), sortedIDs(want)) {
					t.Fatalf("range result sets differ: %d vs %d entries", len(got), len(want))
				}
				exact := w.exactKNN(q, k)
				singleCands, err := single.ApproxCandidates(aq, candSize)
				if err != nil {
					t.Fatal(err)
				}
				shardedCands, err := eng.ApproxCandidates(aq, candSize)
				if err != nil {
					t.Fatal(err)
				}
				// Eager root splits make shard cells (and promises) coincide
				// with the unsharded tree's, so the merged candidate list must
				// reproduce the single-index list exactly, order included.
				if !equalIDs(ids(shardedCands), ids(singleCands)) {
					t.Fatalf("approx candidates diverge from single shard:\n got %v\nwant %v",
						ids(shardedCands), ids(singleCands))
				}
				recallSingle += stats.Recall(ids(singleCands), exact)
				recallSharded += stats.Recall(ids(shardedCands), exact)
			}
			if recallSharded < recallSingle {
				t.Fatalf("sharded recall %.2f%% below single-shard %.2f%%",
					recallSharded/float64(len(w.queries)), recallSingle/float64(len(w.queries)))
			}
		})
	}
}

// TestConcurrentHammer drives a ShardedIndex with concurrent Insert +
// RangeByDists + ApproxCandidates from many goroutines (run under -race in
// CI), then asserts result-set equality against a 1-shard index holding the
// same data.
func TestConcurrentHammer(t *testing.T) {
	w := newWorld(t, 3, 1200, 8)
	eng, err := New(testCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const writers = 6
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, writers+4)

	// Writers: partition the collection among inserting goroutines.
	for wr := range writers {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := wr; i < len(w.entries); i += writers {
				if err := eng.InsertBulk([]mindex.Entry{w.entries[i]}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Readers: hammer searches while inserts are in flight. Results are
	// unspecified mid-ingest; only absence of races/errors matters here.
	// The iteration count is bounded (not run-until-stopped) so the test
	// cannot livelock on a single-CPU machine: an unbounded query loop
	// ping-pongs with the fan-out pool workers through channel handoffs,
	// and the Go scheduler can keep that pair hot while the writer
	// goroutines starve — with finite reader work, the writers always get
	// the CPU eventually and the stop channel merely ends readers early.
	for r := range 4 {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for i := 0; i < 300; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := w.queries[(r+i)%len(w.queries)]
				qDists, aq := w.query(q)
				if _, err := eng.RangeByDists(qDists, 6); err != nil {
					errCh <- err
					return
				}
				if _, err := eng.ApproxCandidates(aq, 80); err != nil {
					errCh <- err
					return
				}
				if _, err := eng.Search(mindex.Query{Kind: mindex.KindFirstCell, ApproxQuery: aq}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesced: the sharded engine must now answer exactly like a 1-shard
	// index over the same data. The M-Index tree shape is arrival-order
	// independent (a cell splits iff its final count exceeds capacity), but
	// within-bucket order is not, so the reference index is built in the
	// engine's own per-cell arrival order (AllEntries preserves it) — any
	// global order consistent with the per-cell orders yields identical
	// buckets, making even the approximate candidate list exactly equal.
	arrived, err := eng.AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrived) != len(w.entries) {
		t.Fatalf("post-hammer entry count %d, want %d", len(arrived), len(w.entries))
	}
	single, err := New(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.InsertBulk(arrived); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.queries {
		qDists, aq := w.query(q)
		want, err := single.RangeByDists(qDists, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RangeByDists(qDists, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("post-hammer range differs: %d vs %d entries", len(got), len(want))
		}
		exact := w.exactKNN(q, 10)
		singleCands, err := single.ApproxCandidates(aq, 150)
		if err != nil {
			t.Fatal(err)
		}
		shardedCands, err := eng.ApproxCandidates(aq, 150)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(ids(shardedCands), ids(singleCands)) {
			t.Fatal("post-hammer approx candidates diverge from 1-shard index")
		}
		if r1, r2 := stats.Recall(ids(shardedCands), exact), stats.Recall(ids(singleCands), exact); r1 < r2 {
			t.Fatalf("post-hammer approx recall %.1f%% below single-shard %.1f%%", r1, r2)
		}
	}
}

// TestShardRouting: every entry must land in the shard of its first
// permutation element, keeping first-level Voronoi cells shard-local.
func TestShardRouting(t *testing.T) {
	w := newWorld(t, 4, 400, 1)
	eng, err := New(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.InsertBulk(w.entries); err != nil {
		t.Fatal(err)
	}
	for i := range eng.NumShards() {
		entries, err := eng.Shard(i).AllEntries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if int(e.Perm[0])%eng.NumShards() != i {
				t.Fatalf("entry with Perm[0]=%d found in shard %d of %d", e.Perm[0], i, eng.NumShards())
			}
		}
	}
}

// TestShardedSnapshotRoundTrip persists a 4-shard disk engine and restores
// it, checking the restored engine answers identically.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	w := newWorld(t, 5, 500, 4)
	dir := t.TempDir()
	cfg := testCfg(4)
	cfg.Storage = mindex.StorageDisk
	cfg.DiskPath = filepath.Join(dir, "buckets")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBulk(w.entries); err != nil {
		t.Fatal(err)
	}
	qDists, aq := w.query(w.queries[0])
	wantRange, err := eng.RangeByDists(qDists, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantApprox, err := eng.ApproxCandidates(aq, 120)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "engine.snap")
	if err := eng.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Size() != len(w.entries) {
		t.Fatalf("restored size %d, want %d", restored.Size(), len(w.entries))
	}
	gotRange, err := restored.RangeByDists(qDists, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(gotRange), sortedIDs(wantRange)) {
		t.Fatal("restored range result differs")
	}
	gotApprox, err := restored.ApproxCandidates(aq, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids(gotApprox), ids(wantApprox)) {
		t.Fatal("restored approx candidates differ")
	}
}

// TestSnapshotShardCountMismatch: restarting with a different shard count
// than the snapshot was saved with must fail loudly — silently loading a
// subset of shard files (or an empty index) would lose data.
func TestSnapshotShardCountMismatch(t *testing.T) {
	w := newWorld(t, 7, 300, 1)
	dir := t.TempDir()
	cfg := testCfg(4)
	cfg.Storage = mindex.StorageDisk
	cfg.DiskPath = filepath.Join(dir, "buckets")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBulk(w.entries); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap")
	if err := eng.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 8} {
		badCfg := cfg
		badCfg.Shards = shards
		if _, err := LoadSnapshot(badCfg, snap); err == nil {
			t.Fatalf("4-shard snapshot loaded with Shards=%d", shards)
		}
		if ok, err := SnapshotExists(badCfg, snap); shards != 8 && (err == nil || ok) {
			// Shards=8 passes the shape check (no shard-008 file) and fails
			// later at the missing shard-004; smaller counts must be caught
			// up front.
			t.Fatalf("SnapshotExists(Shards=%d) = %v, %v; want shape error", shards, ok, err)
		}
	}
	if ok, err := SnapshotExists(cfg, snap); err != nil || !ok {
		t.Fatalf("SnapshotExists(matching cfg) = %v, %v", ok, err)
	}
	missing := filepath.Join(dir, "nothing-here")
	if ok, err := SnapshotExists(cfg, missing); err != nil || ok {
		t.Fatalf("SnapshotExists(missing) = %v, %v", ok, err)
	}
}

// TestClosedEngine: operations after Close fail cleanly instead of
// panicking on the stopped worker pool.
func TestClosedEngine(t *testing.T) {
	eng, err := New(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBulk([]mindex.Entry{{Perm: []int32{0, 1, 2, 3, 4}}}); err == nil {
		t.Fatal("insert after close succeeded")
	}
	if _, err := eng.RangeByDists(make([]float64, testPivots), 1); err == nil {
		t.Fatal("range after close succeeded")
	}
	if _, err := eng.AllEntries(); err == nil {
		t.Fatal("all-entries after close succeeded")
	}
}

// TestShardCountValidated: engine-level shard counts outside 0..MaxShards
// must be rejected (the per-shard configs are rewritten to Shards=1, so
// mindex validation alone would let them through).
func TestShardCountValidated(t *testing.T) {
	for _, shards := range []int{-1, mindex.MaxShards + 1} {
		cfg := testCfg(shards)
		if _, err := New(cfg); err == nil {
			t.Fatalf("Shards=%d accepted", shards)
		}
	}
}

// TestInvalidEntryRejected: routing requires a non-empty permutation with
// an in-range first element — wire-decoded entries are unvalidated, so a
// hostile Perm[0] must become an error, never a negative shard index.
func TestInvalidEntryRejected(t *testing.T) {
	eng, err := New(testCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.InsertBulk([]mindex.Entry{{}}); err == nil {
		t.Fatal("empty permutation accepted")
	}
	if err := eng.InsertBulk([]mindex.Entry{{}}); err == nil {
		t.Fatal("empty permutation accepted in bulk")
	}
	hostile := mindex.Entry{ID: 1, Perm: []int32{-1, 0, 1, 2, 3}}
	if err := eng.InsertBulk([]mindex.Entry{hostile}); err == nil {
		t.Fatal("negative Perm[0] accepted")
	}
	if err := eng.InsertBulk([]mindex.Entry{hostile}); err == nil {
		t.Fatal("negative Perm[0] accepted in bulk")
	}
	if err := eng.InsertBulk([]mindex.Entry{{ID: 2, Perm: []int32{testPivots, 0, 1, 2, 3}}}); err == nil {
		t.Fatal("out-of-range Perm[0] accepted")
	}
}

// TestCloseRacingSearches: Close concurrent with fan-out searches must
// yield clean errors, never a send-on-closed-channel panic.
func TestCloseRacingSearches(t *testing.T) {
	w := newWorld(t, 6, 400, 4)
	for range 10 {
		eng, err := New(testCfg(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertBulk(w.entries); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_, aq := w.query(w.queries[(r+i)%len(w.queries)])
					if _, err := eng.ApproxCandidates(aq, 50); err != nil {
						return // errClosed: expected once Close lands
					}
				}
			}()
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// --- Mutability ---------------------------------------------------------

// mutationLog tracks what the surviving index contents should be after an
// interleaving of inserts, deletes and moves: records in arrival order,
// each either alive or deleted.
type mutationLog struct {
	records []mindex.Entry
	dead    []bool
	alive   map[uint64]int // live ID -> index into records
}

func newMutationLog() *mutationLog {
	return &mutationLog{alive: map[uint64]int{}}
}

func (l *mutationLog) insert(e mindex.Entry) {
	l.records = append(l.records, e)
	l.dead = append(l.dead, false)
	l.alive[e.ID] = len(l.records) - 1
}

func (l *mutationLog) delete(id uint64) {
	l.dead[l.alive[id]] = true
	delete(l.alive, id)
}

// survivors returns the live records in arrival order — the exact insert
// sequence a rebuilt reference index must replay.
func (l *mutationLog) survivors() []mindex.Entry {
	out := make([]mindex.Entry, 0, len(l.alive))
	for i, e := range l.records {
		if !l.dead[i] {
			out = append(out, e)
		}
	}
	return out
}

func (l *mutationLog) randomLive(rng *rand.Rand) (uint64, bool) {
	if len(l.alive) == 0 {
		return 0, false
	}
	// Deterministic choice: pick the k-th smallest live ID.
	ids := make([]uint64, 0, len(l.alive))
	for id := range l.alive {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.IntN(len(ids))], true
}

// TestMutationEquivalence is the headline guarantee of the mutable index:
// after any interleaving of inserts, deletes, moves and compactions —
// ended by a full Compact — range candidate sets and ranked approximate
// candidate lists are byte-identical to those of a fresh engine into which
// only the surviving entries were inserted, in their original arrival
// order. Exercised on 1 and 4 shards.
func TestMutationEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := newWorld(t, 21, 1600, 8)
			rng := rand.New(rand.NewPCG(21, uint64(shards)))
			eng, err := New(testCfg(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			log := newMutationLog()
			next := 0
			for step := 0; step < 2600 && next < len(w.entries); step++ {
				switch p := rng.Float64(); {
				case p < 0.55: // insert the next fresh entry
					e := w.entries[next]
					next++
					if err := eng.InsertBulk([]mindex.Entry{e}); err != nil {
						t.Fatal(err)
					}
					log.insert(e)
				case p < 0.80: // delete a random live entry, routed by its perm
					id, ok := log.randomLive(rng)
					if !ok {
						continue
					}
					ref := mindex.Entry{ID: id, Perm: log.records[log.alive[id]].Perm}
					n, err := eng.Delete([]mindex.Entry{ref})
					if err != nil {
						t.Fatal(err)
					}
					if n != 1 {
						t.Fatalf("step %d: deleted %d entries for a live ID", step, n)
					}
					log.delete(id)
				case p < 0.92: // move: same ID, fresh pivot metadata — a delete routed by the old perm, then an insert
					id, ok := log.randomLive(rng)
					if !ok || next >= len(w.entries) {
						continue
					}
					donor := w.entries[next]
					next++
					old := mindex.Entry{ID: id, Perm: log.records[log.alive[id]].Perm}
					if n, err := eng.Delete([]mindex.Entry{old}); err != nil || n != 1 {
						t.Fatalf("step %d: move deleted %d entries: %v", step, n, err)
					}
					log.delete(id)
					ne := mindex.Entry{ID: id, Perm: donor.Perm, Dists: donor.Dists}
					if err := eng.InsertBulk([]mindex.Entry{ne}); err != nil {
						t.Fatal(err)
					}
					log.insert(ne)
				default: // interleaved compaction
					if err := eng.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				if eng.Size() != len(log.alive) {
					t.Fatalf("step %d: size = %d, want %d live", step, eng.Size(), len(log.alive))
				}
			}
			if err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
			if eng.Dead() != 0 {
				t.Fatalf("dead = %d after final compact", eng.Dead())
			}

			fresh, err := New(testCfg(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			for _, e := range log.survivors() {
				if err := fresh.InsertBulk([]mindex.Entry{e}); err != nil {
					t.Fatal(err)
				}
			}

			if a, b := eng.TreeStats(), fresh.TreeStats(); a != b {
				t.Fatalf("tree stats diverge:\n mutated %+v\n rebuilt %+v", a, b)
			}
			for qi, q := range w.queries {
				qDists, aq := w.query(q)
				for _, r := range []float64{2, 6, 1e9} {
					got, err := eng.RangeByDists(qDists, r)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.RangeByDists(qDists, r)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: range(r=%g) diverges (%d vs %d candidates)", qi, r, len(got), len(want))
					}
				}
				got, err := eng.ApproxCandidates(aq, 400)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.ApproxCandidates(aq, 400)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: approx candidate lists diverge", qi)
				}
				gotFC, err := mindex.Flat(eng.Search(mindex.Query{Kind: mindex.KindFirstCell, ApproxQuery: aq}))
				if err != nil {
					t.Fatal(err)
				}
				wantFC, err := mindex.Flat(fresh.Search(mindex.Query{Kind: mindex.KindFirstCell, ApproxQuery: aq}))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotFC, wantFC) {
					t.Fatalf("query %d: first-cell candidates diverge", qi)
				}
			}
		})
	}
}

// TestMutationEquivalenceAutoCompact repeats a shorter interleaving with
// the auto-compaction policy enabled: background shard compactions must
// not change the final (explicitly compacted) state.
func TestMutationEquivalenceAutoCompact(t *testing.T) {
	w := newWorld(t, 22, 800, 4)
	cfg := testCfg(4)
	cfg.AutoCompactFraction = 0.2
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewPCG(22, 5))
	log := newMutationLog()
	next := 0
	for step := 0; step < 1200 && next < len(w.entries); step++ {
		if rng.Float64() < 0.6 {
			e := w.entries[next]
			next++
			if err := eng.InsertBulk([]mindex.Entry{e}); err != nil {
				t.Fatal(err)
			}
			log.insert(e)
			continue
		}
		id, ok := log.randomLive(rng)
		if !ok {
			continue
		}
		ref := mindex.Entry{ID: id, Perm: log.records[log.alive[id]].Perm}
		if _, err := eng.Delete([]mindex.Entry{ref}); err != nil {
			t.Fatal(err)
		}
		log.delete(id)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, e := range log.survivors() {
		if err := fresh.InsertBulk([]mindex.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := eng.TreeStats(), fresh.TreeStats(); a != b {
		t.Fatalf("tree stats diverge under auto-compaction:\n mutated %+v\n rebuilt %+v", a, b)
	}
	qDists, aq := w.query(w.queries[0])
	got, err := eng.RangeByDists(qDists, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RangeByDists(qDists, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("range candidates diverge under auto-compaction")
	}
	gotA, err := eng.ApproxCandidates(aq, 300)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := fresh.ApproxCandidates(aq, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatal("approx candidates diverge under auto-compaction")
	}
}

// TestMutationRaceHammer drives concurrent inserts, routed deletes,
// compactions and searches against a sharded engine (run under -race in
// CI). Each mutator owns a disjoint ID range, so the final live count is
// exactly checkable.
func TestMutationRaceHammer(t *testing.T) {
	w := newWorld(t, 23, 2000, 4)
	eng, err := New(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const mutators = 4
	perMutator := len(w.entries) / mutators
	var inserted, deleted atomic.Int64
	var mutWg, searchWg sync.WaitGroup
	stop := make(chan struct{})
	for m := range mutators {
		mutWg.Add(1)
		go func() {
			defer mutWg.Done()
			rng := rand.New(rand.NewPCG(23, uint64(m)))
			own := w.entries[m*perMutator : (m+1)*perMutator]
			live := make([]mindex.Entry, 0, len(own))
			for _, e := range own {
				if err := eng.InsertBulk([]mindex.Entry{e}); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
				live = append(live, e)
				// Occasionally delete one of this mutator's own entries.
				if len(live) > 10 && rng.Float64() < 0.3 {
					at := rng.IntN(len(live))
					victim := live[at]
					live = append(live[:at], live[at+1:]...)
					n, err := eng.Delete([]mindex.Entry{{ID: victim.ID, Perm: victim.Perm}})
					if err != nil {
						t.Error(err)
						return
					}
					deleted.Add(int64(n))
				}
				if rng.Float64() < 0.01 {
					if err := eng.Compact(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// Searchers hammer all query paths while the mutators run. Bounded
	// iterations, for the same single-CPU livelock reason as
	// TestConcurrentHammer's readers: an unbounded query loop can starve
	// the mutator goroutines forever, and stop then never closes.
	for r := range 3 {
		searchWg.Add(1)
		go func() {
			defer searchWg.Done()
			for i := 0; i < 300; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qDists, aq := w.query(w.queries[(r+i)%len(w.queries)])
				if _, err := eng.RangeByDists(qDists, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.ApproxCandidates(aq, 100); err != nil {
					t.Error(err)
					return
				}
				// Yield between iterations: on a single-core runner this
				// spin loop (plus the pool's channel ping-pong and the GC
				// assists its allocation rate triggers) can otherwise
				// starve the mutator goroutines off the run queue for
				// minutes, stalling the whole test.
				runtime.Gosched()
			}
		}()
	}
	// Wait for the mutators, then stop the searchers.
	mutWg.Wait()
	close(stop)
	searchWg.Wait()

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	want := int(inserted.Load() - deleted.Load())
	if eng.Size() != want {
		t.Fatalf("final size = %d, want %d (%d inserted, %d deleted)",
			eng.Size(), want, inserted.Load(), deleted.Load())
	}
	if eng.Dead() != 0 {
		t.Fatalf("dead = %d after final compact", eng.Dead())
	}
}

// TestInsertRejectsInvalidEntryWithoutDataLoss: an insert batch holding an
// invalid entry fails, and the failure lands nothing — a move's insert half
// that is rejected must neither take the rest of the collection with it
// nor leave part of itself behind. Each kind of invalid entry is sent alone
// and in the middle of a batch, on 1 and on 4 shards. The one exception is
// a live duplicate on 4 shards: only the shard holding the live record
// sees it, so the other shards' groups land; whatever did land is then
// live exactly once with the content it was sent with.
func TestInsertRejectsInvalidEntryWithoutDataLoss(t *testing.T) {
	const stored = 300
	w := newWorld(t, 29, stored+150, 1)
	cfg := testCfg(4)
	withPerm := func(e mindex.Entry, at int, p int32) mindex.Entry {
		e.Perm = slices.Clone(e.Perm)
		e.Perm[at] = p
		return e
	}
	for _, tc := range []struct {
		name string
		bad  func(fresh mindex.Entry) []mindex.Entry
	}{
		{"short permutation", func(fresh mindex.Entry) []mindex.Entry {
			fresh.Perm = fresh.Perm[:cfg.MaxLevel-1]
			return []mindex.Entry{fresh}
		}},
		{"first element out of range", func(fresh mindex.Entry) []mindex.Entry {
			return []mindex.Entry{withPerm(fresh, 0, testPivots)}
		}},
		{"later element out of range", func(fresh mindex.Entry) []mindex.Entry {
			return []mindex.Entry{withPerm(fresh, 2, -1)}
		}},
		{"wrong distance count", func(fresh mindex.Entry) []mindex.Entry {
			fresh.Dists = fresh.Dists[:3]
			return []mindex.Entry{fresh}
		}},
		{"live duplicate ID", func(mindex.Entry) []mindex.Entry {
			// Same permutation, so it routes to the shard holding the
			// live record; other distances tell the two apart.
			dup := w.entries[7]
			dup.Dists = slices.Clone(dup.Dists)
			dup.Dists[0]++
			return []mindex.Entry{dup}
		}},
		{"ID twice in the batch", func(fresh mindex.Entry) []mindex.Entry {
			twin := fresh
			twin.Dists = slices.Clone(fresh.Dists)
			twin.Dists[0]++
			return []mindex.Entry{fresh, twin}
		}},
	} {
		for _, shards := range []int{1, 4} {
			for _, shape := range []struct {
				name  string
				valid int // fresh valid entries around the invalid ones
			}{{"alone", 0}, {"mid-batch", 140}} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", tc.name, shards, shape.name), func(t *testing.T) {
					eng, err := New(testCfg(shards))
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					if err := eng.InsertBulk(w.entries[:stored]); err != nil {
						t.Fatal(err)
					}
					bad := tc.bad(w.entries[len(w.entries)-1]) // the last one is invalid
					batch := slices.Concat(w.entries[stored:stored+shape.valid/2], bad,
						w.entries[stored+shape.valid/2:stored+shape.valid])
					if err := eng.InsertBulk(batch); err == nil {
						t.Fatal("batch with an invalid entry accepted")
					}

					live, err := eng.AllEntries()
					if err != nil {
						t.Fatal(err)
					}
					if len(live) != eng.Size() {
						t.Fatalf("%d entries listed, Size reports %d", len(live), eng.Size())
					}
					sent := make(map[uint64][]mindex.Entry)
					for _, e := range slices.Concat(w.entries[:stored], batch) {
						sent[e.ID] = append(sent[e.ID], e)
					}
					got := make(map[uint64]mindex.Entry, len(live))
					for _, e := range live {
						if _, dup := got[e.ID]; dup {
							t.Fatalf("ID %d live twice", e.ID)
						}
						got[e.ID] = e
						if !slices.ContainsFunc(sent[e.ID], func(s mindex.Entry) bool { return sameEntry(s, e) }) {
							t.Fatalf("live entry %d matches nothing that was sent", e.ID)
						}
						if sameEntry(e, bad[len(bad)-1]) {
							t.Fatalf("the rejected entry %d is stored", e.ID)
						}
					}
					for _, e := range w.entries[:stored] {
						if g, ok := got[e.ID]; !ok || !sameEntry(g, e) {
							t.Fatalf("stored entry %d lost or changed by the failed insert", e.ID)
						}
					}
					if partial := shards > 1 && tc.name == "live duplicate ID"; !partial && len(live) != stored {
						t.Fatalf("%d entries live after the refused batch, want the %d stored before", len(live), stored)
					}
				})
			}
		}
	}
}

// sameEntry reports whether a and b carry the same ID and pivot metadata.
func sameEntry(a, b mindex.Entry) bool {
	return a.ID == b.ID && slices.Equal(a.Perm, b.Perm) && slices.Equal(a.Dists, b.Dists)
}
