package mindex

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// testEntries derives index entries (with distance vectors) for a
// deterministic clustered collection.
func testEntries(t *testing.T, seed uint64, n, nPivots int) ([]Entry, *pivot.Set, []metric.Object) {
	t.Helper()
	ds := dataset.Clustered(seed, n, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(seed, 99))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots)
	entries := make([]Entry, n)
	for i, o := range ds.Objects {
		dists := pv.Distances(o.Vec)
		entries[i] = Entry{ID: o.ID, Perm: pivot.Permutation(dists), Dists: dists}
	}
	return entries, pv, ds.Objects
}

func mustIndex(t *testing.T, cfg Config) *Index {
	t.Helper()
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestDeleteBasics(t *testing.T) {
	entries, pv, objs := testEntries(t, 7, 500, 8)
	ix := mustIndex(t, testConfig(8))
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}

	// Delete every third entry.
	var victims []uint64
	gone := make(map[uint64]bool)
	for i := 0; i < len(entries); i += 3 {
		victims = append(victims, entries[i].ID)
		gone[entries[i].ID] = true
	}
	n, err := ix.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(victims) {
		t.Fatalf("deleted %d, want %d", n, len(victims))
	}
	if ix.Size() != len(entries)-len(victims) {
		t.Fatalf("size = %d, want %d", ix.Size(), len(entries)-len(victims))
	}
	if ix.Dead() != len(victims) {
		t.Fatalf("dead = %d, want %d", ix.Dead(), len(victims))
	}

	// Idempotence: repeating the delete (plus unknown IDs) removes nothing.
	n, err = ix.Delete(append(victims, 1<<40, 1<<41))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-delete removed %d entries", n)
	}

	// No search path may surface a tombstoned entry.
	qDists := pv.Distances(objs[1].Vec)
	cands, err := ix.RangeByDists(qDists, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != ix.Size() {
		t.Fatalf("unbounded range returned %d candidates, want %d", len(cands), ix.Size())
	}
	for _, e := range cands {
		if gone[e.ID] {
			t.Fatalf("range surfaced deleted entry %d", e.ID)
		}
	}
	aq := ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qDists)), Dists: qDists}
	approx, err := ix.ApproxCandidates(aq, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != ix.Size() {
		t.Fatalf("approx returned %d candidates, want all %d live", len(approx), ix.Size())
	}
	for _, e := range approx {
		if gone[e.ID] {
			t.Fatalf("approx surfaced deleted entry %d", e.ID)
		}
	}
	first, err := Flat(ix.Search(Query{Kind: KindFirstCell, ApproxQuery: aq}))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("first cell empty despite live entries")
	}
	for _, e := range first {
		if gone[e.ID] {
			t.Fatalf("first cell surfaced deleted entry %d", e.ID)
		}
	}
	all, err := ix.AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != ix.Size() {
		t.Fatalf("AllEntries returned %d, want %d", len(all), ix.Size())
	}

	st := ix.TreeStats()
	if st.Entries != ix.Size() || st.Dead != len(victims) {
		t.Fatalf("stats = %+v, want %d live / %d dead", st, ix.Size(), len(victims))
	}
}

func TestInsertDuplicateAndReinsert(t *testing.T) {
	entries, _, _ := testEntries(t, 8, 100, 8)
	ix := mustIndex(t, testConfig(8))
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	// A live duplicate is rejected.
	if err := ix.InsertBulk([]Entry{entries[10]}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert: got %v, want ErrDuplicateID", err)
	}
	// Re-inserting after a delete purges the dead twin: exactly one
	// physical record carries the ID afterwards.
	if _, err := ix.Delete([]uint64{entries[10].ID}); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertBulk([]Entry{entries[10]}); err != nil {
		t.Fatalf("re-insert after delete: %v", err)
	}
	if ix.Size() != len(entries) || ix.Dead() != 0 {
		t.Fatalf("size/dead = %d/%d, want %d/0", ix.Size(), ix.Dead(), len(entries))
	}
	st := ix.TreeStats()
	if st.TotalBucket != len(entries) {
		t.Fatalf("buckets hold %d records, want %d (dead twin not purged)", st.TotalBucket, len(entries))
	}

	// On disk with the cache off, a reader holding a version from before a
	// purge reads its leaf from the pin: the purge wrote the survivors to a
	// fresh bucket and freed the one that version names.
	cfg := testConfig(8)
	cfg.Storage, cfg.DiskPath, cfg.DiskCacheBytes = StorageDisk, t.TempDir(), -1
	ix = mustIndex(t, cfg)
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete([]uint64{entries[10].ID}); err != nil {
		t.Fatal(err)
	}
	held := ix.state.Load().root
	for _, key := range ix.loc[entries[10].ID].prefix {
		held = held.child(key)
	}
	before, err := ix.leafView(held)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertBulk([]Entry{entries[10]}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.store.View(held.bucket); err == nil {
		t.Fatalf("bucket %d outlived the purge of its dead twin", held.bucket)
	}
	after, err := ix.leafView(held)
	if err != nil {
		t.Fatalf("a version from before the purge: %v", err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) || after.Len() != held.count {
		t.Fatalf("a version from before the purge reads %d entries, it counts %d", after.Len(), held.count)
	}
}

// move re-files the live entry carrying e.ID under e's pivot metadata the
// way a client moves an object: a delete, then an insert.
func move(ix *Index, e Entry) error {
	if _, err := ix.Delete([]uint64{e.ID}); err != nil {
		return err
	}
	return ix.InsertBulk([]Entry{e})
}

func TestUpdateMovesEntryAcrossCells(t *testing.T) {
	entries, pv, objs := testEntries(t, 9, 400, 8)
	ix := mustIndex(t, testConfig(8))
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	// Re-file entry 0 under entry 1's pivot metadata (the object "moved"):
	// searches must find the new record, never the old one.
	moved := entries[1]
	moved.ID = entries[0].ID
	if err := move(ix, moved); err != nil {
		t.Fatal(err)
	}
	if ix.Size() != len(entries) {
		t.Fatalf("size = %d, want %d", ix.Size(), len(entries))
	}
	qDists := pv.Distances(objs[1].Vec)
	cands, err := ix.RangeByDists(qDists, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range cands {
		if e.ID == moved.ID {
			seen++
			if !reflect.DeepEqual(e.Perm, moved.Perm) {
				t.Fatalf("search returned stale record for moved entry %d", e.ID)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("moved entry appeared %d times, want exactly once", seen)
	}
	// The insert purged the dead twin: one physical record per ID.
	if st := ix.TreeStats(); st.TotalBucket != len(entries) {
		t.Fatalf("buckets hold %d records, want %d (dead twin not purged)", st.TotalBucket, len(entries))
	}
}

// TestCompactCanonical is the single-index core of the mutation
// equivalence guarantee: after deletes and a Compact, the index must be
// byte-identical — tree shape, range candidate sets, ranked approximate
// candidate lists — to a fresh index holding only the survivors, inserted
// in their original arrival order.
func TestCompactCanonical(t *testing.T) {
	entries, pv, objs := testEntries(t, 10, 1500, 10)
	cfg := testConfig(10)
	ix := mustIndex(t, cfg)
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(10, 1))
	gone := make(map[uint64]bool)
	var victims []uint64
	for _, e := range entries {
		if rng.Float64() < 0.4 {
			victims = append(victims, e.ID)
			gone[e.ID] = true
		}
	}
	if _, err := ix.Delete(victims); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Dead() != 0 {
		t.Fatalf("dead = %d after compact", ix.Dead())
	}

	fresh := mustIndex(t, cfg)
	for _, e := range entries {
		if gone[e.ID] {
			continue
		}
		if err := fresh.InsertBulk([]Entry{e}); err != nil {
			t.Fatal(err)
		}
	}

	if a, b := ix.TreeStats(), fresh.TreeStats(); a != b {
		t.Fatalf("tree stats diverge after compact:\n compacted %+v\n fresh     %+v", a, b)
	}
	for qi := 0; qi < 10; qi++ {
		qDists := pv.Distances(objs[qi*17].Vec)
		for _, r := range []float64{2, 5, 1e9} {
			got, err := ix.RangeByDists(qDists, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RangeByDists(qDists, r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("range(q%d, r=%g) diverges after compact: %d vs %d candidates", qi, r, len(got), len(want))
			}
		}
		aq := ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qDists)), Dists: qDists}
		got, err := ix.ApproxCandidatesRanked(aq, 300)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.ApproxCandidatesRanked(aq, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ranked approx candidates diverge after compact for query %d", qi)
		}
	}

	// Compact with nothing to do is a no-op, and compacting to empty
	// leaves a working index.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	var all []uint64
	for _, e := range entries {
		if !gone[e.ID] {
			all = append(all, e.ID)
		}
	}
	if _, err := ix.Delete(all); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 0 || ix.Dead() != 0 {
		t.Fatalf("emptied index reports %d live / %d dead", ix.Size(), ix.Dead())
	}
	if err := ix.InsertBulk([]Entry{entries[0]}); err != nil {
		t.Fatalf("insert into compacted-empty index: %v", err)
	}
}

// TestDeleteCompactDisk exercises the purge and compaction bucket
// rewrites on the disk store.
func TestDeleteCompactDisk(t *testing.T) {
	entries, pv, objs := testEntries(t, 11, 600, 8)
	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = t.TempDir()
	ix := mustIndex(t, cfg)
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	var victims []uint64
	for i := 0; i < len(entries); i += 2 {
		victims = append(victims, entries[i].ID)
	}
	if _, err := ix.Delete(victims); err != nil {
		t.Fatal(err)
	}
	// Re-insert one victim (exercises the disk purge path).
	if err := ix.InsertBulk([]Entry{entries[0]}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	want := len(entries) - len(victims) + 1
	if ix.Size() != want || ix.Dead() != 0 {
		t.Fatalf("size/dead = %d/%d, want %d/0", ix.Size(), ix.Dead(), want)
	}
	qDists := pv.Distances(objs[3].Vec)
	cands, err := ix.RangeByDists(qDists, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != want {
		t.Fatalf("post-compact range returned %d candidates, want %d", len(cands), want)
	}
}

// TestConcurrentMovesSameID: racing moves of one ID, each a Delete then an
// InsertBulk, never leave the ID stored twice or lost. The index checks
// duplicates over all its entries, so a mover whose delete found nothing
// left to delete has its insert refused with ErrDuplicateID, and every
// mover's last step is an insert: one live record remains.
func TestConcurrentMovesSameID(t *testing.T) {
	entries, pv, objs := testEntries(t, 12, 200, 8)
	ix := mustIndex(t, testConfig(8))
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	id := entries[0].ID
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				donor := entries[(w*50+i)%len(entries)]
				err := move(ix, Entry{ID: id, Perm: donor.Perm, Dists: donor.Dists})
				if err != nil && !errors.Is(err, ErrDuplicateID) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ix.Size() != len(entries) {
		t.Fatalf("size = %d, want %d", ix.Size(), len(entries))
	}
	cands, err := ix.RangeByDists(pv.Distances(objs[0].Vec), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range cands {
		if e.ID == id {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("entry %d appears %d times after racing moves, want 1", id, seen)
	}
}
