package mindex

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"simcloud/internal/pivot"
)

// fingerprint captures everything the bulk builder must reproduce
// bit-for-bit: the snapshot codec output of the tree (shape, counts, dead,
// bounds, leaf bucket IDs), the store's allocation cursor, every bucket's
// content in order, and the writer-private loc/seq bookkeeping.
func fingerprint(t *testing.T, ix *Index) string {
	t.Helper()
	st := ix.state.Load()
	var tree bytes.Buffer
	if err := writeNode(&tree, st.root); err != nil {
		t.Fatal(err)
	}
	var next BucketID
	switch s := ix.store.(type) {
	case *MemStore:
		next = s.next
	case *DiskStore:
		next = s.NextID()
	}
	var buckets bytes.Buffer
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			v, err := ix.store.View(n.bucket)
			if err != nil {
				t.Fatalf("view bucket %d: %v", n.bucket, err)
			}
			fmt.Fprintf(&buckets, "bucket %d:", n.bucket)
			buckets.Write(v.Bytes())
			return
		}
		for i := range n.kids {
			walk(n.kids[i].n)
		}
	}
	walk(st.root)
	locs := make([]string, 0, len(ix.loc))
	for id, l := range ix.loc {
		locs = append(locs, fmt.Sprintf("%d@%v#%d", id, l.prefix, l.seq))
	}
	sort.Strings(locs)
	return fmt.Sprintf("size=%d dead=%d next=%d nextSeq=%d\ntree=%x\nbuckets=%x\nloc=%v",
		st.size, st.dead, next, ix.nextSeq, tree.Bytes(), buckets.Bytes(), locs)
}

// buildPair returns two empty indexes with identical configs (and, for
// disk, separate directories).
func buildPair(t *testing.T, cfg Config) (bulk, incr *Index) {
	t.Helper()
	cfgA, cfgB := cfg, cfg
	if cfg.Storage == StorageDisk {
		cfgA.DiskPath = filepath.Join(t.TempDir(), "bulk")
		cfgB.DiskPath = filepath.Join(t.TempDir(), "incr")
	}
	return mustIndex(t, cfgA), mustIndex(t, cfgB)
}

func bulkTestConfigs(nPivots int) map[string]Config {
	base := Config{
		NumPivots:      nPivots,
		MaxLevel:       4,
		BucketCapacity: 20,
		Ranking:        RankFootrule,
	}
	out := make(map[string]Config)
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		for _, eager := range []bool{false, true} {
			c := base
			c.Storage = storage
			c.EagerRootSplit = eager
			name := fmt.Sprintf("%v", storage)
			if eager {
				name += "-eagerroot"
			}
			out[name] = c
		}
	}
	return out
}

// TestBulkBuildEquivalence pins the tentpole claim: the builder path of
// InsertBulk publishes a state byte-identical to the incremental path for
// the same entries in the same arrival order — fresh builds and builds on
// top of an existing tree with tombstones, on both storage backends.
func TestBulkBuildEquivalence(t *testing.T) {
	for name, cfg := range bulkTestConfigs(8) {
		t.Run(name, func(t *testing.T) {
			entries, _, _ := testEntries(t, 11, 2400, 8)
			pre, batch := entries[:800], entries[800:]

			ixBulk, ixIncr := buildPair(t, cfg)
			// Identical pre-state on both sides, built incrementally:
			// some entries plus a few tombstones that stay outside the
			// batch (tombstoned batch IDs take the incremental fallback).
			var victims []uint64
			for i := 0; i < len(pre); i += 7 {
				victims = append(victims, pre[i].ID)
			}
			for _, ix := range []*Index{ixBulk, ixIncr} {
				ix.wmu.Lock()
				if err := ix.insertBulkIncremental(pre); err != nil {
					ix.wmu.Unlock()
					t.Fatal(err)
				}
				ix.wmu.Unlock()
				if _, err := ix.Delete(victims); err != nil {
					t.Fatal(err)
				}
			}

			if len(batch) < bulkMinBatch {
				t.Fatal("batch too small to exercise the builder")
			}
			if !ixBulk.bulkEligible(batch) {
				t.Fatal("batch unexpectedly ineligible for the builder")
			}
			if err := ixBulk.InsertBulk(batch); err != nil {
				t.Fatal(err)
			}
			ixIncr.wmu.Lock()
			err := ixIncr.insertBulkIncremental(batch)
			ixIncr.wmu.Unlock()
			if err != nil {
				t.Fatal(err)
			}

			got, want := fingerprint(t, ixBulk), fingerprint(t, ixIncr)
			if got != want {
				t.Errorf("bulk-built state differs from incremental:\nbulk: %.300s\nincr: %.300s", got, want)
			}
			if cfg.Storage == StorageDisk {
				compareDiskState(t, ixBulk, ixIncr)
			}
		})
	}
}

// compareDiskState compares the snapshot files byte for byte, plus the
// bucket directories file by file.
func compareDiskState(t *testing.T, a, b *Index) {
	t.Helper()
	snapA := filepath.Join(t.TempDir(), "a.snap")
	snapB := filepath.Join(t.TempDir(), "b.snap")
	if err := a.SaveSnapshot(snapA); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(snapB); err != nil {
		t.Fatal(err)
	}
	rawA, err := os.ReadFile(snapA)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Error("snapshot files differ byte-for-byte")
	}
	dirA, dirB := a.cfg.DiskPath, b.cfg.DiskPath
	filesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	filesB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(filesA) != len(filesB) {
		t.Fatalf("bucket directories hold %d vs %d files", len(filesA), len(filesB))
	}
	for i := range filesA {
		if filesA[i].Name() != filesB[i].Name() {
			t.Fatalf("bucket file %d: %s vs %s", i, filesA[i].Name(), filesB[i].Name())
		}
		ca, err := os.ReadFile(filepath.Join(dirA, filesA[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := os.ReadFile(filepath.Join(dirB, filesB[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ca, cb) {
			t.Errorf("bucket file %s differs", filesA[i].Name())
		}
	}
}

// TestBulkBuildDuplicateStops verifies the builder matches the incremental
// path when a batch entry duplicates a live ID: the prefix before the
// duplicate publishes, the error names the entry, and the states agree.
func TestBulkBuildDuplicateStops(t *testing.T) {
	entries, _, _ := testEntries(t, 5, 600, 8)
	cfg := testConfig(8)
	ixBulk, ixIncr := buildPair(t, cfg)

	batch := make([]Entry, len(entries))
	copy(batch, entries)
	batch[400] = batch[100] // live duplicate mid-batch

	errBulk := ixBulk.InsertBulk(batch)
	ixIncr.wmu.Lock()
	errIncr := ixIncr.insertBulkIncremental(batch)
	ixIncr.wmu.Unlock()

	if !errors.Is(errBulk, ErrDuplicateID) || !errors.Is(errIncr, ErrDuplicateID) {
		t.Fatalf("errors = %v / %v, want ErrDuplicateID", errBulk, errIncr)
	}
	if errBulk.Error() != errIncr.Error() {
		t.Errorf("error text differs: %q vs %q", errBulk, errIncr)
	}
	if got, want := fingerprint(t, ixBulk), fingerprint(t, ixIncr); got != want {
		t.Error("partial publish after duplicate differs between paths")
	}
	if ixBulk.Size() != 400 {
		t.Errorf("size after duplicate stop = %d, want 400", ixBulk.Size())
	}
}

// TestBulkBuildTombstonedTwinFallsBack verifies a batch re-inserting a
// tombstoned ID takes the incremental purge path and still matches the
// reference result.
func TestBulkBuildTombstonedTwinFallsBack(t *testing.T) {
	entries, _, _ := testEntries(t, 9, 400, 8)
	cfg := testConfig(8)
	ixBulk, ixIncr := buildPair(t, cfg)
	for _, ix := range []*Index{ixBulk, ixIncr} {
		ix.wmu.Lock()
		if err := ix.insertBulkIncremental(entries[:200]); err != nil {
			ix.wmu.Unlock()
			t.Fatal(err)
		}
		ix.wmu.Unlock()
		if _, err := ix.Delete([]uint64{entries[50].ID}); err != nil {
			t.Fatal(err)
		}
	}
	batch := append([]Entry{entries[50]}, entries[200:]...)
	if ixBulk.bulkEligible(batch) {
		t.Fatal("tombstoned twin should disqualify the builder path")
	}
	if err := ixBulk.InsertBulk(batch); err != nil {
		t.Fatal(err)
	}
	ixIncr.wmu.Lock()
	err := ixIncr.insertBulkIncremental(batch)
	ixIncr.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, ixBulk), fingerprint(t, ixIncr); got != want {
		t.Error("tombstoned-twin batch differs between paths")
	}
}

// failStore wraps a BucketStore and fails the nth create/append operation.
// It deliberately implements neither ghostAllocator nor batchAppender, so
// it also exercises the builder's interface fallbacks.
type failStore struct {
	BucketStore
	ops    int
	failAt int
}

var errInjected = errors.New("injected store failure")

func (s *failStore) Create() (BucketID, error) {
	s.ops++
	if s.ops == s.failAt {
		return 0, errInjected
	}
	return s.BucketStore.Create()
}

func (s *failStore) Append(id BucketID, recs Bucket) error {
	s.ops++
	if s.ops == s.failAt {
		return errInjected
	}
	return s.BucketStore.Append(id, recs)
}

// stripCursor drops the store allocation cursor from a fingerprint. An
// aborted build leaves IDs it allocated burned (IDs are never reused, so
// the gap is harmless and unobservable through any read); everything else
// must be restored exactly.
func stripCursor(fp string) string {
	return cursorRE.ReplaceAllString(fp, "next=?")
}

var cursorRE = regexp.MustCompile(`next=\d+`)

// TestBulkBuildAbortRollsBack injects store failures at every operation
// index of the apply phase and verifies the abort restores the pre-batch
// state exactly (modulo burned bucket IDs) — and that the index still
// accepts the batch afterwards.
func TestBulkBuildAbortRollsBack(t *testing.T) {
	entries, _, _ := testEntries(t, 13, 900, 8)
	pre, batch := entries[:300], entries[300:]

	for failAt := 1; ; failAt++ {
		cfg := testConfig(8)
		ix := mustIndex(t, cfg)
		ix.wmu.Lock()
		if err := ix.insertBulkIncremental(pre); err != nil {
			ix.wmu.Unlock()
			t.Fatal(err)
		}
		ix.wmu.Unlock()
		before := fingerprint(t, ix)

		fs := &failStore{BucketStore: ix.store, failAt: failAt}
		ix.store = fs
		err := ix.InsertBulk(batch)
		ix.store = fs.BucketStore
		if err == nil {
			// The apply phase issued fewer than failAt operations: the
			// whole failure surface is covered. Sanity-check success.
			if got := fingerprint(t, ix); got == before {
				t.Fatal("successful bulk insert did not change the index")
			}
			if failAt == 1 {
				t.Fatal("failure injection never triggered")
			}
			return
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("failAt=%d: unexpected error %v", failAt, err)
		}
		if got := fingerprint(t, ix); stripCursor(got) != stripCursor(before) {
			t.Fatalf("failAt=%d: abort did not restore the pre-batch state", failAt)
		}
		// The rolled-back index must accept the batch cleanly.
		if err := ix.InsertBulk(batch); err != nil {
			t.Fatalf("failAt=%d: retry after abort: %v", failAt, err)
		}
		ix.Close()
	}
}

// TestBulkBuildSearchEquivalence double-checks the equivalence through the
// public read path: range and approximate searches agree between a
// bulk-built and an incrementally built index.
func TestBulkBuildSearchEquivalence(t *testing.T) {
	entries, pv, objs := testEntries(t, 21, 1500, 8)
	cfg := testConfig(8)
	ixBulk, ixIncr := buildPair(t, cfg)
	if err := ixBulk.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	ixIncr.wmu.Lock()
	err := ixIncr.insertBulkIncremental(entries)
	ixIncr.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 25; qi++ {
		q := objs[qi*37%len(objs)]
		dists := pv.Distances(q.Vec)
		ra, err := ixBulk.RangeByDists(dists, 3)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ixIncr.RangeByDists(dists, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d: range results differ", qi)
		}
		aq := ApproxQuery{Ranks: pivot.Permutation(dists), Dists: dists}
		aa, err := ixBulk.ApproxCandidates(aq, 64)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := ixIncr.ApproxCandidates(aq, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(aa, ab) {
			t.Fatalf("query %d: approximate results differ", qi)
		}
	}
}
