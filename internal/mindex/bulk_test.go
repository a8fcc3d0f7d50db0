package mindex

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"simcloud/internal/pivot"
)

// fingerprint captures everything the planner must reproduce
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
func buildPair(t *testing.T, cfg Config) (bulk, ref *Index) {
	t.Helper()
	cfgA, cfgB := cfg, cfg
	if cfg.Storage == StorageDisk {
		cfgA.DiskPath = filepath.Join(t.TempDir(), "bulk")
		cfgB.DiskPath = filepath.Join(t.TempDir(), "ref")
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

// writer is one side of an equivalence run: the planner (InsertBulk,
// Compact) or the entry-at-a-time reference.
type writer struct {
	insert  func([]Entry) error
	compact func() error
}

func plannerWriter(ix *Index) writer { return writer{ix.InsertBulk, ix.Compact} }

func refWriter(ix *Index) writer {
	return writer{
		insert:  func(es []Entry) error { return refInsertBulk(ix, es) },
		compact: func() error { return refCompact(ix) },
	}
}

// inChunks inserts entries in batches of size n.
func (w writer) inChunks(entries []Entry, n int) error {
	for off := 0; off < len(entries); off += n {
		if err := w.insert(entries[off:min(off+n, len(entries))]); err != nil {
			return err
		}
	}
	return nil
}

// TestBulkBuildEquivalence pins the planner's byte-identity claim: every
// write it makes publishes a state byte-identical to the entry-at-a-time
// reference for the same entries in the same arrival order — one large
// batch, batches of 1 and of 15, a batch re-inserting tombstoned IDs, and a
// Compact, each on a tree that already holds entries and tombstones, on
// both storage backends with eager root split on and off.
func TestBulkBuildEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(w writer, pre, batch []Entry) error
	}{
		{"one batch", func(w writer, _, batch []Entry) error { return w.insert(batch) }},
		{"batches of 1", func(w writer, _, batch []Entry) error { return w.inChunks(batch[:200], 1) }},
		{"batches of 15", func(w writer, _, batch []Entry) error { return w.inChunks(batch, 15) }},
		{"tombstoned twins", func(w writer, pre, batch []Entry) error {
			// Re-insert some of the tombstoned entries (every 7th of pre)
			// in the middle of the batch.
			var twins []Entry
			for i := 0; i < len(pre); i += 21 {
				twins = append(twins, pre[i])
			}
			return w.insert(slices.Concat(batch[:300], twins, batch[300:]))
		}},
		{"compact", func(w writer, _, batch []Entry) error {
			if err := w.insert(batch); err != nil {
				return err
			}
			return w.compact()
		}},
	}
	for name, cfg := range bulkTestConfigs(8) {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				entries, _, _ := testEntries(t, 11, 2400, 8)
				pre, batch := entries[:800], entries[800:]

				ixBulk, ixRef := buildPair(t, cfg)
				// Identical pre-state on both sides, built by the
				// reference: some entries plus a few tombstones.
				var victims []uint64
				for i := 0; i < len(pre); i += 7 {
					victims = append(victims, pre[i].ID)
				}
				for _, ix := range []*Index{ixBulk, ixRef} {
					if err := refInsertBulk(ix, pre); err != nil {
						t.Fatal(err)
					}
					if _, err := ix.Delete(victims); err != nil {
						t.Fatal(err)
					}
				}

				if err := tc.run(plannerWriter(ixBulk), pre, batch); err != nil {
					t.Fatal(err)
				}
				if err := tc.run(refWriter(ixRef), pre, batch); err != nil {
					t.Fatal(err)
				}

				got, want := fingerprint(t, ixBulk), fingerprint(t, ixRef)
				if got != want {
					t.Errorf("planner state differs from the reference:\nplanner: %.300s\nref:     %.300s", got, want)
				}
				if cfg.Storage == StorageDisk {
					compareDiskState(t, ixBulk, ixRef)
				}
			})
		}
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

// TestBulkBuildDuplicateStops verifies a batch holding a duplicate ID —
// twice in the batch, or already live in the index — publishes nothing:
// the error names the entry, and the index is exactly what it was.
func TestBulkBuildDuplicateStops(t *testing.T) {
	entries, _, _ := testEntries(t, 5, 900, 8)
	ix := mustIndex(t, testConfig(8))
	if err := ix.InsertBulk(entries[:300]); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(t, ix)
	inBatch := slices.Clone(entries[300:])
	inBatch[400] = inBatch[100]
	live := slices.Clone(entries[300:])
	live[400] = entries[7]
	for name, batch := range map[string][]Entry{"in-batch": inBatch, "live": live} {
		err := ix.InsertBulk(batch)
		if !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("%s: error = %v, want ErrDuplicateID", name, err)
		}
		if want := "bulk insert entry 400:"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name the entry (%q)", name, err, want)
		}
		if fingerprint(t, ix) != before {
			t.Errorf("%s: a refused batch changed the index", name)
		}
	}
	if ix.Size() != 300 {
		t.Errorf("size after refused batches = %d, want 300", ix.Size())
	}
}

// TestBulkBuildTombstonedTwinFallsBack verifies a batch re-inserting a
// tombstoned ID: the planner purges the dead twin first and then builds
// the batch, and the result equals the reference's.
func TestBulkBuildTombstonedTwinFallsBack(t *testing.T) {
	entries, _, _ := testEntries(t, 9, 400, 8)
	cfg := testConfig(8)
	ixBulk, ixRef := buildPair(t, cfg)
	for _, ix := range []*Index{ixBulk, ixRef} {
		if err := refInsertBulk(ix, entries[:200]); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Delete([]uint64{entries[50].ID}); err != nil {
			t.Fatal(err)
		}
	}
	batch := append([]Entry{entries[50]}, entries[200:]...)
	if err := ixBulk.InsertBulk(batch); err != nil {
		t.Fatal(err)
	}
	if err := refInsertBulk(ixRef, batch); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, ixBulk), fingerprint(t, ixRef); got != want {
		t.Error("tombstoned-twin batch differs from the reference")
	}
	if live, dead := ixBulk.Counts(); live != 400 || dead != 0 {
		t.Errorf("counts = %d live, %d dead; want 400, 0", live, dead)
	}
}

// failStore wraps a BucketStore and fails the nth create/append operation,
// and with failCuts every cut.
type failStore struct {
	BucketStore
	ops        int
	failAt     int
	failCuts   bool
	cutsFailed int
}

func (s *failStore) Cut(id BucketID, n int) error {
	if s.failCuts {
		s.cutsFailed++
		return errInjected
	}
	return s.BucketStore.Cut(id, n)
}

// published is what readers see of ix: the tree and each leaf's counted
// entries.
func published(t *testing.T, ix *Index) string {
	t.Helper()
	var out bytes.Buffer
	if err := writeNode(&out, ix.state.Load().root); err != nil {
		t.Fatal(err)
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			b, err := ix.leafView(n)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(b.Bytes())
			return
		}
		for i := range n.kids {
			walk(n.kids[i].n)
		}
	}
	walk(ix.state.Load().root)
	return out.String()
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
// index of the apply phase — of an InsertBulk on a populated index, and of
// a Compact — and verifies the abort restores the prior state exactly
// (modulo burned bucket IDs), and that the index still takes the write
// afterwards.
func TestBulkBuildAbortRollsBack(t *testing.T) {
	entries, _, _ := testEntries(t, 13, 900, 8)
	pre, batch := entries[:300], entries[300:]
	var victims []uint64
	for i := 0; i < len(entries); i += 3 {
		victims = append(victims, entries[i].ID)
	}
	insert := func(ix *Index) error { return ix.InsertBulk(pre) }
	for _, w := range []struct {
		name     string
		setup    func(ix *Index) error
		write    func(ix *Index) error
		failCuts bool // the rollback's cuts fail too
	}{
		{"insert", insert, func(ix *Index) error { return ix.InsertBulk(batch) }, false},
		{"insert-cut-fails", insert, func(ix *Index) error { return ix.InsertBulk(batch) }, true},
		{"compact", func(ix *Index) error {
			if err := ix.InsertBulk(entries); err != nil {
				return err
			}
			_, err := ix.Delete(victims)
			return err
		}, func(ix *Index) error { return ix.Compact() }, false},
	} {
		t.Run(w.name, func(t *testing.T) {
			cutsFailed := false
			for failAt := 1; ; failAt++ {
				ix := mustIndex(t, testConfig(8))
				if err := w.setup(ix); err != nil {
					t.Fatal(err)
				}
				before := fingerprint(t, ix)
				seen := published(t, ix)

				fs := &failStore{BucketStore: ix.store, failAt: failAt, failCuts: w.failCuts}
				ix.store = fs
				err := w.write(ix)
				ix.store = fs.BucketStore
				if err == nil {
					// The apply phase issued fewer than failAt operations:
					// the whole failure surface is covered. Sanity-check
					// success.
					if got := fingerprint(t, ix); got == before {
						t.Fatal("successful write did not change the index")
					}
					if failAt == 1 {
						t.Fatal("failure injection never triggered")
					}
					if w.failCuts && !cutsFailed {
						t.Fatal("no rollback had a bucket to cut")
					}
					return
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("failAt=%d: unexpected error %v", failAt, err)
				}
				if fs.cutsFailed > 0 {
					// The suffix stays in the store, behind what the
					// published tree counts: readers see the prior state,
					// and no batch may append behind the suffix.
					cutsFailed = true
					if got := published(t, ix); got != seen {
						t.Fatalf("failAt=%d: a failed cut changed what readers see", failAt)
					}
					if err := w.write(ix); err == nil || !strings.Contains(err.Error(), "no more entries") {
						t.Fatalf("failAt=%d: write after a failed cut: %v, want a refusal", failAt, err)
					}
					ix.Close()
					continue
				}
				if got := fingerprint(t, ix); stripCursor(got) != stripCursor(before) {
					t.Fatalf("failAt=%d: abort did not restore the prior state", failAt)
				}
				// The rolled-back index must take the write cleanly.
				if err := w.write(ix); err != nil {
					t.Fatalf("failAt=%d: retry after abort: %v", failAt, err)
				}
				ix.Close()
			}
		})
	}
}

// TestBulkBuildSearchEquivalence double-checks the equivalence through the
// public read path: range and approximate searches agree between an index
// the planner built and one the reference built.
func TestBulkBuildSearchEquivalence(t *testing.T) {
	entries, pv, objs := testEntries(t, 21, 1500, 8)
	cfg := testConfig(8)
	ixBulk, ixRef := buildPair(t, cfg)
	if err := ixBulk.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	if err := refInsertBulk(ixRef, entries); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 25; qi++ {
		q := objs[qi*37%len(objs)]
		dists := pv.Distances(q.Vec)
		ra, err := ixBulk.RangeByDists(dists, 3)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ixRef.RangeByDists(dists, 3)
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
		ab, err := ixRef.ApproxCandidates(aq, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(aa, ab) {
			t.Fatalf("query %d: approximate results differ", qi)
		}
	}
}
