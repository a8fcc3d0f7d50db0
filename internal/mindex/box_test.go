package mindex

// Tests of the pivot-space cell boxes: the bound they give never exceeds the
// per-entry pivot filter's, so pruning with them saves bucket reads and
// changes no candidate list; legacy snapshots load with the one interval
// they recorded.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"simcloud/internal/pivot"
)

// hyperplaneBound is a test-local copy of cellLowerBound's hyperplane term:
// the one bound of the traversal that is not implied by the per-entry
// filter, so a reference traversal must apply it to produce the same lists.
func hyperplaneBound(parentPrefix []int32, key int32, q []float64) float64 {
	minOther := math.Inf(1)
	for m, d := range q {
		if !onPath(parentPrefix, key, int32(m)) && d < minOther {
			minOther = d
		}
	}
	if math.IsInf(minOther, 1) {
		return 0
	}
	return max((q[key]-minOther)/2, 0)
}

// referenceRange is rangeByDists without the cell boxes: the same traversal
// order, the hyperplane bound per cell, then tombstones, the allow-list and
// the pivot filter per entry. boxOnly counts the cells the real traversal
// skips and this one reads.
func referenceRange(t *testing.T, ix *Index, q []float64, r float64, filter PivotFilter) (out []Entry, boxOnly int) {
	t.Helper()
	st := ix.state.Load()
	var visit func(n *node)
	visit = func(n *node) {
		if n.isLeaf() {
			b, err := ix.leafView(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entriesOf(b) {
				if _, gone := st.tombstones[e.ID]; gone {
					continue
				}
				if filter != nil && len(n.prefix) == 0 && !(len(e.Perm) > 0 && filter.Allows(e.Perm[0])) {
					continue
				}
				if e.Dists != nil && pivot.LowerBound(q, e.Dists) > r {
					continue
				}
				out = append(out, e)
			}
			return
		}
		for _, k := range n.kids {
			if filter != nil && len(n.prefix) == 0 && !filter.Allows(k.key) {
				continue
			}
			if hyperplaneBound(n.prefix, k.key, q) > r {
				continue
			}
			if ix.pruneCell(k.n, k.key, n, q, r) {
				boxOnly++
			}
			visit(k.n)
		}
	}
	visit(st.root)
	return out, boxOnly
}

// checkBoxes walks every cell of ix and checks property (a): a cell's box
// bound is at most pivot.LowerBound of every entry stored below it
// (tombstoned ones included), for every query.
func checkBoxes(t *testing.T, phase string, ix *Index, queries [][]float64) {
	t.Helper()
	var walk func(n *node) []Entry
	walk = func(n *node) []Entry {
		var below []Entry
		if n.isLeaf() {
			v, err := ix.leafView(n)
			if err != nil {
				t.Fatal(err)
			}
			below = entriesOf(v)
		} else {
			for _, k := range n.kids {
				below = append(below, walk(k.n)...)
			}
		}
		if len(below) != n.count {
			t.Fatalf("%s: cell %v counts %d entries, holds %d", phase, n.prefix, n.count, len(below))
		}
		if n.box == nil {
			for _, e := range below {
				if e.Dists == nil || n.level() == 0 {
					return below
				}
			}
			t.Fatalf("%s: cell %v has no box although every entry below carries distances", phase, n.prefix)
		}
		for _, e := range below {
			if e.Dists == nil {
				t.Fatalf("%s: cell %v keeps a box over entry %d, which has no distances", phase, n.prefix, e.ID)
			}
			for qi, q := range queries {
				if bb, lb := n.box.lowerBound(q), pivot.LowerBound(q, e.Dists); bb > lb {
					t.Fatalf("%s: cell %v box bound %g exceeds entry %d's bound %g (query %d)",
						phase, n.prefix, bb, e.ID, lb, qi)
				}
			}
		}
		return below
	}
	walk(ix.state.Load().root)
}

// checkRange checks property (b) on ix and returns how many cells the boxes
// alone pruned.
func checkRange(t *testing.T, phase string, ix *Index, queries [][]float64, filter PivotFilter) int {
	t.Helper()
	pruned := 0
	for qi, q := range queries {
		for _, r := range []float64{0, 0.5, 2, 6} {
			want, boxOnly := referenceRange(t, ix, q, r, filter)
			pruned += boxOnly
			got, err := Flat(ix.Search(Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: q}, Radius: r, Allow: filter}))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s q%d r=%g: %d candidates, reference traversal %d", phase, qi, r, len(got), len(want))
			}
			for i := range want {
				// Encoded forms, so that a NaN distance equals itself.
				if !bytes.Equal(EncodeEntry(got[i]), EncodeEntry(want[i])) {
					t.Fatalf("%s q%d r=%g: candidate %d is entry %d, reference traversal has %d",
						phase, qi, r, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
	return pruned
}

// TestBoxBoundsAndRangeEquivalence drives memory and disk indexes, alone and
// as four eager-root shards, through insert, bulk insert, delete, update,
// compact and finally entries with a NaN distance and with no distances at
// all, checking after every step that (a) no box bound exceeds an entry's
// own bound and (b) the range traversal returns, list for list, what a
// traversal without boxes returns.
func TestBoxBoundsAndRangeEquivalence(t *testing.T) {
	const nPivots = 10
	entries, _, queries := perfEntries(1500, nPivots)
	rng := rand.New(rand.NewPCG(16, 16))
	for range 8 {
		q := make([]float64, nPivots)
		for p := range q {
			q[p] = 40 * rng.Float64()
		}
		queries = append(queries, q)
	}
	half, err := NewPivotFilter(nPivots, []int32{0, 2, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", storage, shards), func(t *testing.T) {
				ixs := make([]*Index, shards)
				for i := range ixs {
					cfg := perfConfig(nPivots)
					cfg.Storage = storage
					cfg.EagerRootSplit = shards > 1
					if storage == StorageDisk {
						cfg.DiskPath = t.TempDir()
						cfg.DiskCacheBytes = 16 * 1024
					}
					ixs[i] = mustIndex(t, cfg)
				}
				route := func(es []Entry) [][]Entry {
					per := make([][]Entry, shards)
					for _, e := range es {
						s := int(e.Perm[0]) % shards
						per[s] = append(per[s], e)
					}
					return per
				}
				pruned := 0
				step := func(phase string, f func(ix *Index, mine []Entry) error, es []Entry) {
					t.Helper()
					per := route(es)
					for i, ix := range ixs {
						if err := f(ix, per[i]); err != nil {
							t.Fatalf("%s: %v", phase, err)
						}
						checkBoxes(t, phase, ix, queries)
						pruned += checkRange(t, phase, ix, queries, nil)
						checkRange(t, phase+" filtered", ix, queries[:4], half)
					}
				}
				step("insert", func(ix *Index, mine []Entry) error {
					for _, e := range mine {
						if err := ix.Insert(e); err != nil {
							return err
						}
					}
					return nil
				}, entries[:300])
				step("bulk", func(ix *Index, mine []Entry) error { return ix.InsertBulk(mine) }, entries[300:1400])
				var victims []Entry
				for i := 0; i < 1400; i += 5 {
					victims = append(victims, entries[i])
				}
				step("delete", func(ix *Index, mine []Entry) error {
					ids := make([]uint64, len(mine))
					for i, e := range mine {
						ids[i] = e.ID
					}
					_, err := ix.Delete(ids)
					return err
				}, victims)
				// An update keeps the entry in its shard (same first pivot) and
				// moves it within: it takes the distances of a neighbour.
				var moved []Entry
				for i := 1; i < 1400 && len(moved) < 60; i += 5 {
					for j := i + 1; j < 1400; j++ {
						if j%5 != 0 && entries[j].Perm[0] == entries[i].Perm[0] {
							e := entries[i]
							e.Perm, e.Dists = entries[j].Perm, entries[j].Dists
							moved = append(moved, e)
							break
						}
					}
				}
				step("update", func(ix *Index, mine []Entry) error {
					for _, e := range mine {
						if err := ix.Update(e); err != nil {
							return err
						}
					}
					return nil
				}, moved)
				step("compact", func(ix *Index, _ []Entry) error { return ix.Compact() }, nil)
				if pruned == 0 {
					t.Fatal("the boxes pruned no cell the hyperplane bound had kept: the equivalence was never exercised")
				}
				// A NaN distance must unbound its dimension, an entry without
				// distances must drop the boxes above it — for good.
				odd := append([]Entry(nil), entries[1400:1440]...)
				for i := range odd {
					if i%2 == 0 {
						odd[i].Dists = nil
					} else {
						odd[i].Dists = append([]float64(nil), odd[i].Dists...)
						odd[i].Dists[i%nPivots] = math.NaN()
					}
				}
				step("odd entries", func(ix *Index, mine []Entry) error { return ix.InsertBulk(mine) }, odd)
				step("after odd entries", func(ix *Index, mine []Entry) error { return ix.InsertBulk(mine) }, entries[1440:])
			})
		}
	}
}

// writeLegacySnapshot encodes ix's published state as snapshot codec version
// 1 or 2 — a copy of the writer as it stood before version 3, when a node
// recorded the interval of distances to its defining pivot (rmin, rmax) and
// a validity flag where it now records the whole box.
func writeLegacySnapshot(t testing.TB, ix *Index, version byte) []byte {
	t.Helper()
	st := ix.state.Load()
	buf := append([]byte(nil), snapMagic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.cfg.NumPivots))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.cfg.MaxLevel))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.cfg.BucketCapacity))
	buf = append(buf, byte(ix.cfg.Ranking))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.size))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ix.store.(*DiskStore).NextID()))
	if version >= 2 {
		dirty := byte(0)
		if ix.dirty {
			dirty = 1
		}
		buf = append(buf, dirty)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(st.tombstones)))
		dead := make([]uint64, 0, len(st.tombstones))
		for id := range st.tombstones {
			dead = append(dead, id)
		}
		sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
		for _, id := range dead {
			buf = binary.LittleEndian.AppendUint64(buf, id)
		}
	} else if len(st.tombstones) > 0 {
		t.Fatal("a version-1 snapshot cannot carry tombstones")
	}
	var writeNode func(n *node)
	writeNode = func(n *node) {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.prefix)))
		for _, p := range n.prefix {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		}
		kind := byte(0)
		if n.isLeaf() {
			kind = 1
		}
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.count))
		if version >= 2 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.dead))
		}
		var rmin, rmax float64
		valid := byte(0)
		if key := n.lastPivot(); key < 0 {
			valid = 1 // the root's flag was never cleared
		} else if n.box != nil {
			valid = 1
			if n.count > 0 {
				rmin, rmax = n.box.lo()[key], n.box.hi()[key]
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rmin))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rmax))
		buf = append(buf, valid)
		if n.isLeaf() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n.bucket))
			return
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.kids)))
		for i := range n.kids {
			writeNode(n.kids[i].n)
		}
	}
	writeNode(st.root)
	return buf
}

// TestLegacySnapshotLoads: a version-2 snapshot loads with each cell's one
// recorded interval, answers exactly as the index that wrote it, re-saves as
// version 3, which round-trips; a Compact then gives every cell its full box.
func TestLegacySnapshotLoads(t *testing.T) {
	const nPivots = 10
	entries, approx, queries := perfEntries(1200, nPivots)
	cfg := perfConfig(nPivots)
	cfg.Storage = StorageDisk
	cfg.DiskPath = t.TempDir()
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	var dead []uint64
	for i := 0; i < len(entries); i += 9 {
		dead = append(dead, entries[i].ID)
	}
	if _, err := orig.Delete(dead); err != nil {
		t.Fatal(err)
	}
	type answers struct {
		ranges [][]Entry
		ranked [][]RankedCandidate
	}
	ask := func(ix *Index) (a answers) {
		t.Helper()
		for qi := range queries {
			r, err := ix.RangeByDists(queries[qi], 3)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := ix.ApproxCandidatesRanked(approx[qi], 200)
			if err != nil {
				t.Fatal(err)
			}
			a.ranges, a.ranked = append(a.ranges, r), append(a.ranked, rc)
		}
		return a
	}
	same := func(phase string, got, want answers) {
		t.Helper()
		for qi := range want.ranges {
			if len(got.ranges[qi]) != len(want.ranges[qi]) || len(got.ranked[qi]) != len(want.ranked[qi]) {
				t.Fatalf("%s q%d: %d range / %d ranked candidates, want %d / %d", phase, qi,
					len(got.ranges[qi]), len(got.ranked[qi]), len(want.ranges[qi]), len(want.ranked[qi]))
			}
			for i := range want.ranges[qi] {
				if !entriesEqual(got.ranges[qi][i], want.ranges[qi][i]) {
					t.Fatalf("%s q%d: range candidate %d differs", phase, qi, i)
				}
			}
			for i, w := range want.ranked[qi] {
				g := got.ranked[qi][i]
				if !sameRecord(g.Entry, w.Entry) || g.Promise != w.Promise || !slices.Equal(g.Prefix, w.Prefix) {
					t.Fatalf("%s q%d: ranked candidate %d differs", phase, qi, i)
				}
			}
		}
	}
	want := ask(orig)
	// SaveSnapshot flushes the buckets; the version-2 file describes the
	// same state.
	snapDir := t.TempDir()
	v3, v2 := filepath.Join(snapDir, "v3.snap"), filepath.Join(snapDir, "v2.snap")
	if err := orig.SaveSnapshot(v3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2, writeLegacySnapshot(t, orig, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := orig.Close(); err != nil {
		t.Fatal(err)
	}

	old, err := LoadSnapshot(cfg, v2)
	if err != nil {
		t.Fatal(err)
	}
	bounded := func(ix *Index) (cells, dims int) {
		var walk func(n *node)
		walk = func(n *node) {
			if n.level() > 0 && n.count > 0 {
				if n.box == nil {
					t.Fatalf("cell %v loaded without a box", n.prefix)
				}
				cells++
				for p := range n.box.lo() {
					if !math.IsInf(n.box.lo()[p], 0) && !math.IsInf(n.box.hi()[p], 0) {
						dims++
					}
				}
			}
			for _, k := range n.kids {
				walk(k.n)
			}
		}
		walk(ix.state.Load().root)
		return cells, dims
	}
	if cells, dims := bounded(old); dims != cells {
		t.Fatalf("version-2 snapshot: %d bounded dimensions over %d cells, want one each", dims, cells)
	}
	checkBoxes(t, "v2 loaded", old, queries)
	same("v2 loaded", ask(old), want)

	resaved := filepath.Join(snapDir, "resaved.snap")
	if err := old.SaveSnapshot(resaved); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(snapMagic)] != snapVersion {
		t.Fatalf("re-saved snapshot is version %d, want %d", raw[len(snapMagic)], snapVersion)
	}
	fp := fingerprint(t, old)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := LoadSnapshot(cfg, resaved)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := fingerprint(t, again); got != fp {
		t.Fatalf("version-3 snapshot does not round-trip:\nsaved:  %.300s\nloaded: %.300s", fp, got)
	}
	same("v3 reloaded", ask(again), want)

	// The file the original wrote as version 3 holds the full boxes.
	full, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(full, raw) {
		t.Fatal("a snapshot loaded from version 2 re-saved with full boxes before any Compact")
	}
	if err := again.Compact(); err != nil {
		t.Fatal(err)
	}
	if cells, dims := bounded(again); dims != cells*nPivots {
		t.Fatalf("after Compact: %d bounded dimensions over %d cells, want %d each", dims, cells, nPivots)
	}
	checkBoxes(t, "compacted", again, queries)
	checkRange(t, "compacted", again, queries, nil)
}
