package mindex

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// TestTombSetMatchesMap drives the trie with random adds and removes —
// dense and sparse IDs, each transaction a fresh generation — against a
// map. After every transaction the set holds exactly the map's IDs, and a
// set taken before it (a published snapshot) still holds what it held.
func TestTombSetMatchesMap(t *testing.T) {
	for _, span := range []uint64{300, 1 << 62} {
		rng := rand.New(rand.NewPCG(span, 9))
		var s tombSet
		want := map[uint64]bool{}
		var ids []uint64 // every ID ever touched
		for gen := uint64(1); gen <= 400; gen++ {
			before, beforeWant := s, clone(want)
			for range rng.IntN(40) {
				var id uint64
				if len(ids) > 0 && rng.IntN(2) == 0 {
					id = ids[rng.IntN(len(ids))]
				} else {
					id = rng.Uint64N(span)
					ids = append(ids, id)
				}
				if rng.IntN(3) == 0 {
					if s.remove(id, gen) != want[id] {
						t.Fatalf("gen %d: remove(%d) disagrees with the map", gen, id)
					}
					delete(want, id)
				} else {
					if s.add(id, gen) == want[id] {
						t.Fatalf("gen %d: add(%d) disagrees with the map", gen, id)
					}
					want[id] = true
				}
			}
			checkTombs(t, fmt.Sprintf("span %d gen %d", span, gen), &s, want, ids)
			checkTombs(t, fmt.Sprintf("span %d gen %d, the set before", span, gen), &before, beforeWant, ids)
		}
		for _, id := range ids {
			s.remove(id, 1000)
		}
		if s.root != nil || s.n != 0 {
			t.Fatalf("span %d: a set emptied by removes keeps %d IDs, root %v", span, s.n, s.root)
		}
	}
}

func clone(m map[uint64]bool) map[uint64]bool {
	out := make(map[uint64]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func checkTombs(t *testing.T, label string, s *tombSet, want map[uint64]bool, probe []uint64) {
	t.Helper()
	if s.n != len(want) {
		t.Fatalf("%s: %d IDs, want %d", label, s.n, len(want))
	}
	for _, id := range probe {
		if s.has(id) != want[id] {
			t.Fatalf("%s: has(%d) = %v", label, id, !want[id])
		}
	}
	var sorted []uint64
	for id := range want {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	if got := s.ids(); !slices.Equal(got, sorted) {
		t.Fatalf("%s: ids() %d, want %d", label, len(got), len(sorted))
	}
}

// TestDeleteCostIndependentOfTombstones: deleting one ID costs about the
// same allocations and bytes beside 1 000 and beside 50 000 tombstones that
// no compaction has cleared yet — a transaction copies the path of its own
// tombstone, not the published set. The tree is one level deep in both
// indexes, so its path copy is the same size.
func TestDeleteCostIndependentOfTombstones(t *testing.T) {
	cost := func(tombstones int) (allocs, bytes float64) {
		const live = 2000
		cfg := testConfig(8)
		cfg.MaxLevel, cfg.BucketCapacity = 1, 64
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		rng := rand.New(rand.NewPCG(5, 5))
		entries := make([]Entry, tombstones+live)
		for i := range entries {
			perm := []int32{0, 1, 2, 3, 4, 5, 6, 7}
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			entries[i] = Entry{ID: uint64(i + 1), Perm: perm[:1], Payload: []byte{1}}
		}
		if err := ix.InsertBulk(entries); err != nil {
			t.Fatal(err)
		}
		dead := make([]uint64, tombstones)
		for i := range dead {
			dead[i] = uint64(live + i + 1)
		}
		if n, err := ix.Delete(dead); err != nil || n != tombstones {
			t.Fatalf("deleted %d of %d (%v)", n, tombstones, err)
		}
		const runs = 200
		next := uint64(0)
		del := func() {
			next++
			if n, err := ix.Delete([]uint64{next}); err != nil || n != 1 {
				t.Fatalf("delete of %d: %d, %v", next, n, err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			del()
		}
		runtime.ReadMemStats(&after)
		allocs = testing.AllocsPerRun(runs, del)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(1000)
	bigAllocs, bigBytes := cost(50000)
	t.Logf("one-ID delete: %.1f allocs, %.0f B beside 1 000 tombstones; %.1f allocs, %.0f B beside 50 000",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > 2*smallAllocs || bigBytes > 2*smallBytes {
		t.Fatalf("a delete beside 50 000 tombstones costs %.1f allocs and %.0f B, beside 1 000 %.1f and %.0f: over 2×",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}
