package core

import (
	"slices"
	"testing"

	"simcloud/internal/pivot"
	"simcloud/internal/stats"
)

// TestPrepareEntriesOwnTheirRows: the pivot-distance row and the permutation
// are scratch reused from object to object, so what an entry keeps must be
// its own — above all under StoreDists without a transform, where
// Key.TransformDists hands back its argument.
func TestPrepareEntriesOwnTheirRows(t *testing.T) {
	c, _, _, objs := refineFixture(t, ctrCodec, 24)
	c.opts = Options{StoreDists: true, PrefixLen: 4}
	pv := c.key.Pivots()
	for _, workers := range []int{1, 3} {
		c.opts.Workers = workers
		entries, err := c.prepareEntries(objs, new(stats.Costs))
		if err != nil {
			t.Fatal(err)
		}
		refs := c.deleteRefs(objs, new(stats.Costs))
		for i, o := range objs {
			dists := pv.Distances(o.Vec)
			prefix := pivot.Prefix(pivot.Permutation(dists), 4)
			if !slices.Equal(entries[i].Dists, dists) {
				t.Fatalf("workers=%d: entry %d stores another object's distances", workers, i)
			}
			if !slices.Equal(entries[i].Perm, prefix) || !slices.Equal(refs[i].Perm, prefix) {
				t.Fatalf("workers=%d: entry %d perm %v, delete ref %v, want %v",
					workers, i, entries[i].Perm, refs[i].Perm, prefix)
			}
		}
	}
}

// TestPrepareAndDeleteAllocs: per object, a delete reference allocates its
// routing prefix and nothing else; an insert adds the plaintext, the
// ciphertext and the cipher's own objects (the parent also allocated a
// distance row, a full permutation and a second prefix for each).
func TestPrepareAndDeleteAllocs(t *testing.T) {
	enforce := allocCeilings(t)
	c, _, _, objs := refineFixture(t, ctrCodec, 64)
	const fixed = 4 // the result slice, the scratch and its two rows
	for _, n := range []int{8, 64} {
		if got := testing.AllocsPerRun(20, func() {
			c.deleteRefs(objs[:n], new(stats.Costs))
		}); enforce && got > float64(fixed+n) {
			t.Errorf("deleteRefs, %d objects: %.1f allocs, want <= %d", n, got, fixed+n)
		}
	}
	// What sealing one object allocates is the cipher's business; measure it
	// rather than pin it, and allow the prefix on top.
	seal := testing.AllocsPerRun(20, func() {
		if _, err := c.key.EncryptObject(objs[0]); err != nil {
			t.Fatal(err)
		}
	})
	for _, n := range []int{8, 64} {
		ceiling := fixed + float64(n)*(seal+1)
		if got := testing.AllocsPerRun(20, func() {
			if _, err := c.prepareEntries(objs[:n], new(stats.Costs)); err != nil {
				t.Fatal(err)
			}
		}); enforce && got > ceiling {
			t.Errorf("prepareEntries, %d objects: %.1f allocs, want <= %.0f", n, got, ceiling)
		}
	}
}
