package mindex

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/transform"
)

// boundWorld is a collection prepared for the bound-order tests: entries
// whose Dists are the pivot distances (transformed or not, all present or
// some missing and one NaN) and matching query vectors.
type boundWorld struct {
	entries []Entry
	queries [][]float64
}

func newBoundWorld(t testing.TB, n, nPivots int, transformed, mixed bool) boundWorld {
	t.Helper()
	ds := dataset.Clustered(28, n+4, 6, 9, metric.L2{})
	rng := rand.New(rand.NewPCG(28, 7))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots)
	apply := func(d []float64) []float64 { return d }
	if transformed {
		var sample []float64
		for _, o := range ds.Objects[:min(200, n)] {
			sample = append(sample, pv.Distances(o.Vec)...)
		}
		tr, err := transform.FitEqualizing(rng, sample, 16)
		if err != nil {
			t.Fatal(err)
		}
		apply = tr.ApplyAll
	}
	var w boundWorld
	for i, o := range ds.Objects[:n] {
		d := pv.Distances(o.Vec)
		e := Entry{ID: uint64(i + 1), Perm: pivot.Permutation(d), Dists: apply(d)}
		if mixed {
			switch {
			case i%7 == 3:
				e.Dists = nil // its bound is 0, and its cells lose their boxes
			case i == 10:
				e.Dists[2] = math.NaN()
			}
		}
		w.entries = append(w.entries, e)
	}
	for _, o := range ds.Objects[n:] {
		w.queries = append(w.queries, apply(pv.Distances(o.Vec)))
	}
	return w
}

// bruteBoundOrder sorts the live entries by bound key — the definition a
// KindBound answer is the prefix of.
func bruteBoundOrder(live []Entry, qDists []float64) []BoundKey {
	keys := make([]BoundKey, len(live))
	for i := range live {
		keys[i] = BoundKey{LB: pivot.LowerBound(qDists, live[i].Dists), ID: live[i].ID}
	}
	slices.SortFunc(keys, BoundKey.Compare)
	return keys
}

func candidateIDs(rcs []RankedCandidate) []uint64 {
	ids := make([]uint64, len(rcs))
	for i := range rcs {
		ids[i] = rcs[i].Entry.ID
	}
	return ids
}

// boundSearcher is what both the index and the sharded engine offer the
// bound-order property check.
type boundSearcher interface {
	Search(Query) ([]RankedCandidate, error)
	AllEntries() ([]Entry, error)
}

// checkBoundCursor runs one precise k-NN's two pages against ix with mutate
// landing between them, and checks the contract of the bound order: page
// one is the first candSize live entries of a brute-force sort by bound key,
// each annotated with its bound; page two, a range of radius r resumed
// after page one's last key, shares no entry with page one, and together
// they hold exactly what page one and a plain range of radius r over the
// mutated index hold.
func checkBoundCursor(ix boundSearcher, qDists []float64, candSize int, r float64, mutate func(page1 []RankedCandidate) error) error {
	live, err := ix.AllEntries()
	if err != nil {
		return err
	}
	page1, err := ix.Search(Query{Kind: KindBound, ApproxQuery: ApproxQuery{Dists: qDists}, CandSize: candSize})
	if err != nil {
		return err
	}
	want := bruteBoundOrder(live, qDists)
	want = want[:min(candSize, len(want))]
	if len(page1) != len(want) {
		return fmt.Errorf("page one holds %d entries, want %d", len(page1), len(want))
	}
	for i, rc := range page1 {
		if got := (BoundKey{LB: rc.Promise, ID: rc.Entry.ID}); got != want[i] || rc.Prefix != nil {
			return fmt.Errorf("page one entry %d is %+v (prefix %v), want %+v", i, got, rc.Prefix, want[i])
		}
	}
	if err := mutate(page1); err != nil {
		return err
	}
	rangeQ := Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qDists}, Radius: r}
	plain, err := ix.Search(rangeQ)
	if err != nil {
		return err
	}
	var page2 []RankedCandidate
	if len(page1) > 0 {
		last := page1[len(page1)-1]
		rangeQ.After = &BoundKey{LB: last.Promise, ID: last.Entry.ID}
		if page2, err = ix.Search(rangeQ); err != nil {
			return err
		}
	}
	first := candidateIDs(page1)
	for _, id := range candidateIDs(page2) {
		if slices.Contains(first, id) {
			return fmt.Errorf("entry %d is on both pages", id)
		}
	}
	union := func(a, b []uint64) []uint64 {
		out := slices.Concat(a, b)
		slices.Sort(out)
		return slices.Compact(out)
	}
	got, ref := union(first, candidateIDs(page2)), union(first, candidateIDs(plain))
	if !slices.Equal(got, ref) {
		return fmt.Errorf("pages cover %d entries, page one plus the plain range %d", len(got), len(ref))
	}
	return nil
}

// boundMutations are the index changes that may land between the two pages
// of a query, each built over the index under test: splitting the leaf of
// a page-one entry that splittable picks (by inserting entries that share
// its permutation but lie beyond any radius), deleting entries on both
// sides of the cursor, and the same deletions followed by a Compact.
func boundMutations(numPivots int, splittable func(Entry) bool, insert func([]Entry) error, del func([]uint64) error, compact func() error) map[string]func([]RankedCandidate) error {
	nextID := uint64(1 << 40)
	far := func(page1 []RankedCandidate) error {
		at := slices.IndexFunc(page1, func(rc RankedCandidate) bool { return splittable(rc.Entry.Decode()) })
		if at < 0 {
			return nil
		}
		batch := make([]Entry, 25)
		for i := range batch {
			nextID++
			batch[i] = Entry{ID: nextID, Perm: page1[at].Entry.Decode().Perm, Dists: slices.Repeat([]float64{1e9}, numPivots)}
		}
		return insert(batch)
	}
	victims := func(page1 []RankedCandidate) []uint64 {
		var ids []uint64
		for i := 0; i < len(page1); i += 7 {
			ids = append(ids, page1[i].Entry.ID)
		}
		// IDs that page one did not ship: some lie past the cursor.
		return append(ids, 5, 55, 555)
	}
	return map[string]func([]RankedCandidate) error{
		"none":  func([]RankedCandidate) error { return nil },
		"split": far,
		"delete": func(page1 []RankedCandidate) error {
			return del(victims(page1))
		},
		"compact": func(page1 []RankedCandidate) error {
			if err := del(victims(page1)); err != nil {
				return err
			}
			return compact()
		},
	}
}

// TestBoundOrderCursorCoversRange is the contract of the precise k-NN's two
// pages (checkBoundCursor) on one index: memory and disk storage, an eagerly
// split and an unsplit root, entries all with distances or some without and
// one with a NaN, distances transformed or not, candidate sizes from one to
// more than the index holds, radii inside and past page one, and a split, a
// delete or a Compact between the pages.
func TestBoundOrderCursorCoversRange(t *testing.T) {
	const nPivots = 8
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		for _, eager := range []bool{true, false} {
			for _, mixed := range []bool{false, true} {
				for _, transformed := range []bool{false, true} {
					n := 600
					cfg := testConfig(nPivots)
					cfg.Storage = storage
					cfg.EagerRootSplit = eager
					if !eager {
						// An unsplit root: the collection fits the root bucket
						// until a mutation's inserts overflow it.
						n, cfg.BucketCapacity = 150, 160
					}
					w := newBoundWorld(t, n, nPivots, transformed, mixed)
					for mutName := range boundMutations(nPivots, nil, nil, nil, nil) {
						name := fmt.Sprintf("%v/eager=%v/mixed=%v/transform=%v/%s", storage, eager, mixed, transformed, mutName)
						t.Run(name, func(t *testing.T) {
							if storage == StorageDisk {
								cfg.DiskPath = t.TempDir()
							}
							ix, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							defer ix.Close()
							if err := ix.InsertBulk(w.entries); err != nil {
								t.Fatal(err)
							}
							leaves := ix.TreeStats().Leaves
							// A leaf shallower than MaxLevel splits when it overflows.
							splittable := func(e Entry) bool { return len(ix.loc[e.ID].prefix) < cfg.MaxLevel }
							mutate := boundMutations(nPivots, splittable, ix.InsertBulk, func(ids []uint64) error {
								_, err := ix.Delete(ids)
								return err
							}, ix.Compact)[mutName]
							for qi, qd := range w.queries {
								order := bruteBoundOrder(w.entries, qd)
								for _, candSize := range []int{1, 50, 1 << 30} {
									for _, at := range []int{30, n / 2} {
										if err := checkBoundCursor(ix, qd, candSize, order[at].LB, mutate); err != nil {
											t.Fatalf("q%d candSize=%d radius at %d: %v", qi, candSize, at, err)
										}
									}
								}
							}
							if mutName == "split" && ix.TreeStats().Leaves <= leaves {
								t.Fatalf("the inserts split no leaf (%d leaves before, %d after)", leaves, ix.TreeStats().Leaves)
							}
						})
					}
				}
			}
		}
	}
}
