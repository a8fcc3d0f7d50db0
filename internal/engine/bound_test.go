package engine

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"simcloud/internal/mindex"
	"simcloud/internal/transform"
)

// boundKeys sorts the live entries by bound key, the order a KindBound
// answer is the prefix of.
func boundKeys(live []mindex.Entry, qDists []float64) []mindex.BoundKey {
	keys := make([]mindex.BoundKey, len(live))
	for i, e := range live {
		keys[i].ID = e.ID
		if e.Dists != nil {
			keys[i].LB = 0
			for p, d := range e.Dists {
				// max_p |q_p − o_p|, a NaN distance bounding nothing.
				if v := math.Abs(qDists[p] - d); v > keys[i].LB {
					keys[i].LB = v
				}
			}
		}
	}
	slices.SortFunc(keys, mindex.BoundKey.Compare)
	return keys
}

func rankedIDs(rcs []mindex.RankedCandidate) []uint64 {
	ids := make([]uint64, len(rcs))
	for i := range rcs {
		ids[i] = rcs[i].Entry.ID
	}
	return ids
}

// TestBoundOrderCursorCoversRange is the two-page contract of the precise
// k-NN across shards: the merged first page is the first candSize live
// entries of a brute-force sort of the whole engine by bound key, with
// their bounds; the range resumed after its last key shares no entry with
// it; and the two pages hold exactly what the first page and a plain range
// hold — with an insert burst that splits leaves, a delete, or deletes and a
// Compact landing between the pages. Over 1 and 4 shards, memory and disk,
// all entries with distances or some without and one NaN, and distances
// transformed or not.
func TestBoundOrderCursorCoversRange(t *testing.T) {
	w := newWorld(t, 28, 800, 4)
	var sample []float64
	for _, e := range w.entries[:200] {
		sample = append(sample, e.Dists...)
	}
	tr, err := transform.FitEqualizing(rand.New(rand.NewPCG(28, 1)), sample, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
			for _, mixed := range []bool{false, true} {
				for _, transformed := range []bool{false, true} {
					apply := func(d []float64) []float64 { return d }
					if transformed {
						apply = tr.ApplyAll
					}
					entries := make([]mindex.Entry, len(w.entries))
					for i, e := range w.entries {
						e.Dists = apply(e.Dists)
						switch {
						case mixed && i%7 == 3:
							e.Dists = nil
						case mixed && i == 10:
							e.Dists = slices.Clone(e.Dists)
							e.Dists[2] = math.NaN()
						}
						entries[i] = e
					}
					for _, mutation := range []string{"none", "split", "delete", "compact"} {
						name := fmt.Sprintf("shards=%d/%v/mixed=%v/transform=%v/%s", shards, storage, mixed, transformed, mutation)
						t.Run(name, func(t *testing.T) {
							cfg := testCfg(shards)
							cfg.Storage = storage
							if storage == mindex.StorageDisk {
								cfg.DiskPath = t.TempDir()
							}
							eng, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							defer eng.Close()
							if err := eng.InsertBulk(entries); err != nil {
								t.Fatal(err)
							}
							leaves := eng.TreeStats().Leaves
							nextID := uint64(1 << 40)
							mutate := func(page1 []mindex.RankedCandidate) error {
								var ids []uint64
								for i := 0; i < len(page1); i += 7 {
									ids = append(ids, page1[i].Entry.ID)
								}
								switch mutation {
								case "split":
									// Entries sharing page-one permutations but
									// beyond any radius overflow their leaves (those
									// of entries with distances: the ones without
									// crowd into the deepest cells).
									var burst []mindex.Entry
									for _, rc := range page1 {
										if len(rc.Entry.Dists()) == 0 || len(burst) == 75 {
											continue
										}
										for range 25 {
											nextID++
											burst = append(burst, mindex.Entry{ID: nextID, Perm: rc.Entry.Decode().Perm,
												Dists: slices.Repeat([]float64{1e9}, testPivots)})
										}
									}
									return eng.InsertBulk(burst)
								case "delete", "compact":
									if _, err := eng.DeleteIDs(append(ids, w.entries[5].ID, w.entries[555].ID)); err != nil {
										return err
									}
									if mutation == "compact" {
										return eng.Compact()
									}
								}
								return nil
							}
							for qi, qv := range w.queries {
								qDists := apply(w.pv.Distances(qv))
								order := boundKeys(entries, qDists)
								for _, candSize := range []int{1, 50, 1 << 30} {
									for _, at := range []int{30, 400} {
										live, err := eng.AllEntries()
										if err != nil {
											t.Fatal(err)
										}
										page1, err := eng.Search(mindex.Query{Kind: mindex.KindBound,
											ApproxQuery: mindex.ApproxQuery{Dists: qDists}, CandSize: candSize})
										if err != nil {
											t.Fatal(err)
										}
										want := boundKeys(live, qDists)
										want = want[:min(candSize, len(want))]
										if len(page1) != len(want) {
											t.Fatalf("q%d candSize=%d: page one holds %d entries, want %d", qi, candSize, len(page1), len(want))
										}
										for i, rc := range page1 {
											if got := (mindex.BoundKey{LB: rc.Promise, ID: rc.Entry.ID}); got != want[i] {
												t.Fatalf("q%d candSize=%d: page one entry %d is %+v, want %+v", qi, candSize, i, got, want[i])
											}
										}
										if err := mutate(page1); err != nil {
											t.Fatal(err)
										}
										rangeQ := mindex.Query{Kind: mindex.KindRange,
											ApproxQuery: mindex.ApproxQuery{Dists: qDists}, Radius: order[at].LB}
										plain, err := eng.Search(rangeQ)
										if err != nil {
											t.Fatal(err)
										}
										last := page1[len(page1)-1]
										rangeQ.After = &mindex.BoundKey{LB: last.Promise, ID: last.Entry.ID}
										page2, err := eng.Search(rangeQ)
										if err != nil {
											t.Fatal(err)
										}
										first := rankedIDs(page1)
										for _, id := range rankedIDs(page2) {
											if slices.Contains(first, id) {
												t.Fatalf("q%d candSize=%d: entry %d is on both pages", qi, candSize, id)
											}
										}
										got := slices.Concat(first, rankedIDs(page2))
										ref := slices.Concat(first, rankedIDs(plain))
										slices.Sort(got)
										slices.Sort(ref)
										if !slices.Equal(got, slices.Compact(ref)) {
											t.Fatalf("q%d candSize=%d radius at %d: pages cover %d entries, page one plus the plain range %d",
												qi, candSize, at, len(got), len(slices.Compact(ref)))
										}
									}
								}
							}
							if mutation == "split" && eng.TreeStats().Leaves <= leaves {
								t.Fatalf("the insert bursts split no leaf (%d leaves before, %d after)", leaves, eng.TreeStats().Leaves)
							}
						})
					}
				}
			}
		}
	}
}
