package mindex

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"simcloud/internal/pivot"
)

// checkRangePages reads the range query q page by page under budget through
// search and checks the pages against the whole answer (q with no budget),
// which must be in bound-key order: every page holds at least one record
// and stops at the first record whose bytes reach the budget, and each page
// is the next run of the whole answer's keys, so the pages hold the answer
// once, in its order, and a page that is not full is the last one.
func checkRangePages(search func(Query) ([]RankedCandidate, error), q Query, budget int) (pages int, err error) {
	q.Page = 0
	whole, err := search(q)
	if err != nil {
		return 0, err
	}
	if !slices.IsSortedFunc(whole, compareBound) {
		return 0, fmt.Errorf("the whole answer is not in bound-key order")
	}
	q.Page = budget
	for at := 0; ; pages++ {
		page, err := search(q)
		if err != nil {
			return pages, err
		}
		if PageEnd(page, budget) != len(page) {
			return pages, fmt.Errorf("page %d goes on after its records reach the budget", pages)
		}
		if at+len(page) > len(whole) || !slices.EqualFunc(page, whole[at:at+len(page)], sameCandidate) {
			return pages, fmt.Errorf("page %d is not the next %d keys of the answer", pages, len(page))
		}
		at += len(page)
		if !PageFull(page, budget) {
			if at != len(whole) {
				return pages, fmt.Errorf("last page %d leaves %d of %d candidates unread", pages, len(whole)-at, len(whole))
			}
			return pages + 1, nil
		}
		last := page[len(page)-1]
		q.After = &BoundKey{LB: last.Promise, ID: last.Entry.ID}
	}
}

// compareBound orders bound-keyed candidates by their keys.
func compareBound(a, b RankedCandidate) int { return boundKeyOf(&a).Compare(boundKeyOf(&b)) }

func sameCandidate(a, b RankedCandidate) bool {
	return a.Entry.ID == b.Entry.ID && a.Promise == b.Promise && string(a.Entry.Record) == string(b.Entry.Record)
}

// TestRangePagesCoverRange: a range answer read in pages of any budget —
// smaller than one record, a few records, most of the answer, or all of it
// — holds every entry of the whole answer once, each page in bound-key
// order. Memory and disk storage, entries all with distances or some
// without (their bound is 0, so a run of them orders by ID alone), and
// payloads of varied size.
func TestRangePagesCoverRange(t *testing.T) {
	const nPivots = 8
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		for _, mixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/mixed=%v", storage, mixed), func(t *testing.T) {
				w := newBoundWorld(t, 600, nPivots, false, mixed)
				for i := range w.entries {
					w.entries[i].Payload = make([]byte, i*37%300)
				}
				cfg := testConfig(nPivots)
				cfg.Storage = storage
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
				multi := 0
				for qi, qd := range w.queries {
					order := bruteBoundOrder(w.entries, qd)
					for _, at := range []int{40, 500} {
						q := Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qd}, Radius: order[at].LB}
						for _, budget := range []int{1, 2000, 40000, 1 << 30} {
							pages, err := checkRangePages(ix.Search, q, budget)
							if err != nil {
								t.Fatalf("q%d radius at %d, budget %d: %v", qi, at, budget, err)
							}
							if pages > 1 {
								multi++
							}
						}
					}
				}
				if multi == 0 {
					t.Fatal("no answer took more than one page")
				}
			})
		}
	}
}

// TestPageCut pins the cut itself through Search's pages: a page takes
// records in bound-key order until their bytes reach the budget, so a
// record larger than the budget is a page of its own, and an answer whose
// records stay under the budget comes back whole, in the same order.
func TestPageCut(t *testing.T) {
	ix, err := New(Config{NumPivots: 2, MaxLevel: 2, BucketCapacity: 2, Storage: StorageMemory, Ranking: RankFootrule})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// The query sits at distance 0 from pivot 0 and 10 from pivot 1, so an
	// entry's bound is its distance to pivot 0.
	var entries []Entry
	for _, e := range []struct {
		id uint64
		lb float64
	}{{5, 0.5}, {2, 0.5}, {9, 0.1}, {1, 0.9}} {
		entries = append(entries, Entry{ID: e.id, Perm: []int32{0, 1}, Dists: []float64{e.lb, 10}, Payload: make([]byte, 80)})
	}
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	v := ViewOf(entries[0])
	rec := v.CandidateBytes() // 100 B
	q := Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: []float64{0, 10}}, Radius: 1}
	for _, tc := range []struct {
		budget int
		want   []uint64
	}{
		{0, []uint64{9, 2, 5, 1}},
		{4*rec + 1, []uint64{9, 2, 5, 1}},
		{4 * rec, []uint64{9, 2, 5, 1}},
		{2*rec + 1, []uint64{9, 2, 5}},
		{2 * rec, []uint64{9, 2}},
		{1, []uint64{9}},
	} {
		q.Page = tc.budget
		got, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(candidateIDs(got), tc.want) {
			t.Fatalf("budget %d: page %v, want %v", tc.budget, candidateIDs(got), tc.want)
		}
		if full := tc.budget > 0 && tc.budget <= 4*rec; PageFull(got, tc.budget) != full {
			t.Fatalf("budget %d: PageFull %v, want %v", tc.budget, !full, full)
		}
	}
}

// TestRangeCountAndByteCut: a range cut at a candidate size and a page
// budget at once is the prefix of a brute-force sort of the qualifying
// entries by bound key that stops at whichever cut it reaches first — the
// count, or the record that brings the bytes to the budget — resumed after
// a cursor or not, with radius +Inf (a precise k-NN's first page) or finite.
// Memory and disk storage, payloads of varied size.
func TestRangeCountAndByteCut(t *testing.T) {
	const nPivots = 8
	for _, storage := range []StorageKind{StorageMemory, StorageDisk} {
		t.Run(storage.String(), func(t *testing.T) {
			w := newBoundWorld(t, 600, nPivots, false, false)
			for i := range w.entries {
				w.entries[i].Payload = make([]byte, i*37%300)
			}
			cfg := testConfig(nPivots)
			cfg.Storage = storage
			if storage == StorageDisk {
				cfg.DiskPath = t.TempDir()
			}
			ix := mustIndex(t, cfg)
			if err := ix.InsertBulk(w.entries); err != nil {
				t.Fatal(err)
			}
			byCount, byBytes := 0, 0
			for qi, qd := range w.queries {
				order := bruteBoundOrder(w.entries, qd)
				for _, radius := range []float64{math.Inf(1), order[300].LB} {
					for _, after := range []*BoundKey{nil, &order[100]} {
						for _, candSize := range []int{1, 7, 50, 400} {
							for _, budget := range []int{1, 2000, 40000, 1 << 30} {
								var want []uint64
								bytes := 0
								for _, e := range w.entries {
									key := BoundKey{LB: pivot.LowerBound(qd, e.Dists), ID: e.ID}
									if key.LB <= radius && (after == nil || key.Compare(*after) > 0) {
										want = append(want, e.ID)
									}
								}
								slices.SortFunc(want, func(a, b uint64) int {
									return BoundKey{LB: pivot.LowerBound(qd, w.entries[a-1].Dists), ID: a}.Compare(
										BoundKey{LB: pivot.LowerBound(qd, w.entries[b-1].Dists), ID: b})
								})
								for i, id := range want {
									v := ViewOf(w.entries[id-1])
									if bytes += v.CandidateBytes(); i+1 == candSize || bytes >= budget {
										if i+1 == candSize && bytes < budget {
											byCount++
										} else {
											byBytes++
										}
										want = want[:i+1]
										break
									}
								}
								got, err := ix.Search(Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qd},
									Radius: radius, After: after, CandSize: candSize, Page: budget})
								if err != nil {
									t.Fatal(err)
								}
								if !slices.Equal(candidateIDs(got), want) {
									t.Fatalf("q%d radius %g after %v candSize %d budget %d: %d candidates %v, want %d %v",
										qi, radius, after, candSize, budget, len(got), candidateIDs(got), len(want), want)
								}
								for _, rc := range got {
									if lb := pivot.LowerBound(qd, w.entries[rc.Entry.ID-1].Dists); rc.Promise != lb {
										t.Fatalf("candidate %d carries bound %g, want %g", rc.Entry.ID, rc.Promise, lb)
									}
								}
							}
						}
					}
				}
			}
			if byCount == 0 || byBytes == 0 {
				t.Fatalf("%d answers cut by count and %d by bytes, want both", byCount, byBytes)
			}
		})
	}
}

// TestRangePageCost: a page costs about one page, not the rest of the
// answer. A permutation-only index (no stored distances, so nothing is
// pruned and every entry qualifies) of 20 000 entries with 100 B payloads
// is read in 64 KiB pages; each page's Search allocates under 1 MiB, where
// collecting and sorting the whole rest of the answer cost about 4 MB.
func TestRangePageCost(t *testing.T) {
	const n, budget = 20000, 64 << 10
	rng := rand.New(rand.NewPCG(45, 45))
	entries := make([]Entry, n)
	for i := range entries {
		perm := make([]int32, 8)
		for j, p := range rng.Perm(8) {
			perm[j] = int32(p)
		}
		entries[i] = Entry{ID: uint64(i + 1), Perm: perm, Payload: make([]byte, 100)}
	}
	ix := mustIndex(t, testConfig(8))
	if err := ix.InsertBulk(entries); err != nil {
		t.Fatal(err)
	}
	q := Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: make([]float64, 8)}, Radius: 1, Page: budget}
	if _, err := ix.Search(q); err != nil { // warm the pools
		t.Fatal(err)
	}
	const pages = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read := 0
	for range pages {
		page, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !PageFull(page, budget) {
			t.Fatalf("page after %d entries is not full", read)
		}
		read += len(page)
		last := page[len(page)-1]
		q.After = &BoundKey{LB: last.Promise, ID: last.Entry.ID}
	}
	runtime.ReadMemStats(&after)
	perPage := (after.TotalAlloc - before.TotalAlloc) / pages
	t.Logf("%d B allocated per page of %d entries", perPage, read/pages)
	if perPage > 1<<20 {
		t.Fatalf("%d B allocated per page, want <= 1 MiB", perPage)
	}
}
