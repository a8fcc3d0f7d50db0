package mindex

import (
	"fmt"
	"slices"
	"testing"
)

// checkRangePages reads the range query q page by page under budget through
// search and checks the pages against the whole answer (q with no budget):
// every page holds at least one record and stops at the first record whose
// bytes reach the budget; a full page is the next smallest bound keys of the
// answer, in key order; the page that is not full is the rest of the answer
// — the whole of it, in the same order, when it is the first. So the pages
// hold the answer once, and a page that is not full is the last one.
func checkRangePages(search func(Query) ([]RankedCandidate, error), q Query, budget int) (pages int, err error) {
	q.Page = 0
	whole, err := search(q)
	if err != nil {
		return 0, err
	}
	sorted := slices.Clone(whole)
	SortBound(sorted)
	q.Page = budget
	for at := 0; ; pages++ {
		page, err := search(q)
		if err != nil {
			return pages, err
		}
		if PageEnd(page, budget) != len(page) {
			return pages, fmt.Errorf("page %d goes on after its records reach the budget", pages)
		}
		if !PageFull(page, budget) {
			rest := sorted[at:]
			if pages == 0 {
				rest = whole
			} else {
				page = slices.Clone(page)
				SortBound(page)
			}
			if !slices.EqualFunc(page, rest, sameCandidate) {
				return pages, fmt.Errorf("last page %d holds %d candidates, not the %d left", pages, len(page), len(rest))
			}
			return pages + 1, nil
		}
		if len(page) == 0 || at+len(page) > len(sorted) || !slices.EqualFunc(page, sorted[at:at+len(page)], sameCandidate) {
			return pages, fmt.Errorf("full page %d is not the next %d smallest keys of the answer", pages, len(page))
		}
		at += len(page)
		last := page[len(page)-1]
		q.After = &BoundKey{LB: last.Promise, ID: last.Entry.ID}
	}
}

func sameCandidate(a, b RankedCandidate) bool {
	return a.Entry.ID == b.Entry.ID && a.Promise == b.Promise && string(a.Entry.Record) == string(b.Entry.Record)
}

// TestRangePagesCoverRange: a range answer read in pages of any budget —
// smaller than one record, a few records, most of the answer, or all of it
// — holds every entry of the whole answer once, full pages in bound-key
// order and a lone page in the walk's own order. Memory and disk storage,
// entries all with distances or some without (their bound is 0, so a run of
// them orders by ID alone), and payloads of varied size.
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

// TestPageCut pins the cut itself: a page takes records in bound-key order
// until their bytes reach the budget, so a record larger than the budget
// is a page of its own, and an answer whose records stay under the budget
// comes back whole and in the order given.
func TestPageCut(t *testing.T) {
	cand := func(id uint64, lb float64, payload int) RankedCandidate {
		return RankedCandidate{Promise: lb, Entry: ViewOf(Entry{ID: id, Perm: []int32{0}, Payload: make([]byte, payload)})}
	}
	one := cand(0, 0, 80)
	rec := one.Bytes() // 100 B
	in := []RankedCandidate{cand(5, 0.5, 80), cand(2, 0.5, 80), cand(9, 0.1, 80), cand(1, 0.9, 80)}
	for _, tc := range []struct {
		budget int
		want   []uint64
	}{
		{0, []uint64{5, 2, 9, 1}},
		{4*rec + 1, []uint64{5, 2, 9, 1}},
		{4 * rec, []uint64{9, 2, 5, 1}},
		{2*rec + 1, []uint64{9, 2, 5}},
		{2 * rec, []uint64{9, 2}},
		{1, []uint64{9}},
	} {
		got := Page(slices.Clone(in), tc.budget)
		if !slices.Equal(candidateIDs(got), tc.want) {
			t.Fatalf("budget %d: page %v, want %v", tc.budget, candidateIDs(got), tc.want)
		}
		if full := tc.budget > 0 && tc.budget <= 4*rec; PageFull(got, tc.budget) != full {
			t.Fatalf("budget %d: PageFull %v, want %v", tc.budget, !full, full)
		}
	}
}
