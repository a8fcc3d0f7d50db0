package engine

import (
	"fmt"
	"slices"
	"testing"

	"simcloud/internal/mindex"
)

// TestRangePagesAcrossShards: a range answer read in pages across 1 and 4
// shards — each shard cutting its own page, merge.Combine merging the
// shards' pages by bound key and cutting at the budget — holds every entry
// of the whole answer once: each full page the next smallest keys of the
// answer, and the last page the rest (the whole answer, in the unpaged
// order, when it is the only page). Budgets from below one record to above
// the answer, memory and disk.
func TestRangePagesAcrossShards(t *testing.T) {
	w := newWorld(t, 44, 900, 4)
	for i := range w.entries {
		w.entries[i].Payload = make([]byte, i*53%400)
	}
	for _, shards := range []int{1, 4} {
		for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
			t.Run(fmt.Sprintf("shards=%d/%v", shards, storage), func(t *testing.T) {
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
				if err := eng.InsertBulk(w.entries); err != nil {
					t.Fatal(err)
				}
				multi := 0
				for qi, q := range w.queries {
					qDists, _ := w.query(q)
					keys := boundKeys(w.entries, qDists)
					for _, at := range []int{50, 800} {
						iq := mindex.Query{Kind: mindex.KindRange, ApproxQuery: mindex.ApproxQuery{Dists: qDists}, Radius: keys[at].LB}
						whole, err := eng.Search(iq)
						if err != nil {
							t.Fatal(err)
						}
						sorted := slices.Clone(whole)
						mindex.SortBound(sorted)
						for _, budget := range []int{1, 3000, 60000, 1 << 30} {
							pages, err := readPages(eng, iq, budget, whole, sorted)
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

// readPages reads iq page by page under budget and checks each page
// against the whole answer and its bound-key order; it returns the number
// of pages.
func readPages(eng *ShardedIndex, iq mindex.Query, budget int, whole, sorted []mindex.RankedCandidate) (int, error) {
	same := func(a, b mindex.RankedCandidate) bool {
		return a.Entry.ID == b.Entry.ID && a.Promise == b.Promise && string(a.Entry.Record) == string(b.Entry.Record)
	}
	iq.Page = budget
	for at, pages := 0, 0; ; pages++ {
		page, err := eng.Search(iq)
		if err != nil {
			return pages, err
		}
		if mindex.PageEnd(page, budget) != len(page) {
			return pages, fmt.Errorf("page %d goes on after its records reach the budget", pages)
		}
		if !mindex.PageFull(page, budget) {
			rest := sorted[at:]
			if pages == 0 {
				rest = whole
			} else {
				page = slices.Clone(page)
				mindex.SortBound(page)
			}
			if !slices.EqualFunc(page, rest, same) {
				return pages, fmt.Errorf("last page %d holds %d candidates, not the %d left", pages, len(page), len(rest))
			}
			return pages + 1, nil
		}
		if at+len(page) > len(sorted) || !slices.EqualFunc(page, sorted[at:at+len(page)], same) {
			return pages, fmt.Errorf("full page %d is not the next %d smallest keys of the answer", pages, len(page))
		}
		at += len(page)
		last := page[len(page)-1]
		iq.After = &mindex.BoundKey{LB: last.Promise, ID: last.Entry.ID}
	}
}
