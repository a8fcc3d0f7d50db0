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
// of the whole answer once, in the whole answer's bound-key order. Budgets
// from below one record to above the answer, memory and disk.
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
						for _, budget := range []int{1, 3000, 60000, 1 << 30} {
							pages, err := readPages(eng, iq, budget, whole)
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
// against the whole answer, which must be in bound-key order: each page is
// the next run of its keys, cut where the records reach the budget, and the
// page that is not full ends it. It returns the number of pages.
func readPages(eng *ShardedIndex, iq mindex.Query, budget int, whole []mindex.RankedCandidate) (int, error) {
	same := func(a, b mindex.RankedCandidate) bool {
		return a.Entry.ID == b.Entry.ID && a.Promise == b.Promise && string(a.Entry.Record) == string(b.Entry.Record)
	}
	key := func(rc mindex.RankedCandidate) mindex.BoundKey {
		return mindex.BoundKey{LB: rc.Promise, ID: rc.Entry.ID}
	}
	if !slices.IsSortedFunc(whole, func(a, b mindex.RankedCandidate) int { return key(a).Compare(key(b)) }) {
		return 0, fmt.Errorf("the whole answer is not in bound-key order")
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
		if at+len(page) > len(whole) || !slices.EqualFunc(page, whole[at:at+len(page)], same) {
			return pages, fmt.Errorf("page %d is not the next %d keys of the answer", pages, len(page))
		}
		at += len(page)
		if !mindex.PageFull(page, budget) {
			if at != len(whole) {
				return pages, fmt.Errorf("last page %d leaves %d of %d candidates unread", pages, len(whole)-at, len(whole))
			}
			return pages + 1, nil
		}
		last := page[len(page)-1]
		k := key(last)
		iq.After = &k
	}
}
