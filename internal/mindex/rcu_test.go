package mindex

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotConsistencyUnderChurn hammers the lock-free read path while a
// writer continuously inserts, deletes, re-inserts and compacts: every
// reader observation must be internally consistent — drawn from exactly one
// published snapshot, never a torn mix of two. The base collection of 400
// entries is never touched, and the writer keeps at most one churn entry
// live at a time, so every consistent snapshot shows exactly 400 or 401 live
// entries with no duplicate IDs. Run under -race this also proves the
// publication protocol establishes the necessary happens-before edges, for
// both storage backends (memory pins leaf views eagerly; disk readers take
// the era-checked store path with the pin fallback around Compact/purge) —
// and on disk with a cache budget below the data, where a search's misses
// are read into its scratch and the entries it keeps copied out.
func TestSnapshotConsistencyUnderChurn(t *testing.T) {
	for _, in := range []struct {
		name    string
		storage StorageKind
		cache   int
	}{
		{"memory", StorageMemory, 0},
		{"disk", StorageDisk, 0},
		{"disk-small-cache", StorageDisk, 4 << 10},
	} {
		storage := in.storage
		t.Run(in.name, func(t *testing.T) {
			cfg := Config{
				NumPivots: 8, MaxLevel: 4, BucketCapacity: 6,
				Storage: storage, Ranking: RankFootrule, DiskCacheBytes: in.cache,
			}
			if storage == StorageDisk {
				cfg.DiskPath = t.TempDir()
			}
			ix, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			rng := rand.New(rand.NewPCG(99, uint64(storage)))
			const baseSize = 400
			base := intDistEntries(rng, baseSize, 8)
			if err := ix.InsertBulk(base); err != nil {
				t.Fatal(err)
			}
			churn := intDistEntries(rng, 64, 8)
			for i := range churn {
				churn[i].ID += 1 << 20
			}
			dists := make(map[uint64][]float64) // every entry's, by ID
			for _, e := range append(slices.Clone(base), churn...) {
				dists[e.ID] = e.Dists
			}
			queries := promiseTestQueries(rng, 8, 8, false)

			stop := make(chan struct{})
			var writerOps atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					e := churn[i%len(churn)]
					if err := ix.Insert(e); err != nil {
						t.Error(err)
						return
					}
					if _, err := ix.Delete([]uint64{e.ID}); err != nil {
						t.Error(err)
						return
					}
					i++
					if i%32 == 0 {
						if err := ix.Compact(); err != nil {
							t.Error(err)
							return
						}
					}
					writerOps.Add(1)
				}
			}()

			// check also reads each entry's record, which must still be the
			// entry's once the search has returned.
			check := func(what string, entries []Entry) {
				if len(entries) != baseSize && len(entries) != baseSize+1 {
					t.Errorf("%s: %d entries, want %d or %d", what, len(entries), baseSize, baseSize+1)
				}
				seen := make(map[uint64]struct{}, len(entries))
				for _, e := range entries {
					if _, dup := seen[e.ID]; dup {
						t.Errorf("%s: duplicate ID %d", what, e.ID)
					}
					seen[e.ID] = struct{}{}
					if !slices.Equal(e.Dists, dists[e.ID]) {
						t.Errorf("%s: entry %d holds another entry's record", what, e.ID)
					}
				}
			}

			for r := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					qi := r
					for {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[qi%len(queries)]
						qi++
						// Big enough to exhaust the tree: the candidate set
						// is every live entry of one snapshot.
						cands, err := ix.ApproxCandidates(q, 10*baseSize)
						if err != nil {
							t.Error(err)
							return
						}
						check("approx", cands)

						all, err := ix.AllEntries()
						if err != nil {
							t.Error(err)
							return
						}
						check("all-entries", all)

						live, dead := ix.Counts()
						if live != baseSize && live != baseSize+1 {
							t.Errorf("Counts live = %d", live)
						}
						if dead < 0 || dead > len(churn)+1 {
							t.Errorf("Counts dead = %d", dead)
						}
						st := ix.TreeStats()
						if st.Entries+st.Dead != st.TotalBucket {
							t.Errorf("TreeStats torn: %d live + %d dead != %d stored",
								st.Entries, st.Dead, st.TotalBucket)
						}
						if st.Entries != baseSize && st.Entries != baseSize+1 {
							t.Errorf("TreeStats entries = %d", st.Entries)
						}
					}
				}()
			}

			dur := 300 * time.Millisecond
			if testing.Short() {
				dur = 50 * time.Millisecond
			}
			time.Sleep(dur)
			close(stop)
			wg.Wait()
			if writerOps.Load() == 0 {
				t.Fatal("writer made no progress")
			}
		})
	}
}
