package mindex

import (
	"math"
	"math/rand/v2"
	"testing"

	"simcloud/internal/pivot"
)

// The approximate traversal computes cell promises incrementally (one
// weighted term per tree level) and claims bit-for-bit identity with the
// from-scratch pivot.FootrulePromise/DistSumPromise reference — these tests
// enforce the claim on the emitted candidate streams.

// intDistEntries builds entries whose pivot distances lie on the integer
// grid [0,200) — where many cells tie on promise, so the prefix tie-break
// is exercised — with permutations derived from the distances like a real
// ingest would.
func intDistEntries(rng *rand.Rand, n, numPivots int) []Entry {
	entries := make([]Entry, 0, n)
	for i := range n {
		dists := make([]float64, numPivots)
		for j := range dists {
			dists[j] = float64(rng.IntN(200))
		}
		entries = append(entries, Entry{
			ID:    uint64(i + 1),
			Perm:  pivot.Permutation(dists),
			Dists: dists,
		})
	}
	return entries
}

func promiseTestQueries(rng *rand.Rand, n, numPivots int, integral bool) []ApproxQuery {
	queries := make([]ApproxQuery, 0, n)
	for range n {
		dists := make([]float64, numPivots)
		for j := range dists {
			if integral {
				dists[j] = float64(rng.IntN(200))
			} else {
				dists[j] = rng.Float64() * 200
			}
		}
		queries = append(queries, ApproxQuery{
			Ranks: pivot.Ranks(pivot.Permutation(dists)),
			Dists: dists,
		})
	}
	return queries
}

// TestPromiseIncrementalMatchesReference checks that every promise the
// traversal emits equals the from-scratch recomputation over the emitted
// cell's prefix, bit for bit, for both ranking strategies.
func TestPromiseIncrementalMatchesReference(t *testing.T) {
	for _, ranking := range []RankStrategy{RankFootrule, RankDistSum} {
		t.Run(ranking.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(42, uint64(ranking)))
			ix, err := New(Config{
				NumPivots: 12, MaxLevel: 5, BucketCapacity: 8,
				Storage: StorageMemory, Ranking: ranking,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for _, e := range intDistEntries(rng, 1200, 12) {
				if err := ix.InsertBulk([]Entry{e}); err != nil {
					t.Fatal(err)
				}
			}
			weights := pivot.FootruleWeights(5)
			for _, q := range promiseTestQueries(rng, 20, 12, false) {
				cands, err := ix.ApproxCandidatesRanked(q, 400)
				if err != nil {
					t.Fatal(err)
				}
				if len(cands) == 0 {
					t.Fatal("no candidates")
				}
				for _, c := range cands {
					var want float64
					if ranking == RankDistSum {
						want = pivot.DistSumPromise(q.Dists, c.Prefix, weights)
					} else {
						want = pivot.FootrulePromise(q.Ranks, c.Prefix, weights)
					}
					if math.Float64bits(c.Promise) != math.Float64bits(want) {
						t.Fatalf("prefix %v: promise %x, reference %x", c.Prefix, c.Promise, want)
					}
				}
			}
		})
	}
}
