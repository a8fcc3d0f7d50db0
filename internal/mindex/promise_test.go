package mindex

import (
	"math"
	"math/rand/v2"
	"testing"

	"simcloud/internal/pivot"
)

// The approximate traversal computes cell promises incrementally (one
// weighted term per tree level) and, under Config.QuantizedPromise, as
// scaled integers. Both paths claim bit-for-bit identity with the
// from-scratch pivot.FootrulePromise/DistSumPromise reference — these tests
// enforce the claim on the emitted candidate streams.

// intDistEntries builds entries whose pivot distances lie on the integer
// grid [0,200) — the regime where the distance-sum fixed-point path
// qualifies — with permutations derived from the distances like a real
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
				if err := ix.Insert(e); err != nil {
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

// TestQuantizedPromiseEquivalence runs the same data and queries through a
// float-promise index and a quantized-promise index and requires the full
// ranked candidate streams — IDs, order, promises, prefixes — to be
// identical. Integral distance-sum queries take the fixed-point path;
// fractional ones exercise the per-query fallback, which must also be
// invisible in the results.
func TestQuantizedPromiseEquivalence(t *testing.T) {
	for _, ranking := range []RankStrategy{RankFootrule, RankDistSum} {
		for _, integral := range []bool{true, false} {
			name := ranking.String()
			if integral {
				name += "/integral"
			} else {
				name += "/fractional"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(7, uint64(ranking)))
				entries := intDistEntries(rng, 1500, 10)
				cfg := Config{
					NumPivots: 10, MaxLevel: 4, BucketCapacity: 10,
					Storage: StorageMemory, Ranking: ranking,
				}
				base, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer base.Close()
				qcfg := cfg
				qcfg.QuantizedPromise = true
				quant, err := New(qcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer quant.Close()
				if err := base.InsertBulk(entries); err != nil {
					t.Fatal(err)
				}
				if err := quant.InsertBulk(entries); err != nil {
					t.Fatal(err)
				}
				for qi, q := range promiseTestQueries(rng, 25, 10, integral) {
					want, err := base.ApproxCandidatesRanked(q, 500)
					if err != nil {
						t.Fatal(err)
					}
					got, err := quant.ApproxCandidatesRanked(q, 500)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("query %d: %d candidates vs %d", qi, len(got), len(want))
					}
					for i := range got {
						if got[i].Entry.ID != want[i].Entry.ID ||
							math.Float64bits(got[i].Promise) != math.Float64bits(want[i].Promise) {
							t.Fatalf("query %d cand %d: got (%d, %x), want (%d, %x)",
								qi, i, got[i].Entry.ID, got[i].Promise, want[i].Entry.ID, want[i].Promise)
						}
					}
					we, err := base.Search(Query{Kind: KindFirstCell, ApproxQuery: q})
					if err != nil {
						t.Fatal(err)
					}
					ge, err := quant.Search(Query{Kind: KindFirstCell, ApproxQuery: q})
					if err != nil {
						t.Fatal(err)
					}
					if len(ge) != len(we) || (len(ge) > 0 &&
						math.Float64bits(ge[0].Promise) != math.Float64bits(we[0].Promise)) {
						t.Fatalf("query %d first cell: got %d entries, want %d (first: %+v vs %+v)",
							qi, len(ge), len(we), ge[:min(1, len(ge))], we[:min(1, len(we))])
					}
				}
			})
		}
	}
}
