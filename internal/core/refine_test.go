package core

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

// refineFixture is a coder over CoPhIR-shaped data (280 dimensions, the
// paper's image descriptors) with n encrypted candidates to refine.
func refineFixture(t testing.TB, mode secret.Mode, n int) (*coder, metric.Vector, rankedCands, []metric.Object) {
	t.Helper()
	ds := dataset.CoPhIR(n + 1)
	rng := rand.New(rand.NewPCG(15, 280))
	key, err := secret.Generate(pivot.SelectRandom(rng, ds.Dist, ds.Objects, 8), mode)
	if err != nil {
		t.Fatal(err)
	}
	objs := ds.Objects[1:]
	cands := make(rankedCands, len(objs))
	for i, o := range objs {
		payload, err := key.EncryptObject(o)
		if err != nil {
			t.Fatal(err)
		}
		cands[i] = mindex.RankedCandidate{Entry: mindex.ViewOf(mindex.Entry{ID: o.ID, Payload: payload})}
	}
	return &coder{key: key}, ds.Objects[0].Vec, cands, objs
}

// bruteForce is the refinement the paper describes, one object at a time:
// decrypt everything, compute every distance, sort, cut.
func bruteForce(c *coder, q metric.Vector, objs []metric.Object, limit, k int, radius float64) []Result {
	if limit > 0 && limit < len(objs) {
		objs = objs[:limit]
	}
	var out []Result
	for _, o := range objs {
		d := c.key.Pivots().Dist.Dist(q, o.Vec)
		if k > 0 || d <= radius {
			out = append(out, Result{ID: o.ID, Dist: d, Object: o})
		}
	}
	slices.SortFunc(out, compareResults)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestRefineMatchesBruteForce: the chunked, scratch-decoding, top-k
// refinement returns what decrypt-all / sort / cut returns — for both
// ciphers, every shape of (limit, k, radius), candidate counts on both sides
// of a chunk boundary — owns the vectors it returns, and charges the costs
// the paper's tables count.
func TestRefineMatchesBruteForce(t *testing.T) {
	for _, mode := range []secret.Mode{secret.ModeCTRHMAC, secret.ModeGCM} {
		c, q, cands, objs := refineFixture(t, mode, 3*refineChunk+5)
		far := c.key.Pivots().Dist.Dist(q, objs[len(objs)/2].Vec)
		for _, n := range []int{0, 1, refineChunk - 1, refineChunk, refineChunk + 1, len(cands)} {
			for _, tc := range []struct {
				name     string
				limit, k int
				radius   float64
			}{
				{"top-10", 0, 10, 0},
				{"top-1", 0, 1, 0},
				{"top-more-than-there-are", 0, 1000, 0},
				{"top-10-of-first-40", 40, 10, 0},
				{"range", 0, 0, far},
				{"range-nothing", 0, 0, -1},
				{"range-everything", 0, 0, maxRadius},
			} {
				var costs stats.Costs
				got, err := c.refine(q, cands[:n], tc.limit, tc.k, tc.radius, &costs)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForce(c, q, objs[:n], tc.limit, tc.k, tc.radius)
				if len(got) != len(want) {
					t.Fatalf("%v n=%d %s: %d results, want %d", mode, n, tc.name, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist ||
						got[i].Object.ID != want[i].ID || !slices.Equal(got[i].Object.Vec, want[i].Object.Vec) {
						t.Fatalf("%v n=%d %s: result %d is object %d at %g, want %d at %g",
							mode, n, tc.name, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
					}
				}
				refined := n
				if tc.limit > 0 {
					refined = min(n, tc.limit)
				}
				if costs.Candidates != int64(n) || costs.DistComps != int64(refined) {
					t.Fatalf("%v n=%d %s: %d candidates / %d distance computations charged, want %d / %d",
						mode, n, tc.name, costs.Candidates, costs.DistComps, n, refined)
				}
				// The next refinement reuses the scratch; the results above
				// must not change under it.
				if _, err := c.refine(q, cands, 0, 7, 0, new(stats.Costs)); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !slices.Equal(got[i].Object.Vec, want[i].Object.Vec) {
						t.Fatalf("%v n=%d %s: result %d's vector changed under a later refinement", mode, n, tc.name, i)
					}
				}
			}
		}
	}
}

// TestRefineAllocs: refining allocates for the answer — the result slice
// and one vector per survivor — plus a small constant, and one cipher
// stream per candidate that crypto/cipher offers no way to reuse (see
// below); ten times the candidates must not cost one allocation more than
// that.
func TestRefineAllocs(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of what is put into
	// it, on purpose; the scratch this test counts on being recycled is not.
	var pool sync.Pool
	pool.New = func() any { return new([64]byte) }
	if testing.AllocsPerRun(10, func() {
		for range 100 {
			pool.Put(pool.Get())
		}
	}) > 0 {
		t.Skip("sync.Pool does not recycle in this build (-race); allocation counts mean nothing")
	}
	const k = 10
	// Per call: the []Result, k vectors, the candidates interface value,
	// and slack for a pool refill after a GC.
	const fixed = k + 6
	for _, tc := range []struct {
		mode         secret.Mode
		perCandidate int
	}{
		// AES-CTR: cipher.NewCTR copies the expanded key into a fresh
		// 512-byte stream object per ciphertext and exposes neither a reset
		// nor a seek. Counter mode over Block.Encrypt, block by block, is
		// allocation-free and three times slower (1.5 µs against 0.46 µs
		// per 1.1 KB candidate) — the allocation is the cheaper of the two.
		{secret.ModeCTRHMAC, 1},
		{secret.ModeGCM, 0},
	} {
		c, q, cands, _ := refineFixture(t, tc.mode, 400)
		for _, n := range []int{40, 400} {
			run := func() {
				if _, err := c.refine(q, cands[:n], 0, k, 0, new(stats.Costs)); err != nil {
					t.Fatal(err)
				}
			}
			run() // size the scratch once
			ceiling := float64(fixed + tc.perCandidate*n)
			if got := testing.AllocsPerRun(20, run); got > ceiling {
				t.Errorf("%v, %d candidates: %.1f allocs per refinement, want <= %.0f", tc.mode, n, got, ceiling)
			}
		}
	}
}

// BenchmarkRefine: 400 AES-CTR + HMAC candidates of 280 dimensions refined
// to the 10 nearest — the client-side half of the benchmark's chain_refine
// query.
func BenchmarkRefine(b *testing.B) {
	c, q, cands, _ := refineFixture(b, secret.ModeCTRHMAC, 400)
	var costs stats.Costs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.refine(q, cands, 0, 10, 0, &costs); err != nil {
			b.Fatal(err)
		}
	}
}
