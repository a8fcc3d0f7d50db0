package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/wire"
)

// threeBackends builds the same seeded collection behind all three
// Searcher implementations: an encrypted server + client, a plain server +
// client over the same pivots, and an in-process DirectClient over the
// same key and configuration.
func threeBackends(t *testing.T) (*EncryptedClient, *PlainClient, *DirectClient, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(2026, 900, 6, 7, metric.L2{})
	rng := rand.New(rand.NewPCG(2026, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	opts := Options{MaxLevel: testMaxLevel, StoreDists: true}

	encSrv, err := server.NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := encSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { encSrv.Close() })
	enc, err := DialEncrypted(encSrv.Addr(), key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { enc.Close() })

	plainSrv, err := server.NewPlain(cfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	if err := plainSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plainSrv.Close() })
	plain, err := DialPlain(plainSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })

	direct, err := NewDirect(cfg, key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })

	if _, err := enc.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	return enc, plain, direct, ds
}

// equivalenceQueries is the four-kind query matrix of the acceptance test.
func equivalenceQueries(ds *dataset.Dataset) []Query {
	rng := rand.New(rand.NewPCG(7, 2026))
	var qs []Query
	for range 4 {
		v := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		qs = append(qs,
			Query{Kind: KindRange, Vec: v, Radius: 6},
			Query{Kind: KindKNN, Vec: v, K: 10, CandSize: 80},
			Query{Kind: KindApproxKNN, Vec: v, K: 5, CandSize: 60},
			Query{Kind: KindFirstCell, Vec: v, K: 5},
		)
	}
	// A query vector that is not a member of the collection.
	qs = append(qs, Query{Kind: KindKNN, Vec: metric.Vector{1, 2, 3, 4, 5, 6}, K: 7, CandSize: 70})
	return qs
}

func diffResults(a, b []Result) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return fmt.Sprintf("position %d: (%d, %g) vs (%d, %g)", i, a[i].ID, a[i].Dist, b[i].ID, b[i].Dist)
		}
	}
	return ""
}

// TestSearcherBackendEquivalence: all three backends return identical
// result lists for the same seeded dataset across all four query kinds —
// the acceptance criterion of the unified Search API.
func TestSearcherBackendEquivalence(t *testing.T) {
	enc, plain, direct, ds := threeBackends(t)
	ctx := context.Background()
	for qi, q := range equivalenceQueries(ds) {
		want, _, err := enc.Search(ctx, q)
		if err != nil {
			t.Fatalf("query %d (%v): encrypted: %v", qi, q.Kind, err)
		}
		if q.Kind != KindRange && len(want) == 0 {
			t.Fatalf("query %d (%v): encrypted returned no results", qi, q.Kind)
		}
		gotPlain, _, err := plain.Search(ctx, q)
		if err != nil {
			t.Fatalf("query %d (%v): plain: %v", qi, q.Kind, err)
		}
		if d := diffResults(want, gotPlain); d != "" {
			t.Errorf("query %d (%v): plain differs from encrypted: %s", qi, q.Kind, d)
		}
		gotDirect, _, err := direct.Search(ctx, q)
		if err != nil {
			t.Fatalf("query %d (%v): direct: %v", qi, q.Kind, err)
		}
		if d := diffResults(want, gotDirect); d != "" {
			t.Errorf("query %d (%v): direct differs from encrypted: %s", qi, q.Kind, d)
		}
	}
}

// TestSearchBatchMatchesSearch: on every backend, a mixed-kind SearchBatch
// returns exactly what per-query Search calls return.
// TestPreciseKNNShipsEachCandidateOnce: with stored distances a precise
// k-NN ships the server's first CandSize entries in bound order, then —
// unless they settle the query — exactly the entries of R(q, ρk) the first
// page did not hold, in one more round trip. The expected count is derived
// here from the engine's own pages, for the networked and the in-process
// client alike.
func TestPreciseKNNShipsEachCandidateOnce(t *testing.T) {
	enc, _, direct, ds := threeBackends(t)
	key, eng := direct.Key(), direct.Engine()
	ctx := context.Background()
	settled := 0
	for qi := 0; qi < 40; qi++ {
		q := ds.Objects[qi*23%len(ds.Objects)].Vec
		tq := key.TransformDists(key.Pivots().Distances(q))
		for _, candSize := range []int{15, 60, 400} {
			const k = 8
			page1, err := eng.Search(mindex.Query{Kind: mindex.KindBound, ApproxQuery: mindex.ApproxQuery{Dists: tq}, CandSize: candSize})
			if err != nil {
				t.Fatal(err)
			}
			var dists []float64
			shipped := map[uint64]bool{}
			for _, rc := range page1 {
				o, err := key.DecryptObject(rc.Entry.Payload())
				if err != nil {
					t.Fatal(err)
				}
				dists = append(dists, key.Pivots().Dist.Dist(q, o.Vec))
				shipped[rc.Entry.ID] = true
			}
			slices.Sort(dists)
			want, trips := len(page1), int64(1)
			if rho := dists[k-1]; len(page1) == candSize && page1[len(page1)-1].Promise <= key.TransformRadius(rho) {
				rest, err := eng.Search(mindex.Query{Kind: mindex.KindRange, ApproxQuery: mindex.ApproxQuery{Dists: tq}, Radius: key.TransformRadius(rho)})
				if err != nil {
					t.Fatal(err)
				}
				for _, rc := range rest {
					if !shipped[rc.Entry.ID] {
						want++
					}
				}
				trips = 2
			} else {
				settled++
			}
			for _, backend := range []Searcher{enc, direct} {
				_, costs, err := backend.Search(ctx, Query{Kind: KindKNN, Vec: q, K: k, CandSize: candSize})
				if err != nil {
					t.Fatal(err)
				}
				if costs.Candidates != int64(want) || (backend == enc && costs.RoundTrips != trips) {
					t.Fatalf("query %d candSize %d (%T): shipped %d candidates in %d round trips, want %d in %d",
						qi, candSize, backend, costs.Candidates, costs.RoundTrips, want, trips)
				}
			}
		}
	}
	if settled == 0 {
		t.Fatal("no query was settled by its first page")
	}
}

func TestSearchBatchMatchesSearch(t *testing.T) {
	// Every pooled buffer is overwritten the moment it is released: a
	// candidate view that outlived its frame would corrupt an answer here
	// every time, not once in a while.
	wire.PoisonBuffers(t)
	enc, plain, direct, ds := threeBackends(t)
	ctx := context.Background()
	qs := equivalenceQueries(ds)
	for _, backend := range []struct {
		name string
		s    Searcher
	}{
		{"encrypted", enc}, {"plain", plain}, {"direct", direct},
	} {
		batched, _, err := backend.s.SearchBatch(ctx, qs)
		if err != nil {
			t.Fatalf("%s: SearchBatch: %v", backend.name, err)
		}
		if len(batched) != len(qs) {
			t.Fatalf("%s: %d batch results for %d queries", backend.name, len(batched), len(qs))
		}
		for qi, q := range qs {
			want, _, err := backend.s.Search(ctx, q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", backend.name, qi, err)
			}
			if d := diffResults(want, batched[qi]); d != "" {
				t.Errorf("%s: query %d (%v): batch differs from single: %s", backend.name, qi, q.Kind, d)
			}
		}
	}
}

// TestQueryValidation: malformed queries fail identically on every
// backend, before any IO.
func TestQueryValidation(t *testing.T) {
	enc, plain, direct, ds := threeBackends(t)
	ctx := context.Background()
	bad := []Query{
		{},                           // no kind, no vector
		{Kind: KindRange, Radius: 1}, // no vector
		{Kind: KindRange, Vec: ds.Objects[0].Vec, Radius: -1},
		{Kind: KindKNN, Vec: ds.Objects[0].Vec}, // k missing
		{Kind: KindApproxKNN, Vec: ds.Objects[0].Vec, K: 3, CandSize: -1},
		{Kind: KindApproxKNN, Vec: ds.Objects[0].Vec, K: 3, RefineLimit: -1},
		{Kind: KindKNN, Vec: ds.Objects[0].Vec, K: 3, RefineLimit: 5}, // breaks precision
		{Kind: QueryKind(99), Vec: ds.Objects[0].Vec, K: 3},
	}
	for i, q := range bad {
		for _, backend := range []struct {
			name string
			s    Searcher
		}{
			{"encrypted", enc}, {"plain", plain}, {"direct", direct},
		} {
			if _, _, err := backend.s.Search(ctx, q); err == nil {
				t.Errorf("%s: bad query %d accepted", backend.name, i)
			}
		}
	}
}

// TestFirstCellDistSum: the first-cell query works under the distance-sum
// ranking on every backend (regression: the request used to carry only a
// permutation, which a distance-sum promise function cannot rank — an
// index-out-of-range panic in-process and on the server).
func TestFirstCellDistSum(t *testing.T) {
	ds := dataset.Clustered(11, 600, 6, 6, metric.L2{})
	rng := rand.New(rand.NewPCG(11, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Ranking = mindex.RankDistSum
	opts := Options{MaxLevel: testMaxLevel, Ranking: mindex.RankDistSum, StoreDists: true}

	encSrv, err := server.NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := encSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { encSrv.Close() })
	enc, err := DialEncrypted(encSrv.Addr(), key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { enc.Close() })

	plainSrv, err := server.NewPlain(cfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	if err := plainSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plainSrv.Close() })
	plain, err := DialPlain(plainSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })

	direct, err := NewDirect(cfg, key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })

	for _, ins := range []func() error{
		func() error { _, err := enc.Insert(ds.Objects); return err },
		func() error { _, err := plain.Insert(ds.Objects); return err },
		func() error { _, err := direct.Insert(ds.Objects); return err },
	} {
		if err := ins(); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	q := Query{Kind: KindFirstCell, Vec: ds.Objects[42].Vec, K: 3}
	want, _, err := enc.Search(ctx, q)
	if err != nil {
		t.Fatalf("encrypted first-cell under distsum: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("encrypted first-cell under distsum returned nothing")
	}
	gotPlain, _, err := plain.Search(ctx, q)
	if err != nil {
		t.Fatalf("plain first-cell under distsum: %v", err)
	}
	if d := diffResults(want, gotPlain); d != "" {
		t.Errorf("plain differs from encrypted under distsum: %s", d)
	}
	gotDirect, _, err := direct.Search(ctx, q)
	if err != nil {
		t.Fatalf("direct first-cell under distsum: %v", err)
	}
	if d := diffResults(want, gotDirect); d != "" {
		t.Errorf("direct differs from encrypted under distsum: %s", d)
	}
}

// TestDirectRejectsRankingMismatch: options whose ranking disagrees with
// the engine's fail at construction, naming both rankings, instead of
// failing every approximate query later.
func TestDirectRejectsRankingMismatch(t *testing.T) {
	key, _ := testKey(t)
	for _, engRanking := range []mindex.RankStrategy{mindex.RankFootrule, mindex.RankDistSum} {
		cfg := testConfig()
		cfg.Ranking = engRanking
		optRanking := mindex.RankDistSum
		if engRanking == mindex.RankDistSum {
			optRanking = 0 // the default, footrule
		}
		_, err := NewDirect(cfg, key, Options{MaxLevel: testMaxLevel, Ranking: optRanking, StoreDists: true})
		if err == nil {
			t.Fatalf("engine ranking %v: mismatched Options.Ranking accepted", engRanking)
		}
		if msg := err.Error(); !strings.Contains(msg, "footrule") || !strings.Contains(msg, "distsum") {
			t.Fatalf("engine ranking %v: error does not name both rankings: %v", engRanking, err)
		}
	}
}

// TestPlainDeleteParity: the plain deployment supports deletion like the
// encrypted one, so baseline-vs-encrypted experiments can mutate like for
// like; post-delete answers stay identical across backends.
func TestPlainDeleteParity(t *testing.T) {
	enc, plain, direct, ds := threeBackends(t)
	ctx := context.Background()
	victims := ds.Objects[100:200]

	encDel, _, err := enc.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	plainDel, _, err := plain.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	directDel, _, err := direct.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	if encDel != len(victims) || plainDel != encDel || directDel != encDel {
		t.Fatalf("deleted counts diverge: encrypted %d, plain %d, direct %d (want %d)",
			encDel, plainDel, directDel, len(victims))
	}
	// Deleting again is a no-op everywhere.
	if n, _, err := plain.Delete(victims[:10]); err != nil || n != 0 {
		t.Fatalf("plain re-delete: n=%d err=%v", n, err)
	}

	q := Query{Kind: KindKNN, Vec: victims[3].Vec, K: 8, CandSize: 80}
	want, _, err := enc.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if r.ID >= victims[0].ID && r.ID <= victims[len(victims)-1].ID {
			t.Fatalf("deleted object %d still in encrypted answer", r.ID)
		}
	}
	gotPlain, _, err := plain.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(want, gotPlain); d != "" {
		t.Errorf("post-delete: plain differs from encrypted: %s", d)
	}
	gotDirect, _, err := direct.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(want, gotDirect); d != "" {
		t.Errorf("post-delete: direct differs from encrypted: %s", d)
	}
}
