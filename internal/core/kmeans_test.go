package core

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/engine"
	"simcloud/internal/kmeans"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
)

// kmeansBackend trains centroids on the collection, folds them into a
// secret key, and loads a k-means DirectClient over the data — the family
// built the way a client deployment would build it.
func kmeansBackend(t *testing.T, ds *dataset.Dataset, k int, insert bool) (*DirectClient, *kmeans.Model) {
	t.Helper()
	m, err := kmeans.Train(kmeans.TrainConfig{K: k, Seed: 2026, Dist: ds.Dist}, ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	key, err := secret.Generate(m.PivotSet(), secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewKMeansDirect(kmeans.Config{NumCentroids: k, Storage: mindex.StorageMemory}, key, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if insert {
		if _, err := c.Insert(ds.Objects); err != nil {
			t.Fatal(err)
		}
	}
	return c, m
}

// TestKMeansExactMatchesBruteForce: the family's precise kinds — range and
// two-phase k-NN — return exactly the brute-force answer, the equivalence
// criterion every exact backend meets.
func TestKMeansExactMatchesBruteForce(t *testing.T) {
	ds := dataset.Clustered(2027, 900, 6, 7, metric.L2{})
	c, _ := kmeansBackend(t, ds, 12, true)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 2027))
	for qi := 0; qi < 12; qi++ {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec

		got, _, err := c.Search(ctx, Query{Kind: KindRange, Vec: q, Radius: 5})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]float64)
		for _, o := range ds.Objects {
			if d := ds.Dist.Dist(q, o.Vec); d <= 5 {
				want[o.ID] = d
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: range returned %d results, brute force %d", qi, len(got), len(want))
		}
		for _, r := range got {
			if d, ok := want[r.ID]; !ok || d != r.Dist {
				t.Fatalf("query %d: range result (%d, %g) not in brute force", qi, r.ID, r.Dist)
			}
		}

		knn, _, err := c.Search(ctx, Query{Kind: KindKNN, Vec: q, K: 10, CandSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		truth := bruteKNN(ds, q, 10)
		if d := diffResults(truth, knn); d != "" {
			t.Fatalf("query %d: precise k-NN differs from brute force: %s", qi, d)
		}
	}
	// Out-of-collection query vector.
	q := metric.Vector{0.5, -1, 2, 0, 1, -0.5}
	knn, _, err := c.Search(ctx, Query{Kind: KindKNN, Vec: q, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(bruteKNN(ds, q, 7), knn); d != "" {
		t.Fatalf("out-of-collection k-NN differs from brute force: %s", d)
	}
}

// TestKMeansAgreesWithMIndexBackend: both index families answer the exact
// kinds identically — different routing, same metric truth.
func TestKMeansAgreesWithMIndexBackend(t *testing.T) {
	ds := dataset.Clustered(2028, 700, 6, 6, metric.L2{})
	km, _ := kmeansBackend(t, ds, 10, true)

	rng := rand.New(rand.NewPCG(2028, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewDirect(testConfig(), key, Options{MaxLevel: testMaxLevel, StoreDists: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	if _, err := direct.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for qi := 0; qi < 8; qi++ {
		q := ds.Objects[qi*80].Vec
		for _, query := range []Query{
			{Kind: KindRange, Vec: q, Radius: 6},
			{Kind: KindKNN, Vec: q, K: 9, CandSize: 70},
		} {
			want, _, err := direct.Search(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := km.Search(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(want, got); d != "" {
				t.Fatalf("query %d (%v): kmeans differs from M-Index: %s", qi, query.Kind, d)
			}
		}
	}
}

// TestKMeansBatchAndApproxShape: SearchBatch matches Search on every kind;
// the approximate kinds return at most K refined results.
func TestKMeansBatchAndApproxShape(t *testing.T) {
	ds := dataset.Clustered(2029, 500, 6, 5, metric.L2{})
	c, _ := kmeansBackend(t, ds, 8, true)
	ctx := context.Background()
	qs := []Query{
		{Kind: KindRange, Vec: ds.Objects[3].Vec, Radius: 4},
		{Kind: KindKNN, Vec: ds.Objects[50].Vec, K: 6, CandSize: 50},
		{Kind: KindApproxKNN, Vec: ds.Objects[100].Vec, K: 5, CandSize: 40},
		{Kind: KindApproxKNN, Vec: ds.Objects[150].Vec, K: 5, CandSize: 40, RefineLimit: 20},
		{Kind: KindFirstCell, Vec: ds.Objects[200].Vec, K: 4},
	}
	batched, _, err := c.SearchBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(qs) {
		t.Fatalf("%d batch results for %d queries", len(batched), len(qs))
	}
	for qi, q := range qs {
		want, _, err := c.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(want, batched[qi]); d != "" {
			t.Fatalf("query %d (%v): batch differs from single: %s", qi, q.Kind, d)
		}
		if q.Kind != KindRange && len(want) > q.K {
			t.Fatalf("query %d returned %d results for K=%d", qi, len(want), q.K)
		}
		if q.Kind != KindRange && len(want) == 0 {
			t.Fatalf("query %d (%v) returned nothing", qi, q.Kind)
		}
	}
}

// TestKMeansRecallCurveDeterministic: recall against exact truth is a
// deterministic, non-decreasing function of the candidate budget, reaching
// 1.0 when the budget covers the collection.
func TestKMeansRecallCurveDeterministic(t *testing.T) {
	ds := dataset.Clustered(2030, 800, 8, 9, metric.L2{})
	c, _ := kmeansBackend(t, ds, 12, true)
	ctx := context.Background()
	const k = 10
	budgets := []int{k, 40, 120, 300, len(ds.Objects)}
	curve := func() []float64 {
		out := make([]float64, len(budgets))
		for bi, cand := range budgets {
			var recall float64
			for qi := 0; qi < 20; qi++ {
				q := ds.Objects[qi*37].Vec
				truth, _, err := c.Search(ctx, Query{Kind: KindKNN, Vec: q, K: k})
				if err != nil {
					t.Fatal(err)
				}
				ids := make(map[uint64]struct{}, k)
				for _, r := range truth {
					ids[r.ID] = struct{}{}
				}
				approx, _, err := c.Search(ctx, Query{Kind: KindApproxKNN, Vec: q, K: k, CandSize: cand})
				if err != nil {
					t.Fatal(err)
				}
				hit := 0
				for _, r := range approx {
					if _, ok := ids[r.ID]; ok {
						hit++
					}
				}
				recall += float64(hit) / float64(k)
			}
			out[bi] = recall / 20
		}
		return out
	}
	a := curve()
	b := curve()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recall curve not deterministic at budget %d: %g vs %g", budgets[i], a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("recall decreased with budget: %g at %d after %g at %d", a[i], budgets[i], a[i-1], budgets[i-1])
		}
	}
	if a[len(a)-1] != 1 {
		t.Fatalf("full-collection budget recall = %g, want 1", a[len(a)-1])
	}
	if a[0] >= a[len(a)-2] && a[0] == 1 {
		t.Fatal("curve is flat at 1 — the ablation would show nothing")
	}
}

// TestKMeansDeleteHides: deleted objects vanish from every query kind and
// the family's delete reporting matches the other backends' semantics.
func TestKMeansDeleteHides(t *testing.T) {
	ds := dataset.Clustered(2031, 400, 6, 4, metric.L2{})
	c, _ := kmeansBackend(t, ds, 6, true)
	ctx := context.Background()
	victims := ds.Objects[40:80]
	n, _, err := c.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(victims) {
		t.Fatalf("deleted %d, want %d", n, len(victims))
	}
	if n, _, err := c.Delete(victims[:5]); err != nil || n != 0 {
		t.Fatalf("re-delete: n=%d err=%v", n, err)
	}
	gone := make(map[uint64]struct{})
	for _, v := range victims {
		gone[v.ID] = struct{}{}
	}
	for _, q := range []Query{
		{Kind: KindRange, Vec: victims[0].Vec, Radius: 8},
		{Kind: KindKNN, Vec: victims[1].Vec, K: 10},
		{Kind: KindApproxKNN, Vec: victims[2].Vec, K: 10, CandSize: 200},
		{Kind: KindFirstCell, Vec: victims[3].Vec, K: 10},
	} {
		res, _, err := c.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if _, dead := gone[r.ID]; dead {
				t.Fatalf("%v: deleted object %d still answered", q.Kind, r.ID)
			}
		}
	}
}

// TestKMeansTargetRecallValidation: the TargetRecall contract is enforced
// uniformly at normalization time.
func TestKMeansTargetRecallValidation(t *testing.T) {
	ds := dataset.Clustered(2032, 200, 6, 3, metric.L2{})
	c, _ := kmeansBackend(t, ds, 4, true)
	ctx := context.Background()
	v := ds.Objects[0].Vec
	bad := []Query{
		{Kind: KindApproxKNN, Vec: v, K: 5, TargetRecall: 1.2},
		{Kind: KindApproxKNN, Vec: v, K: 5, TargetRecall: -0.5},
		{Kind: KindApproxKNN, Vec: v, K: 5, TargetRecall: 1},
		{Kind: KindApproxKNN, Vec: v, K: 5, TargetRecall: 0.9, CandSize: 50},
		{Kind: KindRange, Vec: v, Radius: 2, TargetRecall: 0.9},
		{Kind: KindFirstCell, Vec: v, K: 5, TargetRecall: 0.9},
	}
	for i, q := range bad {
		if _, _, err := c.Search(ctx, q); !IsQueryError(err) {
			t.Errorf("bad TargetRecall query %d: err = %v, want a query error", i, err)
		}
	}
	// Without a predictor, a valid TargetRecall degrades to the default
	// candidate size instead of failing.
	res, _, err := c.Search(ctx, Query{Kind: KindApproxKNN, Vec: v, K: 5, TargetRecall: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("predictor-less TargetRecall query returned %d results", len(res))
	}
	if _, _, err := c.Search(ctx, Query{Kind: KindKNN, Vec: v, K: 5, TargetRecall: 0.9}); err != nil {
		t.Fatalf("TargetRecall on precise k-NN: %v", err)
	}
}

// TestKMeansCollectStats: the unified stats facade reports the family's
// engine like any other: one inner node (the root) over one leaf per cell.
func TestKMeansCollectStats(t *testing.T) {
	ds := dataset.Clustered(2033, 300, 6, 4, metric.L2{})
	c, _ := kmeansBackend(t, ds, 6, true)
	st := CollectStats(c)
	if st.Engine.Shards != 1 || st.Engine.Live != 300 || st.Engine.Dead != 0 {
		t.Fatalf("engine stats = %+v", st.Engine)
	}
	if st.Tree.Leaves != 6 || st.Tree.InnerNodes != 1 || st.Tree.MaxDepth != 1 || st.Tree.TotalBucket != 300 {
		t.Fatalf("tree stats = %+v", st.Tree)
	}
	if st.Ingest.Entries != 300 || st.Ingest.Bytes == 0 {
		t.Fatalf("ingest stats = %+v", st.Ingest)
	}
	if _, _, err := c.Delete(ds.Objects[:10]); err != nil {
		t.Fatal(err)
	}
	st = CollectStats(c)
	if st.Engine.Live != 290 || st.Engine.Dead != 10 {
		t.Fatalf("post-delete engine stats = %+v", st.Engine)
	}
}

// TestKMeansWrongKeyRejected: a key whose pivot count disagrees with the
// cell count fails fast.
func TestKMeansWrongKeyRejected(t *testing.T) {
	ds := dataset.Clustered(2034, 100, 6, 3, metric.L2{})
	m, err := kmeans.Train(kmeans.TrainConfig{K: 5, Seed: 1, Dist: ds.Dist}, ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	key, err := secret.Generate(m.PivotSet(), secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKMeansDirect(kmeans.Config{NumCentroids: 7, Storage: mindex.StorageMemory}, key, Options{}); err == nil {
		t.Fatal("pivot/cell count mismatch accepted")
	}
}

// TestKMeansSnapshotRoundTripThroughBackend: snapshot the family's engine,
// wrap the restored engine in a new client, and get identical exact answers.
func TestKMeansSnapshotRoundTripThroughBackend(t *testing.T) {
	ds := dataset.Clustered(2035, 300, 6, 4, metric.L2{})
	m, err := kmeans.Train(kmeans.TrainConfig{K: 6, Seed: 2026, Dist: ds.Dist}, ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	key, err := secret.Generate(m.PivotSet(), secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := kmeans.Config{NumCentroids: 6, Storage: mindex.StorageDisk, DiskPath: dir + "/cells"}
	c, err := NewKMeansDirect(cfg, key, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Kind: KindKNN, Vec: ds.Objects[123].Vec, K: 8}
	want, _, err := c.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	snap := dir + "/kmeans.snap"
	if err := c.Engine().SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err := engine.LoadSnapshot(cfg.IndexConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	// The key carries the centroids (its pivot set) across the restart; it
	// is persisted client-side (regenerating it could never decrypt the
	// stored payloads), so the restored client reuses it.
	c2, err := NewKMeansDirectWithEngine(eng, key, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	got, _, err := c2.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("restored backend differs: %s", d)
	}
}

// predictorWorkload is the multi-density collection of the predictor
// acceptance test: a clustered core plus a uniform sparse background. The
// two populations need very different candidate budgets — a cluster query
// finds its neighbors inside its own tight cell, a background query's
// neighbors scatter across many near-tied cells — and the nearest-centroid
// distance d1 separates them, so the workload carries the signal the
// predictor is built to learn.
func predictorWorkload() *dataset.Dataset {
	ds := dataset.Clustered(2036, 1800, 8, 14, metric.L2{})
	rng := rand.New(rand.NewPCG(2036, 0xBA5E))
	objs := append([]metric.Object(nil), ds.Objects...)
	for i := 0; i < 400; i++ {
		v := make(metric.Vector, ds.Dim)
		for j := range v {
			v[j] = float32(rng.Float64()*56 - 28)
		}
		objs = append(objs, metric.Object{ID: uint64(len(ds.Objects) + i), Vec: v})
	}
	return &dataset.Dataset{Name: "mixed-density", Objects: objs, Dim: ds.Dim, Dist: ds.Dist}
}

// kmeansEvalProfile is one held-out query's ground-truth coverage profile,
// shared by the predictor acceptance test below.
type kmeansEvalProfile struct {
	d1   float64
	need []int
}

func kmeansProfiles(t *testing.T, c *DirectClient, queries []metric.Object, k int) []kmeansEvalProfile {
	t.Helper()
	ctx := context.Background()
	out := make([]kmeansEvalProfile, 0, len(queries))
	for _, q := range queries {
		truthRes, _, err := c.Search(ctx, Query{Kind: KindKNN, Vec: q.Vec, K: k})
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[uint64]struct{}, k)
		for _, r := range truthRes {
			truth[r.ID] = struct{}{}
		}
		qDists := c.Key().Pivots().Distances(q.Vec)
		tDists := c.Key().TransformDists(qDists)
		stream, err := c.rankedCandidates(c.wireQuery(Query{Kind: KindApproxKNN, CandSize: c.Engine().Size()}, qDists))
		if err != nil {
			t.Fatal(err)
		}
		need := make([]int, k)
		for j := range need {
			need[j] = math.MaxInt
		}
		covered := 0
		for pos, rc := range stream {
			if _, hit := truth[rc.Entry.ID]; hit {
				need[covered] = pos + 1
				covered++
				if covered == k {
					break
				}
			}
		}
		d1 := math.Inf(1)
		for _, d := range tDists {
			if d < d1 {
				d1 = d
			}
		}
		out = append(out, kmeansEvalProfile{d1: d1, need: need})
	}
	return out
}

func recallAt(p kmeansEvalProfile, cand, k int) float64 {
	covered := 0
	for j := k - 1; j >= 0; j-- {
		if p.need[j] <= cand {
			covered = j + 1
			break
		}
	}
	return float64(covered) / float64(k)
}

// TestKMeansPredictorBeatsGlobalCandSize: the acceptance criterion of the
// learned predictor — calibrated on one query sample and evaluated on a
// held-out one, it reaches the target recall within two points while
// spending fewer candidates on average than the best global constant that
// reaches the same recall.
func TestKMeansPredictorBeatsGlobalCandSize(t *testing.T) {
	ds := predictorWorkload()
	queries, rest := dataset.SampleQueries(ds, 200, 77, true)
	indexed := &dataset.Dataset{Name: ds.Name, Objects: rest, Dim: ds.Dim, Dist: ds.Dist}
	c, _ := kmeansBackend(t, indexed, 16, true)
	ctx := context.Background()
	const k = 10
	const target = 0.9

	calQ := make([]metric.Vector, 0, 100)
	for _, q := range queries[:100] {
		calQ = append(calQ, q.Vec)
	}
	pred, err := c.Calibrate(ctx, calQ, k, []float64{0.8, target, 0.95}, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPredictor(pred)

	holdout := kmeansProfiles(t, c, queries[100:], k)

	// Predictor performance on the held-out queries.
	var predRecall, predCand float64
	for _, p := range holdout {
		cand := pred.CandSize(target, p.d1)
		predRecall += recallAt(p, cand, k)
		predCand += float64(cand)
	}
	predRecall /= float64(len(holdout))
	predCand /= float64(len(holdout))
	if predRecall < target-0.02 {
		t.Fatalf("predictor recall %.3f misses target %.2f by more than 2 points", predRecall, target)
	}

	// Best global constant on the same held-out queries: the smallest
	// candidate budget whose mean recall reaches the same bar.
	cands := []int{}
	for _, p := range holdout {
		for _, n := range p.need {
			if n != math.MaxInt {
				cands = append(cands, n)
			}
		}
	}
	sort.Ints(cands)
	bestGlobal := cands[len(cands)-1]
	for _, cand := range cands {
		var recall float64
		for _, p := range holdout {
			recall += recallAt(p, cand, k)
		}
		if recall/float64(len(holdout)) >= predRecall {
			bestGlobal = cand
			break
		}
	}
	if predCand >= float64(bestGlobal) {
		t.Fatalf("predictor spends %.1f mean candidates, best global constant %d — no win", predCand, bestGlobal)
	}
	t.Logf("predictor: recall %.3f at %.1f mean candidates; best global: %d candidates", predRecall, predCand, bestGlobal)

	// The live query path resolves TargetRecall through the installed
	// predictor: the candidate cost of one query equals its prediction.
	q := queries[150]
	tDists := c.Key().TransformDists(c.Key().Pivots().Distances(q.Vec))
	d1 := math.Inf(1)
	for _, d := range tDists {
		if d < d1 {
			d1 = d
		}
	}
	wantCand := int64(pred.CandSize(target, d1))
	_, costs, err := c.Search(ctx, Query{Kind: KindApproxKNN, Vec: q.Vec, K: k, TargetRecall: target})
	if err != nil {
		t.Fatal(err)
	}
	if costs.Candidates != wantCand {
		t.Fatalf("TargetRecall query transferred %d candidates, predictor says %d", costs.Candidates, wantCand)
	}
}
