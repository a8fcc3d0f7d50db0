package bench

import (
	"context"
	"fmt"
	"math/rand/v2"

	"simcloud/internal/baseline"
	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/kmeans"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

// The routing-family ablation: the same workload, ground truth and
// candidate-size sweep measured across both index families (M-Index pivot
// permutations and k-means centroid cells) with the EHI and FDH baselines
// as brackets — EHI's exact best-first traversal bounds recall from above,
// FDH's Hamming-ball hashing from below. The k-means side additionally
// reports its learned candidate-size predictor against the best global
// constant (the smallest one matching the predictor's achieved recall).

// AblationSpec describes one ablation workload: the collection, the number
// of routing anchors K (pivots for the M-Index, centroids for k-means — the
// same count, so the families spend the same routing metadata), the
// candidate-size sweep and the predictor's target recall.
type AblationSpec struct {
	Name         string
	K            int
	CandSizes    []int
	TargetRecall float64
	Cfg          mindex.Config
	Load         func(o Options) *dataset.Dataset
}

// mixedClustered is the ablation's clustered workload: the generic
// clustered collection plus a uniform sparse background. The two
// populations need very different candidate budgets (cluster queries
// resolve inside one tight cell, background queries scatter across many
// near-tied cells), which is the variance a per-query predictor exists to
// exploit — a single-density collection would hide the difference between
// a learned allocation and a well-tuned constant.
func mixedClustered() *dataset.Dataset {
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
	return &dataset.Dataset{Name: "clustered", Objects: objs, Dim: ds.Dim, Dist: ds.Dist}
}

// AblationSpecs returns the two ablation workloads: the mixed-density
// clustered collection under L2 and the embedding-shaped collection under
// the cosine distance.
func AblationSpecs() []AblationSpec {
	return []AblationSpec{
		{
			Name: "clustered", K: 16,
			CandSizes:    []int{60, 120, 240, 480},
			TargetRecall: 0.9,
			Cfg: mindex.Config{
				NumPivots: 16, MaxLevel: 4, BucketCapacity: 200,
				Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
			},
			Load: func(Options) *dataset.Dataset { return mixedClustered() },
		},
		{
			Name: "embed768", K: 24,
			CandSizes:    []int{30, 60, 120, 240},
			TargetRecall: 0.9,
			Cfg: mindex.Config{
				NumPivots: 24, MaxLevel: 4, BucketCapacity: 200,
				Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
			},
			Load: func(Options) *dataset.Dataset { return dataset.Embed768(1500) },
		},
	}
}

// AblationSpecByName returns the named ablation workload.
func AblationSpecByName(name string) (AblationSpec, error) {
	for _, s := range AblationSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return AblationSpec{}, fmt.Errorf("bench: unknown ablation data set %q", name)
}

// AblationResult holds one workload's measured recall curves (percent, per
// CandSizes entry) and the predictor summary. Slices are nil for families
// excluded by the backend filter.
type AblationResult struct {
	Spec   AblationSpec
	K      int // neighbors per query
	MIndex []float64
	KMeans []float64
	FDH    []float64
	// FDHCand is FDH's measured mean candidate count per sweep entry: the
	// Hamming-ball buckets are fetched whole, so small targets overshoot
	// and the measured count, not the target, is the comparable budget.
	FDHCand []float64
	// EHI traverses exactly; its recall and mean candidate count are
	// budget-free scalars.
	EHIRecall float64
	EHICand   float64
	// Predictor summary (kmeans family only): achieved recall and mean
	// candidate count on the evaluation queries at Spec.TargetRecall, and
	// the smallest global constant matching that recall on the same queries.
	PredRecall float64
	PredCand   float64
	BestGlobal int
}

// Ablation measures one workload. backend filters the index families:
// "all", "mindex" or "kmeans". The EHI/FDH brackets always run — a curve
// without its bounds is not an ablation.
func Ablation(o Options, spec AblationSpec, backend string) (*AblationResult, error) {
	o = o.withDefaults()
	if backend != "all" && backend != "mindex" && backend != "kmeans" {
		return nil, fmt.Errorf("bench: unknown ablation backend %q (have all, mindex, kmeans)", backend)
	}
	ds := spec.Load(o)
	// One draw, two disjoint halves, both excluded from the index: the
	// first evaluates every sweep, the second calibrates the predictor (a
	// calibration query must not be indexed, or its zero-distance self-match
	// skews the fitted profile).
	sampled, indexed := dataset.SampleQueries(ds, 2*o.Queries, o.Seed, true)
	queries, calObjs := sampled[:len(sampled)/2], sampled[len(sampled)/2:]
	o.logf("ablation %s: ground truth for %d queries (k=%d)...", spec.Name, len(queries), o.K)
	exact := GroundTruth(ds, indexed, queries, o.K)
	res := &AblationResult{Spec: spec, K: o.K}

	// sweep averages recall (percent) over the evaluation queries.
	sweep := func(search func(q metric.Vector) ([]core.Result, stats.Costs, error)) (float64, float64, error) {
		var recall, cand float64
		for qi, q := range queries {
			rs, costs, err := search(q.Vec)
			if err != nil {
				return 0, 0, fmt.Errorf("query %d: %w", qi, err)
			}
			ids := make([]uint64, len(rs))
			for i, r := range rs {
				ids[i] = r.ID
			}
			recall += stats.Recall(ids, exact[qi])
			cand += float64(costs.Candidates)
		}
		n := float64(len(queries))
		return recall / n, cand / n, nil
	}

	// The encrypted M-Index cloud hosts the M-Index sweep and the EHI/FDH
	// uploads (the baselines store their structures on the same server).
	cloud, err := NewEncryptedCloud(ds, spec.Cfg, o.Seed, core.Options{})
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	cloud.Timeout = o.Timeout
	o.logf("ablation %s: inserting %d objects into the M-Index cloud...", spec.Name, len(indexed))
	if _, err := cloud.InsertAll(indexed, o.BulkSize); err != nil {
		return nil, err
	}

	if backend != "kmeans" {
		for _, cs := range spec.CandSizes {
			o.logf("ablation %s: M-Index candSize=%d...", spec.Name, cs)
			r, _, err := sweep(func(q metric.Vector) ([]core.Result, stats.Costs, error) {
				ctx, cancel := o.opCtx()
				defer cancel()
				return cloud.Enc.Search(ctx, core.Query{Kind: core.KindApproxKNN, Vec: q, K: o.K, CandSize: cs})
			})
			if err != nil {
				return nil, fmt.Errorf("M-Index: %w", err)
			}
			res.MIndex = append(res.MIndex, r)
		}
	}

	// EHI: exact best-first traversal, the upper bracket.
	rng := rand.New(rand.NewPCG(o.Seed, 0xAB1A))
	root, nodes, err := baseline.EHIBuild(rng, ds.Dist, indexed, cloud.Key, 10, max(spec.Cfg.BucketCapacity/4, 8))
	if err != nil {
		return nil, err
	}
	ehi, err := baseline.DialEHI(cloud.Srv.Addr(), cloud.Key, ds.Dist)
	if err != nil {
		return nil, err
	}
	defer ehi.Close()
	if _, err := ehi.Upload(root, nodes); err != nil {
		return nil, err
	}
	o.logf("ablation %s: EHI (%d nodes)...", spec.Name, len(nodes))
	if res.EHIRecall, res.EHICand, err = sweep(func(q metric.Vector) ([]core.Result, stats.Costs, error) {
		return ehi.KNN(q, o.K)
	}); err != nil {
		return nil, fmt.Errorf("EHI: %w", err)
	}

	// FDH: Hamming-ball hashing, the lower bracket, swept over the same
	// candidate targets.
	params, err := baseline.NewFDHParams(rng, ds.Dist, indexed, 16)
	if err != nil {
		return nil, err
	}
	items, err := baseline.FDHBuild(params, cloud.Key, indexed)
	if err != nil {
		return nil, err
	}
	fdh, err := baseline.DialFDH(cloud.Srv.Addr(), cloud.Key, params)
	if err != nil {
		return nil, err
	}
	defer fdh.Close()
	if _, err := fdh.Upload(items); err != nil {
		return nil, err
	}
	for _, cs := range spec.CandSizes {
		o.logf("ablation %s: FDH candTarget=%d...", spec.Name, cs)
		r, cand, err := sweep(func(q metric.Vector) ([]core.Result, stats.Costs, error) {
			return fdh.KNN(q, o.K, cs, 2)
		})
		if err != nil {
			return nil, fmt.Errorf("FDH: %w", err)
		}
		res.FDH = append(res.FDH, r)
		res.FDHCand = append(res.FDHCand, cand)
	}

	if backend != "mindex" {
		o.logf("ablation %s: training %d centroids...", spec.Name, spec.K)
		m, err := kmeans.Train(kmeans.TrainConfig{K: spec.K, Seed: o.Seed, Dist: ds.Dist}, indexed)
		if err != nil {
			return nil, err
		}
		key, err := secret.Generate(m.PivotSet(), secret.ModeCTRHMAC)
		if err != nil {
			return nil, err
		}
		km, err := core.NewKMeansDirect(kmeans.Config{NumCentroids: spec.K, Storage: mindex.StorageMemory}, key, core.Options{})
		if err != nil {
			return nil, err
		}
		defer km.Close()
		if _, err := km.Insert(indexed); err != nil {
			return nil, err
		}
		ctx := context.Background()
		for _, cs := range spec.CandSizes {
			o.logf("ablation %s: k-means candSize=%d...", spec.Name, cs)
			r, _, err := sweep(func(q metric.Vector) ([]core.Result, stats.Costs, error) {
				return km.Search(ctx, core.Query{Kind: core.KindApproxKNN, Vec: q, K: o.K, CandSize: cs})
			})
			if err != nil {
				return nil, fmt.Errorf("k-means: %w", err)
			}
			res.KMeans = append(res.KMeans, r)
		}

		// Predictor: calibrate on the second held-out half, evaluate on the
		// same queries as the sweeps.
		calQ := make([]metric.Vector, len(calObjs))
		for i, obj := range calObjs {
			calQ[i] = obj.Vec
		}
		o.logf("ablation %s: calibrating the predictor on %d queries...", spec.Name, len(calQ))
		pred, err := km.Calibrate(ctx, calQ, o.K, []float64{spec.TargetRecall}, 6)
		if err != nil {
			return nil, err
		}
		km.SetPredictor(pred)
		res.PredRecall, res.PredCand, err = sweep(func(q metric.Vector) ([]core.Result, stats.Costs, error) {
			return km.Search(ctx, core.Query{Kind: core.KindApproxKNN, Vec: q, K: o.K, TargetRecall: spec.TargetRecall})
		})
		if err != nil {
			return nil, fmt.Errorf("predictor: %w", err)
		}

		// Best global constant: the candidate budget is a prefix of the same
		// promise-ranked stream, so mean recall is non-decreasing in the
		// constant and the smallest one matching the predictor's achieved
		// recall is found by bisection.
		recallAt := func(cs int) (float64, error) {
			r, _, err := sweep(func(q metric.Vector) ([]core.Result, stats.Costs, error) {
				return km.Search(ctx, core.Query{Kind: core.KindApproxKNN, Vec: q, K: o.K, CandSize: cs})
			})
			return r, err
		}
		lo, hi := o.K, km.Engine().Size()
		for lo < hi {
			mid := (lo + hi) / 2
			r, err := recallAt(mid)
			if err != nil {
				return nil, err
			}
			if r >= res.PredRecall-1e-9 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		res.BestGlobal = lo
	}
	return res, nil
}

// AblationTable renders one workload's ablation as a table: recall curves
// over the candidate-size sweep, the EHI/FDH brackets, and the predictor
// summary (single-valued rows carry their figure in the first column).
func AblationTable(o Options, specName, backend string) (*Table, error) {
	o = o.withDefaults()
	spec, err := AblationSpecByName(specName)
	if err != nil {
		return nil, err
	}
	r, err := Ablation(o, spec, backend)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Ablation " + spec.Name,
		Title: fmt.Sprintf("Routing-family ablation, %d-NN recall vs candidate-set size (%s, %d anchors)", r.K, spec.Name, spec.K),
	}
	for _, cs := range spec.CandSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", cs))
	}
	curve := func(vals []float64) []string {
		out := make([]string, len(spec.CandSizes))
		for i := range out {
			if vals == nil {
				out[i] = "-"
			} else {
				out[i] = pct(vals[i])
			}
		}
		return out
	}
	single := func(v string) []string {
		out := make([]string, len(spec.CandSizes))
		out[0] = v
		for i := 1; i < len(out); i++ {
			out[i] = "-"
		}
		return out
	}
	t.AddRow("M-Index recall [%]", curve(r.MIndex)...)
	t.AddRow("k-means recall [%]", curve(r.KMeans)...)
	t.AddRow("FDH recall [%]", curve(r.FDH)...)
	fdhCand := make([]string, len(spec.CandSizes))
	for i := range fdhCand {
		fdhCand[i] = fmt.Sprintf("%.0f", r.FDHCand[i])
	}
	t.AddRow("FDH mean candidates", fdhCand...)
	t.AddRow("EHI recall [%] (exact)", single(pct(r.EHIRecall))...)
	t.AddRow("EHI mean candidates", single(fmt.Sprintf("%.0f", r.EHICand))...)
	if r.KMeans != nil {
		t.AddRow(fmt.Sprintf("Predictor recall [%%] (target %.0f)", spec.TargetRecall*100), single(pct(r.PredRecall))...)
		t.AddRow("Predictor mean candidates", single(fmt.Sprintf("%.1f", r.PredCand))...)
		t.AddRow("Best global candidates", single(fmt.Sprintf("%d", r.BestGlobal))...)
	}
	return t, nil
}
