package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"simcloud/internal/kmeans"
	"simcloud/internal/merge"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

// KMeansDirect is the second index family under the Searcher contract: the
// k-means clustered routing backend, embedded in-process like DirectClient.
// The client key's pivots are the trained centroids (kmeans.Model.PivotSet
// → secret.Generate), and the shared coder runs the identical Algorithm 1
// client work — with the prefix pinned to length one, whose single element
// routes the object to its nearest centroid's cell, and the full
// transformed centroid-distance vector always stored (the precise strategy
// is what makes exact queries exact in this family). The server-side cell
// index therefore holds exactly what an encrypted deployment would:
// ciphertexts plus pivot-space metadata.
//
// Exactness carries over: range queries prune with true lower bounds in
// transformed space and refine client-side; precise k-NN composes the same
// two-phase searchKNN as every other backend. The approximate kinds fan out
// to the nearest centroids under the (promise, prefix, source) merge
// discipline of internal/merge.
//
// KMeansDirect implements Searcher and is safe for concurrent use.
type KMeansDirect struct {
	coder
	idx      *kmeans.Index
	ownIndex bool
	pred     atomic.Pointer[kmeans.Predictor]
}

var _ Searcher = (*KMeansDirect)(nil)

// NewKMeansDirect creates an in-process k-means backend over a fresh cell
// index built from cfg. key must be generated over the trained centroids
// (its pivot count is the cell count). Options.PrefixLen, MaxLevel and
// StoreDists are fixed by the family (1, 1, true) — supplied values for
// those fields are ignored; the remaining options (Workers, …) apply as
// usual.
func NewKMeansDirect(cfg kmeans.Config, key *secret.Key, opts Options) (*KMeansDirect, error) {
	idx, err := kmeans.New(cfg)
	if err != nil {
		return nil, err
	}
	c, err := NewKMeansDirectWithIndex(idx, key, opts)
	if err != nil {
		idx.Close()
		return nil, err
	}
	c.ownIndex = true
	return c, nil
}

// NewKMeansDirectWithIndex wraps an existing cell index — typically one
// restored via kmeans.LoadSnapshot — without taking ownership: closing the
// client does not close the index.
func NewKMeansDirectWithIndex(idx *kmeans.Index, key *secret.Key, opts Options) (*KMeansDirect, error) {
	if key.Pivots().N() != idx.Config().NumCentroids {
		return nil, fmt.Errorf("core: kmeans index uses %d centroids, client key has %d pivots — wrong key for this index",
			idx.Config().NumCentroids, key.Pivots().N())
	}
	o := opts.withDefaults()
	// The family's fixed coder shape: one-element routing prefix (the
	// nearest-centroid cell) and the precise strategy always on.
	o.MaxLevel = 1
	o.PrefixLen = 1
	o.StoreDists = true
	return &KMeansDirect{coder: coder{key: key, opts: o}, idx: idx}, nil
}

// Index exposes the embedded cell index (snapshots, stats).
func (c *KMeansDirect) Index() *kmeans.Index { return c.idx }

// SetPredictor installs (or, with nil, removes) the learned candidate-size
// predictor consulted by TargetRecall queries. Safe to call concurrently
// with searches; each query reads the predictor once.
func (c *KMeansDirect) SetPredictor(p *kmeans.Predictor) { c.pred.Store(p) }

// Predictor returns the installed predictor, or nil.
func (c *KMeansDirect) Predictor() *kmeans.Predictor { return c.pred.Load() }

// Close releases the cell index when the client owns it (created by
// NewKMeansDirect); a wrapped index is left running.
func (c *KMeansDirect) Close() error {
	if c.ownIndex {
		return c.idx.Close()
	}
	return nil
}

// resolveCandSize picks the candidate budget for one approximate query: the
// explicit CandSize, else the predictor's per-query answer (feature: the
// transformed distance to the nearest centroid), else the global default.
func (c *KMeansDirect) resolveCandSize(nq Query, tDists []float64) int {
	if nq.CandSize > 0 {
		return nq.CandSize
	}
	if nq.TargetRecall > 0 {
		if p := c.pred.Load(); p != nil {
			d1 := math.Inf(1)
			for _, d := range tDists {
				if d < d1 {
					d1 = d
				}
			}
			return p.CandSize(nq.TargetRecall, d1)
		}
	}
	return DefaultCandSize(nq.K)
}

// indexCandidates evaluates one query kind against the cell index, charging
// the index time to ServerTime exactly like DirectClient charges its engine
// — the cost decomposition stays comparable across the in-process backends.
func (c *KMeansDirect) indexCandidates(ctx context.Context, nq Query, tDists []float64, costs *stats.Costs) ([]mindex.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: kmeans search aborted: %w", err)
	}
	idxStart := time.Now()
	var cands []mindex.Entry
	var err error
	switch nq.Kind {
	case KindRange:
		cands, err = c.idx.RangeByDists(tDists, c.key.TransformRadius(nq.Radius))
	case KindFirstCell:
		cands, _, _, err = c.idx.FirstCellRanked(tDists)
	default: // KindApproxKNN (searchKNN never sends KindKNN here)
		candSize := c.resolveCandSize(nq, tDists)
		var rcs []mindex.RankedCandidate
		rcs, err = c.idx.ApproxRanked(tDists, candSize)
		if err == nil {
			// One partition today, but the candidates flow through the shared
			// (promise, prefix, source) merge discipline, so a sharded cell
			// index would order — and thus answer — identically.
			cands = merge.Entries(merge.Ranked([][]mindex.RankedCandidate{rcs}), candSize)
		}
	}
	costs.ServerTime += time.Since(idxStart)
	return cands, err
}

// Search evaluates one similarity query against the cell index, with the
// identical client-side epilogue (refinement, radius filter, K trim) the
// other backends apply.
func (c *KMeansDirect) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	nq, err := q.normalized()
	if err != nil {
		return nil, costs, err
	}
	out, err := c.searchOne(ctx, nq, &costs)
	if err != nil {
		return nil, costs, err
	}
	finish(&costs, start)
	return out, costs, nil
}

func (c *KMeansDirect) searchOne(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error) {
	if nq.Kind == KindKNN {
		return searchKNN(ctx, nq, costs, c.searchOne)
	}
	qDists := c.queryDists(nq, costs)
	cands, err := c.indexCandidates(ctx, nq, c.key.TransformDists(qDists), costs)
	if err != nil {
		return nil, err
	}
	return c.finishQuery(nq, entryCands(cands), costs)
}

// SearchBatch evaluates the queries sequentially (no round trip to
// amortize), checking ctx between queries. Results are per-query, in input
// order, identical to per-query Search.
func (c *KMeansDirect) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		finish(&costs, start)
		return nil, costs, nil
	}
	out := make([][]Result, len(qs))
	for i, q := range qs {
		nq, err := q.normalized()
		if err != nil {
			return nil, costs, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, costs, fmt.Errorf("core: batch aborted at query %d: %w", i, err)
		}
		res, err := c.searchOne(ctx, nq, &costs)
		if err != nil {
			return nil, costs, err
		}
		out[i] = res
	}
	finish(&costs, start)
	return out, costs, nil
}

// Insert is InsertContext without a deadline.
func (c *KMeansDirect) Insert(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// InsertContext performs the bulk insert of Algorithm 1 against the cell
// index: the client work (centroid distances, one-element routing prefix,
// encryption) is the shared coder's, the entries land without a wire.
func (c *KMeansDirect) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	if err := ctx.Err(); err != nil {
		return costs, fmt.Errorf("core: kmeans insert aborted: %w", err)
	}
	idxStart := time.Now()
	err = c.idx.Insert(entries)
	costs.ServerTime += time.Since(idxStart)
	if err != nil {
		return costs, err
	}
	finish(&costs, start)
	return costs, nil
}

// InsertBatch aliases InsertContext (see DirectClient.InsertBatch).
func (c *KMeansDirect) InsertBatch(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// Delete is DeleteContext without a deadline.
func (c *KMeansDirect) Delete(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}

// DeleteContext removes the given objects from the cell index, by the same
// {ID, routing prefix} references every backend's delete ships.
func (c *KMeansDirect) DeleteContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		finish(&costs, start)
		return 0, costs, nil
	}
	refs := c.deleteRefs(objs, &costs)
	if err := ctx.Err(); err != nil {
		return 0, costs, fmt.Errorf("core: kmeans delete aborted: %w", err)
	}
	idxStart := time.Now()
	deleted, err := c.idx.Delete(refs)
	costs.ServerTime += time.Since(idxStart)
	if err != nil {
		return 0, costs, err
	}
	finish(&costs, start)
	return deleted, costs, nil
}

// DeleteBatch aliases DeleteContext (see InsertBatch).
func (c *KMeansDirect) DeleteBatch(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}

// Calibrate profiles the given queries against the backend's own exact
// k-NN ground truth and fits a candidate-size predictor (one curve per
// target recall level, over bins equal-mass feature bins). The profile
// records, per query, the minimal candidate budget at which the
// promise-ranked candidate stream covers each of the true k neighbors —
// under the index's deployed Fanout bound, so the fitted model predicts
// for the configuration it will serve. Install the result with
// SetPredictor (and persist it with kmeans.Predictor.Marshal).
func (c *KMeansDirect) Calibrate(ctx context.Context, queries []metric.Vector, k int, levels []float64, bins int) (*kmeans.Predictor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: calibration k must be positive, got %d", k)
	}
	if c.idx.Size() < k {
		return nil, fmt.Errorf("core: cannot calibrate k=%d against %d indexed objects", k, c.idx.Size())
	}
	samples := make([]kmeans.CalSample, 0, len(queries))
	for qi, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: calibration aborted at query %d: %w", qi, err)
		}
		truthRes, _, err := c.Search(ctx, Query{Kind: KindKNN, Vec: q, K: k})
		if err != nil {
			return nil, fmt.Errorf("core: calibration query %d: %w", qi, err)
		}
		if len(truthRes) < k {
			return nil, fmt.Errorf("core: calibration query %d found only %d exact neighbors", qi, len(truthRes))
		}
		truth := make(map[uint64]struct{}, k)
		for _, r := range truthRes {
			truth[r.ID] = struct{}{}
		}
		tDists := c.key.TransformDists(c.key.Pivots().Distances(q))
		stream, err := c.idx.ApproxRanked(tDists, c.idx.Size())
		if err != nil {
			return nil, fmt.Errorf("core: calibration query %d: %w", qi, err)
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
		samples = append(samples, kmeans.CalSample{D1: d1, Need: need})
	}
	return kmeans.FitPredictor(samples, k, levels, bins)
}

// backendStats renders the cell index into the unified stats shape for
// CollectStats: the flat cell table reports as one shard whose "tree" is a
// single level of leaves.
func (c *KMeansDirect) backendStats() Stats {
	ks := c.idx.Stats()
	entries, bytes := c.idx.IngestStats()
	out := Stats{
		Engine: EngineStats{Shards: 1, Live: ks.Live, Dead: ks.Dead},
		Tree: TreeStats{
			Leaves:      ks.Cells,
			MaxDepth:    1,
			MaxBucket:   ks.MaxCell,
			TotalBucket: ks.TotalStored,
		},
		Ingest: IngestStats{Entries: entries, Bytes: bytes},
	}
	if hits, misses, ok := c.idx.CacheStats(); ok {
		out.Cache = CacheStats{Hits: hits, Misses: misses}
	}
	return out
}
