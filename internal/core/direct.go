package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"simcloud/internal/engine"
	"simcloud/internal/kmeans"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// DirectClient embeds the similarity-cloud engine in-process: the same
// client-side transform and refinement as EncryptedClient (the shared
// coder), the same sharded M-Index engine a server hosts, but no network
// between them — the embedded-library scenario. The index still stores
// only ciphertexts plus pivot-space metadata (entries are bit-identical to
// what an encrypted server would hold), so a snapshot taken here can be
// served remotely later and vice versa; what disappears is the wire, not
// the privacy boundary.
//
// DirectClient implements Searcher, so examples and benchmarks written
// against the unified query API run unchanged in-process. It is safe for
// concurrent use (the engine locks per shard). It serves both routing
// families: NewKMeansDirect builds one over the k-means configuration.
type DirectClient struct {
	coder
	eng       *engine.ShardedIndex
	ownEngine bool
	pred      atomic.Pointer[kmeans.Predictor]
}

var _ Searcher = (*DirectClient)(nil)

// NewDirect creates an in-process client over a fresh engine built from
// cfg. The key plays the same role as for DialEncrypted (pivots, cipher,
// optional distance transform) and must match cfg's pivot count.
func NewDirect(cfg mindex.Config, key *secret.Key, opts Options) (*DirectClient, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	c, err := NewDirectWithEngine(eng, key, opts)
	if err != nil {
		eng.Close()
		return nil, err
	}
	c.ownEngine = true
	return c, nil
}

// NewDirectWithEngine wraps an existing engine — typically one restored
// from a snapshot — without taking ownership of it: closing the client
// does not close the engine.
func NewDirectWithEngine(eng *engine.ShardedIndex, key *secret.Key, opts Options) (*DirectClient, error) {
	return newDirect(eng, key, opts)
}

// newDirect wraps eng in a client working under key, which is either a
// *secret.Key or the plain server's raw codec.
func newDirect(eng *engine.ShardedIndex, key objectCodec, opts Options) (*DirectClient, error) {
	// Validate exactly like DialEncryptedContext, so the same Options are
	// accepted or rejected identically across the backends — code validated
	// against the embedded backend must not fail when pointed at a server.
	o := opts.withDefaults()
	if o.PrefixLen < o.MaxLevel {
		return nil, fmt.Errorf("core: PrefixLen %d below index MaxLevel %d", o.PrefixLen, o.MaxLevel)
	}
	if o.PrefixLen > key.Pivots().N() {
		o.PrefixLen = key.Pivots().N()
	}
	if key.Pivots().N() != eng.Config().NumPivots {
		return nil, fmt.Errorf("core: engine index uses %d pivots, client key has %d — wrong key for this index",
			eng.Config().NumPivots, key.Pivots().N())
	}
	// The dialed client learns the server's MaxLevel the hard way (a too-
	// short prefix is rejected at insert); here the engine is in hand, so
	// the mismatch can fail fast with the same meaning.
	if o.PrefixLen < eng.Config().MaxLevel {
		return nil, fmt.Errorf("core: PrefixLen %d below engine index MaxLevel %d (set Options.MaxLevel to match the engine)",
			o.PrefixLen, eng.Config().MaxLevel)
	}
	// Likewise the ranking: a mismatch would fail every approximate query.
	if o.Ranking != eng.Config().Ranking {
		return nil, fmt.Errorf("core: Options.Ranking %v does not match engine index ranking %v (set Options.Ranking to match the engine)",
			o.Ranking, eng.Config().Ranking)
	}
	return &DirectClient{coder: coder{key: key, opts: o}, eng: eng}, nil
}

// Engine exposes the embedded index engine (snapshots, stats, compaction).
func (c *DirectClient) Engine() *engine.ShardedIndex { return c.eng }

// Close releases the engine when the client owns it (created by NewDirect);
// a wrapped engine is left running.
func (c *DirectClient) Close() error {
	if c.ownEngine {
		return c.eng.Close()
	}
	return nil
}

// SetPredictor installs (or, with nil, removes) the learned candidate-size
// predictor consulted by TargetRecall queries. Safe to call concurrently
// with searches; each query reads the predictor once.
func (c *DirectClient) SetPredictor(p *kmeans.Predictor) { c.pred.Store(p) }

// Predictor returns the installed predictor, or nil.
func (c *DirectClient) Predictor() *kmeans.Predictor { return c.pred.Load() }

// rankedCandidates evaluates one wire-shaped query against the embedded
// engine through wire.BatchQuery.IndexQuery — the translation the server's
// dispatch uses, so a DirectClient query touches exactly the index code
// paths a remote one would.
func (c *DirectClient) rankedCandidates(wq wire.BatchQuery) ([]mindex.RankedCandidate, error) {
	iq, err := wq.IndexQuery(c.eng.Config().NumPivots, nil)
	if err != nil {
		return nil, err
	}
	return c.eng.Search(iq)
}

// engineCandidates is rankedCandidates charging the engine time to
// ServerTime: the cost decomposition stays comparable with the networked
// backends (CommTime and the byte counters are structurally zero here).
func (c *DirectClient) engineCandidates(ctx context.Context, wq wire.BatchQuery, costs *stats.Costs) (rankedCands, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: direct search aborted: %w", err)
	}
	engStart := time.Now()
	cands, err := c.rankedCandidates(wq)
	costs.ServerTime += time.Since(engStart)
	return cands, err
}

// Search evaluates one similarity query against the embedded engine, with
// the identical client-side epilogue (refinement, radius filter, K trim)
// the encrypted client applies — for the same key, dataset and
// configuration the two backends return identical result lists. ctx is
// checked between the preparation, engine and refinement phases.
func (c *DirectClient) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
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
	costs.Finish(start)
	return out, costs, nil
}

func (c *DirectClient) searchOne(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error) {
	out, err := c.search(ctx, []Query{nq}, costs)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// search evaluates normalized queries through the paging loop (pages), each
// wave one engine search per request.
func (c *DirectClient) search(ctx context.Context, norm []Query, costs *stats.Costs) ([][]Result, error) {
	ps := make([]pager, len(norm))
	for i, nq := range norm {
		qDists := c.queryDists(nq, costs)
		if nq.TargetRecall > 0 {
			// Normalization left CandSize 0 for the predictor to fill in from
			// the query's transformed distance to its nearest pivot; without
			// one, effCandSize falls back to the global default.
			if p := c.pred.Load(); p != nil {
				nq.CandSize = p.CandSize(nq.TargetRecall, nearestDist(c.key.TransformDists(qDists)))
			}
		}
		ps[i] = c.startPager(nq, qDists)
	}
	return c.pages(ps, costs, func(wqs []wire.BatchQuery, _ []int, read func(int, reply) error) error {
		for j, wq := range wqs {
			cands, err := c.engineCandidates(ctx, wq, costs)
			if err != nil {
				return err
			}
			r := reply{cands: cands}
			if wq.Kind == wire.BatchRange {
				r.page = wire.PageOf(cands, int(wq.CandSize))
			}
			if err := read(j, r); err != nil {
				return err
			}
		}
		return nil
	})
}

// nearestDist is the predictor's feature: the smallest (transformed)
// query–pivot distance, for the k-means family the distance d1 to the
// nearest centroid.
func nearestDist(tDists []float64) float64 {
	d1 := math.Inf(1)
	for _, d := range tDists {
		if d < d1 {
			d1 = d
		}
	}
	return d1
}

// Calibrate profiles the given queries against the backend's own exact
// k-NN ground truth and fits a candidate-size predictor (one curve per
// target recall level, over bins equal-mass feature bins). The profile
// records, per query, the minimal candidate budget at which the
// promise-ranked candidate stream — the engine's answer to the client's own
// approximate query over the whole collection — covers each of the true k
// neighbors. Install the result with SetPredictor.
func (c *DirectClient) Calibrate(ctx context.Context, queries []metric.Vector, k int, levels []float64, bins int) (*kmeans.Predictor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: calibration k must be positive, got %d", k)
	}
	size := c.eng.Size()
	if size < k {
		return nil, fmt.Errorf("core: cannot calibrate k=%d against %d indexed objects", k, size)
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
		qDists := c.key.Pivots().Distances(q)
		stream, err := c.rankedCandidates(c.wireQuery(Query{Kind: KindApproxKNN, CandSize: size}, qDists))
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
		samples = append(samples, kmeans.CalSample{D1: nearestDist(c.key.TransformDists(qDists)), Need: need})
	}
	return kmeans.FitPredictor(samples, k, levels, bins)
}

// SearchBatch evaluates the queries sequentially (there is no round trip
// to amortize in-process), checking ctx between queries. Results are
// per-query, in input order, identical to per-query Search.
func (c *DirectClient) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		costs.Finish(start)
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
	costs.Finish(start)
	return out, costs, nil
}

// Insert is InsertContext without a deadline.
func (c *DirectClient) Insert(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// InsertContext performs the bulk insert of Algorithm 1 against the
// embedded engine: the client-side work (pivot distances, permutation
// prefixes, encryption) is identical to the networked insert; the shipped
// entries land in the engine without a wire in between.
func (c *DirectClient) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	if err := ctx.Err(); err != nil {
		return costs, fmt.Errorf("core: direct insert aborted: %w", err)
	}
	engStart := time.Now()
	err = c.eng.InsertBulk(entries)
	costs.ServerTime += time.Since(engStart)
	if err != nil {
		return costs, err
	}
	costs.Finish(start)
	return costs, nil
}

// Delete is DeleteContext without a deadline.
func (c *DirectClient) Delete(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}

// DeleteContext removes the given objects from the embedded index, by the
// same {ID, permutation prefix} references the networked delete ships.
func (c *DirectClient) DeleteContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		costs.Finish(start)
		return 0, costs, nil
	}
	refs := c.deleteRefs(objs, &costs)
	if err := ctx.Err(); err != nil {
		return 0, costs, fmt.Errorf("core: direct delete aborted: %w", err)
	}
	engStart := time.Now()
	deleted, err := c.eng.Delete(refs)
	costs.ServerTime += time.Since(engStart)
	if err != nil {
		return 0, costs, err
	}
	costs.Finish(start)
	return deleted, costs, nil
}
