package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// The query path of the encrypted client: Search evaluates one Query of
// any kind, SearchBatch pipelines many. Both reveal to the server a
// permutation or a (transformed) distance vector per query, nothing else,
// and both honor ctx end to end: every round trip runs under
// context-derived read/write deadlines, and the pipelined batch path
// checks for cancellation between chunks.

// queryDists computes the query–pivot distance vector (Algorithm 2 line 1),
// charging the client-side distance cost.
func (c *coder) queryDists(q Query, costs *stats.Costs) []float64 {
	distStart := time.Now()
	qDists := c.key.Pivots().Distances(q.Vec)
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(c.key.Pivots().N())
	return qDists
}

// wireQuery translates one normalized Query (or the approximate first
// phase of a KindKNN query) into its wire form. KindRange reveals the
// transformed distance vector; the approximate kinds reveal the
// permutation (footrule ranking) or transformed distances (distance-sum
// ranking).
func (c *coder) wireQuery(nq Query, qDists []float64) wire.BatchQuery {
	switch nq.Kind {
	case KindRange:
		return wire.BatchQuery{
			Kind:   wire.BatchRange,
			Dists:  c.key.TransformDists(qDists),
			Radius: c.key.TransformRadius(nq.Radius),
		}
	case KindFirstCell:
		if c.opts.Ranking == mindex.RankDistSum {
			return wire.BatchQuery{Kind: wire.BatchFirstCell, Dists: c.key.TransformDists(qDists)}
		}
		return wire.BatchQuery{Kind: wire.BatchFirstCell, Perm: pivot.Permutation(qDists)}
	default: // KindApproxKNN, or the phase-1 approximate pass of KindKNN
		if c.opts.Ranking == mindex.RankDistSum {
			return wire.BatchQuery{
				Kind:     wire.BatchApproxDists,
				Dists:    c.key.TransformDists(qDists),
				CandSize: uint32(effCandSize(nq)),
			}
		}
		return wire.BatchQuery{
			Kind:     wire.BatchApproxPerm,
			Perm:     pivot.Permutation(qDists),
			CandSize: uint32(effCandSize(nq)),
		}
	}
}

// Search evaluates one similarity query against the encrypted cloud. ctx's
// deadline bounds every round trip, and cancelling it interrupts an
// exchange blocked on a stalled server.
func (c *EncryptedClient) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
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

func (c *EncryptedClient) searchOne(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error) {
	if nq.Kind == KindKNN {
		return searchKNN(ctx, nq, costs, c.searchOne)
	}
	// A lone query rides the batch path as a batch of one.
	wq := c.wireQuery(nq, c.queryDists(nq, costs))
	var fl flight
	defer fl.release()
	if err := c.batchCandidates(ctx, []wire.BatchQuery{wq}, costs, func(i int) int { return i }, &fl); err != nil {
		return nil, err
	}
	return c.finishQuery(nq, refCands(fl.perQuery[0]), costs)
}

// finishQuery applies the per-kind client-side epilogue to a candidate
// set: refinement (partial when RefineLimit is set) down to the answer —
// everything within the radius for range queries, the K nearest otherwise —
// in distance order.
func (c *coder) finishQuery(nq Query, cands candidates, costs *stats.Costs) ([]Result, error) {
	if nq.Kind == KindRange {
		return c.refine(nq.Vec, cands, 0, 0, nq.Radius, costs)
	}
	// KindApproxKNN, KindFirstCell
	return c.refine(nq.Vec, cands, nq.RefineLimit, nq.K, 0, costs)
}

// knnRadius derives the phase-2 range radius ρk from the refined
// approximate answer: the k-th candidate distance upper-bounds the true
// k-th neighbor distance; fewer than k candidates fall back to everything.
func knnRadius(approx []Result, k int) float64 {
	if len(approx) >= k {
		return approx[len(approx)-1].Dist
	}
	return maxRadius
}

// searchKNN composes the two-phase precise k-NN of Section 4.2 —
// approximate pass for ρk, then the exact range query R(q, ρk), both under
// ctx — over any single-kind evaluator. The networked and in-process
// backends share this one composition, so the precision guarantee cannot
// silently diverge between them.
func searchKNN(ctx context.Context, nq Query, costs *stats.Costs,
	searchOne func(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error)) ([]Result, error) {
	approxQ := Query{Kind: KindApproxKNN, Vec: nq.Vec, K: nq.K, CandSize: nq.CandSize, TargetRecall: nq.TargetRecall}
	approx, err := searchOne(ctx, approxQ, costs)
	if err != nil {
		return nil, err
	}
	rho := knnRadius(approx, nq.K)
	within, err := searchOne(ctx, Query{Kind: KindRange, Vec: nq.Vec, Radius: rho}, costs)
	if err != nil {
		return nil, err
	}
	if len(within) > nq.K {
		within = within[:nq.K]
	}
	return within, nil
}

// SearchBatch evaluates many queries in pipelined chunks of
// Options.BatchChunk queries each, so the whole workload pays one
// round-trip latency plus streaming instead of one round trip per query.
// Kinds may be mixed freely; precise k-NN queries add one extra pipelined
// wave (their range phase, which needs the first wave's ρk). Results are
// per-query, in input order, refined exactly like Search. ctx cancellation
// is checked between chunks and interrupts blocked IO within one.
func (c *EncryptedClient) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		finish(&costs, start)
		return nil, costs, nil
	}
	norm := make([]Query, len(qs))
	for i, q := range qs {
		nq, err := q.normalized()
		if err != nil {
			return nil, costs, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		norm[i] = nq
	}
	wqs := make([]wire.BatchQuery, len(norm))
	for i, nq := range norm {
		wqs[i] = c.wireQuery(nq, c.queryDists(nq, &costs))
	}
	// Both waves' response frames stay leased until the last finishQuery
	// over them has returned: candidates are read out of the frames.
	var wave1, wave2 flight
	defer wave1.release()
	defer wave2.release()
	if err := c.batchCandidates(ctx, wqs, &costs, func(i int) int { return i }, &wave1); err != nil {
		return nil, costs, err
	}
	perQuery := wave1.perQuery

	out := make([][]Result, len(qs))
	var knnIdx []int     // queries needing the phase-2 range wave
	var knnRange []Query // their range queries, radius in original space
	var knnWave []wire.BatchQuery
	for i, nq := range norm {
		if nq.Kind == KindKNN {
			// Phase 1 is refined like an approximate query; ρk feeds wave 2.
			approx, err := c.finishQuery(Query{Kind: KindApproxKNN, Vec: nq.Vec, K: nq.K}, refCands(perQuery[i]), &costs)
			if err != nil {
				return nil, costs, err
			}
			rangeQ := Query{Kind: KindRange, Vec: nq.Vec, Radius: knnRadius(approx, nq.K)}
			knnIdx = append(knnIdx, i)
			knnRange = append(knnRange, rangeQ)
			knnWave = append(knnWave, c.wireQuery(rangeQ, c.queryDists(rangeQ, &costs)))
			continue
		}
		res, err := c.finishQuery(nq, refCands(perQuery[i]), &costs)
		if err != nil {
			return nil, costs, err
		}
		out[i] = res
	}
	if len(knnIdx) > 0 {
		if err := c.batchCandidates(ctx, knnWave, &costs, func(i int) int { return knnIdx[i] }, &wave2); err != nil {
			return nil, costs, err
		}
		perKNN := wave2.perQuery
		for j, i := range knnIdx {
			// The range epilogue filters by the true ρk (the server pruned
			// conservatively in transformed space), then the K cut applies —
			// exactly the single-query KNN composition.
			within, err := c.finishQuery(knnRange[j], refCands(perKNN[j]), &costs)
			if err != nil {
				return nil, costs, err
			}
			if len(within) > norm[i].K {
				within = within[:norm[i].K]
			}
			out[i] = within
		}
	}
	finish(&costs, start)
	return out, costs, nil
}

// flight is the answer to one batchCandidates exchange, held by reference:
// perQuery's candidates alias the response frames, so whoever declares a
// flight defers its release in the same scope and reads perQuery only
// before that.
type flight struct {
	frames   []frame
	refs     []*wire.CandidateRefs // one by-reference decoding per frame
	perQuery [][]wire.CandidateRef // one candidate set per wire query
}

// candidateRefs recycles the by-reference decodings of response frames.
var candidateRefs = sync.Pool{New: func() any { return new(wire.CandidateRefs) }}

// release returns the flight's frames and decodings to their pools. It is
// safe on a flight that was never filled.
func (f *flight) release() {
	releaseFrames(f.frames)
	for _, m := range f.refs {
		m.Reset()
		candidateRefs.Put(m)
	}
	*f = flight{}
}

// batchCandidates ships the wire queries as pipelined MsgBatchQuery chunks
// over one leased connection and fills fl with the per-query candidate
// sets, decoded by reference out of the response frames fl holds on to.
// queryIndex maps a position in wqs back to the caller's query index — the
// identity for the first wave, the KNN subset mapping for the second — so
// a server error always names queries by the indices the caller knows.
func (c *EncryptedClient) batchCandidates(ctx context.Context, wqs []wire.BatchQuery, costs *stats.Costs, queryIndex func(int) int, fl *flight) error {
	chunk := c.opts.BatchChunk
	reqs := make([]frame, 0, c.chunkCount(len(wqs)))
	for at := 0; at < len(wqs); at += chunk {
		reqs = append(reqs, frame{
			typ:     wire.MsgBatchQuery,
			payload: wire.BatchQueryReq{Queries: wqs[at:min(at+chunk, len(wqs))]}.Encode(),
		})
	}
	var err error
	if fl.frames, err = c.exchange(ctx, reqs, costs); err != nil {
		return err
	}
	fl.perQuery = make([][]wire.CandidateRef, 0, len(wqs))
	for ci, r := range fl.frames {
		if err := respError(r); err != nil {
			lo := ci * chunk
			// The server's "batch query N" counts within this chunk; the
			// wrapped range rebases it onto the caller's query indices.
			return fmt.Errorf("core: query chunk %d (queries %d..%d): %w",
				ci, queryIndex(lo), queryIndex(min(lo+chunk, len(wqs))-1), err)
		}
		if r.typ != wire.MsgBatchCandidates {
			return fmt.Errorf("core: unexpected batch query response %v", r.typ)
		}
		m := candidateRefs.Get().(*wire.CandidateRefs)
		fl.refs = append(fl.refs, m)
		if err := m.DecodeFlat(r.payload); err != nil {
			return err
		}
		creditServer(costs, m.ServerNanos)
		if len(fl.perQuery)+len(m.Results) > len(wqs) {
			return fmt.Errorf("core: server returned more batch results than queries")
		}
		fl.perQuery = append(fl.perQuery, m.Results...)
	}
	if len(fl.perQuery) != len(wqs) {
		return fmt.Errorf("core: server returned %d batch results for %d queries", len(fl.perQuery), len(wqs))
	}
	return nil
}
