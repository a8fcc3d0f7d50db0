package core

import (
	"context"
	"fmt"
	"slices"
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
// phase of a KindKNN query without stored distances) into its wire form.
// KindRange reveals the transformed distance vector; the approximate kinds
// reveal the permutation (footrule ranking) or transformed distances
// (distance-sum ranking).
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
// exchange blocked on a stalled server. A lone query rides the batch path
// as a batch of one.
func (c *EncryptedClient) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	nq, err := q.normalized()
	if err != nil {
		return nil, costs, err
	}
	out, err := c.search(ctx, []Query{nq}, &costs)
	if err != nil {
		return nil, costs, err
	}
	costs.Finish(start)
	return out[0], costs, nil
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

// knn is one precise k-NN query of Section 4.2 between its two phases —
// the one composition every client backend runs, so the precision
// guarantee cannot diverge between them. Phase one learns ρk, the K-th
// smallest distance among its candidates, an upper bound on the true K-th
// neighbor distance; phase two is the range query R(q, ρk).
//
// When entries carry pivot distances (Options.StoreDists) phase one asks
// for the first CandSize entries in the server's bound order
// (wire.BatchBound), so ρk comes from the entries the server itself deems
// nearest, and phase two resumes that order after the last of them (a keyset
// cursor, wire.BatchQuery.After): the two phases never share a candidate,
// and phase one's K nearest are part of the answer. Phase two is skipped
// when phase one returned all the server holds or its last bound already
// exceeds the phase-two radius. Without distances a bound carries no
// information, and phase one is the footrule-ordered approximate pass whose
// candidates phase two ships again.
type knn struct {
	at     int // the query's index in its batch
	nq     Query
	qDists []float64
	first  wire.BatchQuery // phase one, as sent
	kept   []Result        // phase one's share of the answer
	rho    float64         // ρk
}

// startKNN prepares a precise k-NN query and its phase one.
func (c *coder) startKNN(at int, nq Query, qDists []float64) knn {
	k := knn{at: at, nq: nq, qDists: qDists}
	if c.opts.StoreDists {
		k.first = wire.BatchQuery{
			Kind:     wire.BatchBound,
			Dists:    c.key.TransformDists(qDists),
			CandSize: uint32(effCandSize(nq)),
		}
	} else {
		k.first = c.wireQuery(Query{Kind: KindApproxKNN, K: nq.K, CandSize: nq.CandSize}, qDists)
	}
	return k
}

// nextKNN refines phase one's candidates — served in bound order, the last
// with bound last — and returns phase two's query, or false when phase one
// settled the answer.
func (c *coder) nextKNN(k *knn, cands candidates, last float64, costs *stats.Costs) (wire.BatchQuery, bool, error) {
	approx, err := c.refine(k.nq.Vec, cands, 0, k.nq.K, 0, costs)
	if err != nil {
		return wire.BatchQuery{}, false, err
	}
	k.rho = maxRadius // fewer than K candidates: everything qualifies
	if len(approx) >= k.nq.K {
		k.rho = approx[len(approx)-1].Dist
	}
	if k.first.Kind != wire.BatchBound {
		return c.wireQuery(Query{Kind: KindRange, Radius: k.rho}, k.qDists), true, nil
	}
	k.kept = approx
	// The cursor and the radius both live in the server's (transformed)
	// space, and phase one's entries were all those keyed up to the cursor.
	next := wire.BatchQuery{Kind: wire.BatchRange, Dists: k.first.Dists, Radius: c.key.TransformRadius(k.rho)}
	n := cands.count()
	if n < int(k.first.CandSize) || last > next.Radius {
		return wire.BatchQuery{}, false, nil
	}
	id, _ := cands.at(n - 1)
	next.After = &mindex.BoundKey{LB: last, ID: id}
	return next, true, nil
}

// finishKNN refines phase two's candidates against ρk and returns the K
// nearest of them and of phase one's share, by (distance, ID). An ID phase
// one already holds is dropped: only an update between the phases can
// send one twice, and the answer stays phase one's snapshot.
func (c *coder) finishKNN(k *knn, cands candidates, costs *stats.Costs) ([]Result, error) {
	within, err := c.refine(k.nq.Vec, cands, 0, 0, k.rho, costs)
	if err != nil {
		return nil, err
	}
	out := k.kept
	for _, r := range within {
		if !slices.ContainsFunc(k.kept, func(o Result) bool { return o.ID == r.ID }) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, compareResults)
	return out[:min(len(out), k.nq.K)], nil
}

// SearchBatch evaluates many queries in pipelined chunks of
// Options.BatchChunk queries each, so the whole workload pays one
// round-trip latency plus streaming instead of one round trip per query.
// Kinds may be mixed freely; precise k-NN queries whose first phase does not
// settle them add one extra pipelined wave. Results are per-query, in input
// order, refined exactly like Search. ctx cancellation is checked between
// chunks and interrupts blocked IO within one.
func (c *EncryptedClient) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		costs.Finish(start)
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
	out, err := c.search(ctx, norm, &costs)
	if err != nil {
		return nil, costs, err
	}
	costs.Finish(start)
	return out, costs, nil
}

// search evaluates normalized queries in one pipelined wave of every
// query's (first) phase, then one of the precise k-NN phase twos still
// needed.
func (c *EncryptedClient) search(ctx context.Context, norm []Query, costs *stats.Costs) ([][]Result, error) {
	wqs := make([]wire.BatchQuery, len(norm))
	var knns []knn
	for i, nq := range norm {
		qDists := c.queryDists(nq, costs)
		if nq.Kind == KindKNN {
			knns = append(knns, c.startKNN(i, nq, qDists))
			wqs[i] = knns[len(knns)-1].first
			continue
		}
		wqs[i] = c.wireQuery(nq, qDists)
	}
	// Both waves' response frames stay leased until the last refinement
	// over them has returned: candidates are read out of the frames.
	var wave1, wave2 flight
	defer wave1.release()
	defer wave2.release()
	if err := c.batchCandidates(ctx, wqs, costs, func(i int) int { return i }, &wave1); err != nil {
		return nil, err
	}
	out := make([][]Result, len(norm))
	for i, nq := range norm {
		if nq.Kind == KindKNN {
			continue
		}
		var err error
		if out[i], err = c.finishQuery(nq, refCands(wave1.perQuery[i]), costs); err != nil {
			return nil, err
		}
	}
	pending := knns[:0] // the k-NN queries phase one did not settle
	var second []wire.BatchQuery
	for _, k := range knns {
		next, more, err := c.nextKNN(&k, refCands(wave1.perQuery[k.at]), wave1.bounds[k.at], costs)
		if err != nil {
			return nil, err
		}
		if !more {
			if out[k.at], err = c.finishKNN(&k, refCands(nil), costs); err != nil {
				return nil, err
			}
			continue
		}
		pending = append(pending, k)
		second = append(second, next)
	}
	if len(second) == 0 {
		return out, nil
	}
	if err := c.batchCandidates(ctx, second, costs, func(j int) int { return pending[j].at }, &wave2); err != nil {
		return nil, err
	}
	for j := range pending {
		var err error
		if out[pending[j].at], err = c.finishKNN(&pending[j], refCands(wave2.perQuery[j]), costs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flight is the answer to one batchCandidates exchange, held by reference:
// perQuery's candidates alias the response frames, so whoever declares a
// flight defers its release in the same scope and reads perQuery only
// before that.
type flight struct {
	frames   []wire.Frame
	refs     []*wire.CandidateRefs // one by-reference decoding per frame
	perQuery [][]wire.CandidateRef // one candidate set per wire query
	bounds   []float64             // per wire query, its reply's bound trailer
}

// candidateRefs recycles the by-reference decodings of response frames.
var candidateRefs = sync.Pool{New: func() any { return new(wire.CandidateRefs) }}

// release returns the flight's frames and decodings to their pools. It is
// safe on a flight that was never filled.
func (f *flight) release() {
	wire.ReleaseFrames(f.frames)
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
	reqs := make([]wire.Frame, 0, c.chunkCount(len(wqs)))
	for at := 0; at < len(wqs); at += chunk {
		reqs = append(reqs, wire.Frame{
			Type:    wire.MsgBatchQuery,
			Payload: wire.BatchQueryReq{Queries: wqs[at:min(at+chunk, len(wqs))]}.Encode(),
		})
	}
	var err error
	if fl.frames, err = c.link.Exchange(ctx, reqs, costs); err != nil {
		return err
	}
	fl.perQuery = make([][]wire.CandidateRef, 0, len(wqs))
	for ci, r := range fl.frames {
		lo, hi := ci*chunk, min((ci+1)*chunk, len(wqs))
		if err := r.Err(); err != nil {
			// The server's "batch query N" counts within this chunk; the
			// wrapped range rebases it onto the caller's query indices.
			return fmt.Errorf("core: query chunk %d (queries %d..%d): %w",
				ci, queryIndex(lo), queryIndex(hi-1), err)
		}
		if r.Type != wire.MsgBatchCandidates {
			return fmt.Errorf("core: unexpected batch query response %v", r.Type)
		}
		m := candidateRefs.Get().(*wire.CandidateRefs)
		fl.refs = append(fl.refs, m)
		if err := m.DecodeFlat(r.Payload, wqs[lo:hi]); err != nil {
			return err
		}
		costs.CreditServer(m.ServerNanos)
		if len(fl.perQuery)+len(m.Results) > len(wqs) {
			return fmt.Errorf("core: server returned more batch results than queries")
		}
		fl.perQuery = append(fl.perQuery, m.Results...)
		fl.bounds = append(fl.bounds, m.Bounds...)
	}
	if len(fl.perQuery) != len(wqs) {
		return fmt.Errorf("core: server returned %d batch results for %d queries", len(fl.perQuery), len(wqs))
	}
	return nil
}
