package core

import (
	"context"
	"fmt"
	"math"
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

// knn is one precise k-NN query of Section 4.2 between its two phases —
// the one composition every client backend runs, so the precision
// guarantee cannot diverge between them. Phase one learns ρk, the K-th
// smallest distance among its candidates, an upper bound on the true K-th
// neighbor distance; phase two is the range query R(q, ρk), read in pages
// like any other.
//
// When entries carry pivot distances (Options.StoreDists) phase one is the
// first page of the server's bound order: a range of radius +Inf cut at
// CandSize entries, so ρk comes from the entries the server itself deems
// nearest, and phase two resumes that order after the page's last key (a
// keyset cursor, wire.BatchQuery.After): the two phases never share a
// candidate, and phase one's K nearest are part of the answer. Phase two is
// skipped when the first page is not full (it holds all the server holds)
// or its last bound already exceeds the phase-two radius. Without distances
// a bound carries no information, and phase one is the footrule-ordered
// approximate pass whose candidates phase two ships again.
type knn struct {
	nq     Query
	qDists []float64
	first  wire.BatchQuery // phase one, as sent
	kept   []Result        // phase one's share of the answer
	rho    float64         // ρk
	second bool            // phase one is in: the pages are phase two's
}

// startKNN prepares a precise k-NN query and its phase one.
func (c *coder) startKNN(nq Query, qDists []float64) *knn {
	k := &knn{nq: nq, qDists: qDists}
	if c.opts.StoreDists {
		k.first = wire.BatchQuery{
			Kind:     wire.BatchRange,
			Dists:    c.key.TransformDists(qDists),
			Radius:   math.Inf(1),
			CandSize: uint32(effCandSize(nq)),
		}
	} else {
		k.first = c.wireQuery(Query{Kind: KindApproxKNN, K: nq.K, CandSize: nq.CandSize}, qDists)
	}
	return k
}

// nextKNN refines phase one's candidates and returns phase two's query, or
// false when phase one settled the answer.
func (c *coder) nextKNN(k *knn, r reply, costs *stats.Costs) (wire.BatchQuery, bool, error) {
	k.second = true
	approx, err := c.refine(k.nq.Vec, r.cands, 0, k.nq.K, 0, costs)
	if err != nil {
		return wire.BatchQuery{}, false, err
	}
	k.rho = maxRadius // fewer than K candidates: everything qualifies
	if len(approx) >= k.nq.K {
		k.rho = approx[len(approx)-1].Dist
	}
	if k.first.Kind != wire.BatchRange {
		return c.wireQuery(Query{Kind: KindRange, Radius: k.rho}, k.qDists), true, nil
	}
	k.kept = approx
	// The cursor and the radius both live in the server's (transformed)
	// space, and phase one's entries were all those keyed up to the cursor.
	next := wire.BatchQuery{Kind: wire.BatchRange, Dists: k.first.Dists, Radius: c.key.TransformRadius(k.rho)}
	if !r.page.Full || r.page.Last.LB > next.Radius {
		return wire.BatchQuery{}, false, nil
	}
	next.After = &r.page.Last
	return next, true, nil
}

// finish returns the K nearest of phase one's share and of within, phase
// two's answers, by (distance, ID). An ID phase one already holds is
// dropped: only a move between the phases can send one twice, and the
// answer stays phase one's snapshot.
func (k *knn) finish(within []Result) []Result {
	out := k.kept
	for _, r := range within {
		if !slices.ContainsFunc(k.kept, func(o Result) bool { return o.ID == r.ID }) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, compareResults)
	return out[:min(len(out), k.nq.K)]
}

// pager is one query on its way through its pages: wq is the request of its
// next page. A range query is a run of BatchRange pages, each resuming the
// bound order after the last key of the one before; a precise k-NN is its
// phase one, then phase two's range pages; the approximate kinds are one
// page.
type pager struct {
	nq     Query
	wq     wire.BatchQuery
	k      *knn     // a precise k-NN's phases
	radius float64  // the radius range pages are refined against
	within []Result // the range pages' answers so far
	seen   map[uint64]struct{}
	out    []Result // the answer, once the last page is in
}

// startPager prepares a normalized query's first request.
func (c *coder) startPager(nq Query, qDists []float64) pager {
	p := pager{nq: nq, radius: nq.Radius}
	if nq.Kind == KindKNN {
		p.k = c.startKNN(nq, qDists)
		p.wq = p.k.first
	} else {
		p.wq = c.wireQuery(nq, qDists)
	}
	return p
}

// reply is the answer to one request of a wave as the paging loop reads
// it: the candidates, valid only until the wave is released, and a
// BatchRange page's trailer.
type reply struct {
	cands candidates
	page  wire.Page
}

// step refines the reply to p's request and reports whether p needs
// another page, whose request is then p.wq.
func (c *coder) step(p *pager, r reply, costs *stats.Costs) (bool, error) {
	if p.wq.Kind == wire.BatchRange && r.page.Full {
		if err := checkFull(p.wq, r); err != nil {
			return false, err
		}
	}
	switch {
	case p.k != nil && !p.k.second:
		next, more, err := c.nextKNN(p.k, r, costs)
		if err != nil || !more {
			p.out = p.k.finish(nil)
			return false, err
		}
		p.wq, p.radius = next, p.k.rho
		return true, nil
	case p.wq.Kind == wire.BatchRange:
		got, err := c.refine(p.nq.Vec, r.cands, 0, 0, p.radius, costs)
		if err != nil {
			return false, err
		}
		p.addPage(got)
		if r.page.Full {
			last := r.page.Last
			p.wq.After = &last
			return true, nil
		}
		if p.k != nil {
			p.out = p.k.finish(p.within)
		} else {
			slices.SortFunc(p.within, compareResults)
			p.out = p.within
		}
		return false, nil
	}
	// The approximate kinds: refinement (partial when RefineLimit is set)
	// down to the K nearest.
	var err error
	p.out, err = c.refine(p.nq.Vec, r.cands, p.nq.RefineLimit, p.nq.K, 0, costs)
	return false, err
}

// checkFull refuses a page announced full in answer to q that no honest
// server sends (wire.Page.CheckFull).
func checkFull(q wire.BatchQuery, r reply) error {
	n := r.cands.count()
	var last uint64
	if n > 0 {
		last, _ = r.cands.at(n - 1)
	}
	if err := r.page.CheckFull(q, n, r.cands.bytes(), last); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// addPage adds a range page's answers to those of the pages before it. Each
// page resumes the order after the last key of the one before, so an ID
// comes twice only when its object moved between the two reads; the first
// read's answer is kept.
func (p *pager) addPage(got []Result) {
	if p.seen == nil && len(p.within) == 0 {
		p.within = append(p.within, got...)
		return
	}
	if p.seen == nil {
		p.seen = make(map[uint64]struct{}, len(p.within)+len(got))
		for _, r := range p.within {
			p.seen[r.ID] = struct{}{}
		}
	}
	for _, r := range got {
		if _, dup := p.seen[r.ID]; !dup {
			p.seen[r.ID] = struct{}{}
			p.within = append(p.within, r)
		}
	}
}

// wave answers a wave of requests: it calls read with the reply to each
// request, in order, while the reply's candidates are valid, and releases
// what the wave holds before it returns. at maps a request's position to
// its query's index, so an error names the query the caller knows.
type wave func(wqs []wire.BatchQuery, at []int, read func(j int, r reply) error) error

// pages runs the queries through their pages — the one paging loop of every
// client backend. Each wave asks for the next page of every query whose
// answer goes on, each reply is refined as it comes, and the wave's frames
// are released before the next wave is sent, so a client holds one page
// per query at a time.
func (c *coder) pages(ps []pager, costs *stats.Costs, fetch wave) ([][]Result, error) {
	at := make([]int, len(ps))
	wqs := make([]wire.BatchQuery, len(ps))
	for i := range ps {
		at[i], wqs[i] = i, ps[i].wq
	}
	for len(at) > 0 {
		var next []int
		err := fetch(wqs, at, func(j int, r reply) error {
			more, err := c.step(&ps[at[j]], r, costs)
			if more {
				next = append(next, at[j])
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		at, wqs = next, wqs[:0]
		for _, i := range at {
			wqs = append(wqs, ps[i].wq)
		}
	}
	out := make([][]Result, len(ps))
	for i := range ps {
		out[i] = ps[i].out
	}
	return out, nil
}

// SearchBatch evaluates many queries in pipelined chunks of
// Options.BatchChunk queries each, so the whole workload pays one
// round-trip latency plus streaming instead of one round trip per query.
// Kinds may be mixed freely; precise k-NN queries whose first phase does not
// settle them, and range answers whose page is full, add pipelined waves.
// Results are per-query, in input order, refined exactly like Search. ctx
// cancellation is checked between chunks and interrupts blocked IO within
// one.
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

// search evaluates normalized queries in pipelined waves of their pages
// (pages).
func (c *EncryptedClient) search(ctx context.Context, norm []Query, costs *stats.Costs) ([][]Result, error) {
	ps := make([]pager, len(norm))
	for i, nq := range norm {
		ps[i] = c.startPager(nq, c.queryDists(nq, costs))
	}
	return c.pages(ps, costs, func(wqs []wire.BatchQuery, at []int, read func(int, reply) error) error {
		// The wave's response frames stay leased until the last refinement
		// over them has returned: candidates are read out of the frames.
		var fl flight
		defer fl.release()
		if err := c.batchCandidates(ctx, wqs, costs, func(j int) int { return at[j] }, &fl); err != nil {
			return err
		}
		for j := range wqs {
			if err := read(j, reply{cands: refCands(fl.perQuery[j]), page: fl.pages[j]}); err != nil {
				return err
			}
		}
		return nil
	})
}

// flight is the answer to one batchCandidates exchange, held by reference:
// perQuery's candidates alias the response frames, so whoever declares a
// flight defers its release in the same scope and reads perQuery only
// before that.
type flight struct {
	frames   []wire.Frame
	refs     []*wire.CandidateRefs // one by-reference decoding per frame
	perQuery [][]wire.CandidateRef // one candidate set per wire query
	pages    []wire.Page           // per wire query, its reply's page trailer
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
		fl.pages = append(fl.pages, m.Pages...)
	}
	if len(fl.perQuery) != len(wqs) {
		return fmt.Errorf("core: server returned %d batch results for %d queries", len(fl.perQuery), len(wqs))
	}
	return nil
}
