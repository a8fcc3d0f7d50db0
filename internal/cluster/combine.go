package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"simcloud/internal/merge"
	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

// The read path of the coordinator moves every ciphertext once. Node replies
// are read into pooled frames and decoded by reference (wire.CandidateRefs:
// promise, prefix and a span of the frame per candidate); merge.Combine — the
// rule the engine applies across shards — orders those small keys; and the
// client-ward reply is assembled by appending each winner's encoded record
// straight out of its node's frame (the ranked and the flat reply share
// mindex.AppendEntry's bytes). For an approximate query a count wave comes
// first (see queryFan), so a candidate that loses the merge is not even
// fetched.
//
// Lifetime rule: a frame is leased and released in one function (leaseFrames
// + defer release), and nothing decoded out of it survives that function —
// by the time it returns, the winners' bytes are in the request's response
// buffer.

// replyFrames is one pooled reply frame per node (indexed by node id),
// leased for the span of one read fan-out. The nil value stands for "no
// lease": replies then land in slices of their own.
type replyFrames []*wire.Buffer

func (c *Coordinator) leaseFrames() replyFrames {
	frames := make(replyFrames, len(c.nodes))
	for i := range frames {
		frames[i] = wire.GetBuffer()
	}
	return frames
}

func (f replyFrames) release() {
	for _, b := range f {
		wire.PutBuffer(b)
	}
}

// of returns the frame node n's reply is read into.
func (f replyFrames) of(n *node) *wire.Buffer {
	if f == nil {
		return new(wire.Buffer)
	}
	return f[n.id]
}

// combiner holds the by-reference decodings of one fan-out's replies;
// recycled through combiners so a steady query stream decodes and merges
// without allocating per candidate.
type combiner struct {
	refs   []wire.CandidateRefs  // one per reply
	per    [][]wire.CandidateRef // the replies' answers to one query
	next   []int                 // per reply, its next result to read
	counts []wire.BatchCellCountsResp
	runs   [][]mindex.CellRun
}

var combiners = sync.Pool{New: func() any { return new(combiner) }}

// setServerNanos fills in the leading ServerNanos field of a candidate
// reply assembled with it left zero: the figure covers the assembly itself.
func setServerNanos(out *wire.Buffer, nanos uint64) {
	binary.LittleEndian.PutUint64(out.B, nanos)
}

// queryFan answers a batch of queries from the nodes and assembles the flat
// reply (ServerNanos left zero) in out. Queries are validated here first: a
// hostile one is refused before any node is bothered.
//
// An attempt is one or two waves over one read plan. When more than one
// node answers and the batch holds approximate queries, the count wave asks
// every node for its streams as cell runs (countWave), and merge.Runs splits
// each query's CandSize into the nodes' shares. The fetch wave then sends
// every node the batch as a ranked MsgBatchQuery — each approximate query
// with its CandSize cut to the node's share, and left out where the share
// is 0; a node left with no query is sent nothing — and merge.Combine folds
// the per-node answers per query: the very rule engine.ShardedIndex applies
// across shards, so a query answered by N nodes is ordered exactly like one
// answered by a single server. Since a node's share of the merge is a
// prefix of its own stream, the fetch ships only the candidates that win. A node that goes down in either wave
// restarts the whole attempt over a fresh plan. A lone answering node, and a
// batch without an approximate query, skip the count wave.
func (c *Coordinator) queryFan(ctx context.Context, queries []wire.BatchQuery, out *wire.Buffer) error {
	iqs := make([]mindex.Query, len(queries))
	approx := 0
	for i, q := range queries {
		var err error
		if iqs[i], err = q.IndexQuery(int(c.info.NumPivots), nil); err != nil {
			return fmt.Errorf("cluster: batch query %d: %w", i, err)
		}
		if iqs[i].Kind == mindex.KindApprox {
			approx++
		}
	}
	frames := c.leaseFrames()
	defer frames.release()
	cb := combiners.Get().(*combiner)
	defer cb.release()
	return c.attempts(ctx, func() (bool, error) {
		p, err := c.plan()
		if err != nil {
			return false, err
		}
		var shares [][]int
		if approx > 0 && len(p.targets) > 1 {
			var down bool
			if shares, down, err = c.countWave(ctx, p, queries, iqs, frames, cb); down || err != nil {
				return down, err
			}
		}
		var targets []*node
		var payloads [][]byte
		var asked [][]int
		for i, n := range p.targets {
			req := wire.BatchQueryReq{Queries: queries, Ranked: true, Allow: p.allow[i]}
			if shares != nil {
				if req.Queries = fetchQueries(queries, iqs, shares[i]); len(req.Queries) == 0 {
					continue
				}
				asked = append(asked, shares[i])
			}
			targets = append(targets, n)
			payloads = append(payloads, req.Encode())
		}
		replies, down, err := c.wave(ctx, wire.MsgBatchQuery, targets, payloads, frames)
		if down || err != nil {
			return down, err
		}
		for i := range asked {
			replies[i].shares = asked[i]
		}
		return false, cb.combine(iqs, replies, out)
	})
}

// fetchQueries is the batch one node is sent in the fetch wave: every query
// as the client asked it, except that an approximate one asks for the
// node's share of its candidates, and is left out when the share is 0.
func fetchQueries(queries []wire.BatchQuery, iqs []mindex.Query, shares []int) []wire.BatchQuery {
	out := make([]wire.BatchQuery, 0, len(queries))
	for qi, q := range queries {
		if iqs[qi].Kind == mindex.KindApprox {
			if shares[qi] == 0 {
				continue
			}
			q.CandSize = uint32(shares[qi])
		}
		out = append(out, q)
	}
	return out
}

// countWave sends every target of p the batch's approximate queries as a
// Counts request, decodes the cell runs each returns, and merges them per
// query with merge.Runs: shares[i][qi] of query qi's first CandSize
// candidates come from target i (0 for a query that is not approximate).
// The runs are decoded into cb's storage, so the frames are free for the
// fetch wave.
func (c *Coordinator) countWave(ctx context.Context, p readPlan, queries []wire.BatchQuery, iqs []mindex.Query, frames replyFrames, cb *combiner) ([][]int, bool, error) {
	var approx []wire.BatchQuery
	for qi, q := range queries {
		if iqs[qi].Kind == mindex.KindApprox {
			approx = append(approx, q)
		}
	}
	payloads := make([][]byte, len(p.targets))
	for i := range payloads {
		payloads[i] = wire.BatchQueryReq{Queries: approx, Counts: true, Allow: p.allow[i]}.Encode()
	}
	replies, down, err := c.wave(ctx, wire.MsgBatchQuery, p.targets, payloads, frames)
	if down || err != nil {
		return nil, down, err
	}
	cb.counts = slices.Grow(cb.counts[:0], len(replies))[:len(replies)]
	for i, rep := range replies {
		if rep.typ != wire.MsgBatchCellCounts {
			return nil, false, fmt.Errorf("cluster: unexpected node response %v to a count request", rep.typ)
		}
		if err := cb.counts[i].Decode(rep.payload, approx); err != nil {
			return nil, false, fmt.Errorf("cluster: node %s: cell counts: %w", p.targets[i].addr, err)
		}
	}
	shares := make([][]int, len(replies))
	for i := range shares {
		shares[i] = make([]int, len(queries))
	}
	cb.runs = slices.Grow(cb.runs[:0], len(replies))[:len(replies)]
	k := 0
	for qi, iq := range iqs {
		if iq.Kind != mindex.KindApprox {
			continue
		}
		for i := range cb.counts {
			cb.runs[i] = cb.counts[i].Results[k]
		}
		_, per := merge.Runs(cb.runs, iq.CandSize)
		for i, n := range per {
			shares[i][qi] = n
		}
		k++
	}
	clear(cb.runs)
	return shares, false, nil
}

// release drops the combiner's references into the reply frames (they would
// pin the frames while it sits in the pool) and recycles it.
func (cb *combiner) release() {
	for i := range cb.refs {
		cb.refs[i].Reset()
	}
	clear(cb.per)
	combiners.Put(cb)
}

// asked reports whether the reply answers query qi of the batch (iq) and,
// for a query cut at a candidate size — an approximate query, or a range
// that sets one — how many candidates the node was asked for (-1: no
// limit).
func (r *nodeReply) asked(qi int, iq mindex.Query) (sent bool, limit int) {
	switch {
	case iq.Kind == mindex.KindApprox && r.shares != nil:
		return r.shares[qi] > 0, r.shares[qi]
	case iq.CandSize > 0:
		return true, iq.CandSize
	}
	return true, -1
}

// combine decodes the nodes' ranked replies to iqs by reference, folds them
// per query with merge.Combine and writes the flat reply into out. A reply
// answers the queries it was asked (nodeReply.asked), in batch order; one
// that returns more candidates than it was asked for is an error — the
// merge would trim them, but a node that does so is not to be trusted with
// the rest.
func (cb *combiner) combine(iqs []mindex.Query, replies []nodeReply, out *wire.Buffer) error {
	cb.refs = slices.Grow(cb.refs[:0], len(replies))[:len(replies)]
	for i := range replies {
		rep := &replies[i]
		if rep.typ != wire.MsgBatchRankedCandidates {
			return fmt.Errorf("cluster: unexpected node response %v to batch query", rep.typ)
		}
		if err := cb.refs[i].DecodeRanked(rep.payload); err != nil {
			return err
		}
		want := 0
		for qi, iq := range iqs {
			if sent, _ := rep.asked(qi, iq); sent {
				want++
			}
		}
		if len(cb.refs[i].Results) != want {
			return fmt.Errorf("cluster: node returned %d results for %d queries",
				len(cb.refs[i].Results), want)
		}
	}
	out.Reset()
	out.U64(0) // ServerNanos
	out.U32(uint32(len(iqs)))
	cb.per = slices.Grow(cb.per[:0], len(replies))[:len(replies)]
	cb.next = slices.Grow(cb.next[:0], len(replies))[:len(replies)]
	clear(cb.next)
	for qi, iq := range iqs {
		for i := range cb.refs {
			cb.per[i] = nil
			sent, limit := replies[i].asked(qi, iq)
			if !sent {
				continue
			}
			res := cb.refs[i].Results[cb.next[i]]
			cb.next[i]++
			if limit >= 0 && len(res) > limit {
				return fmt.Errorf("cluster: node returned %d candidates for query %d, asked for %d", len(res), qi, limit)
			}
			if iq.Kind == mindex.KindRange {
				if err := checkPage(res, iq.Page); err != nil {
					return fmt.Errorf("cluster: node range page for query %d: %w", qi, err)
				}
			}
			cb.per[i] = res
		}
		winners := merge.Combine(iq, cb.per)
		size := 21 // count and the largest trailer
		for i := range winners {
			size += len(winners[i].Record)
		}
		out.B = slices.Grow(out.B, size)
		out.U32(uint32(len(winners)))
		for i := range winners {
			out.B = append(out.B, winners[i].Record...)
		}
		// A range page's trailer (wire.BatchRankedResp.AppendFlatTo), read
		// off the merged order, whose bounds the nodes sent as promises.
		if iq.Kind == mindex.KindRange {
			wire.AppendPage(out, wire.PageOf(winners, iq.CandSize))
		}
	}
	return nil
}

// checkPage refuses a node's range page that no honest node sends: one out
// of strict bound-key order — the merge needs each node's page sorted — or
// one that goes on after its records reached the budget. (combine has
// already refused one past its candidate size.)
func checkPage(res []wire.CandidateRef, budget int) error {
	for i := range res {
		if lb := res[i].Promise; lb != lb {
			return fmt.Errorf("candidate %d with a NaN bound", i)
		}
		if i > 0 && (mindex.BoundKey{LB: res[i].Promise, ID: res[i].ID}).Compare(mindex.BoundKey{LB: res[i-1].Promise, ID: res[i-1].ID}) <= 0 {
			return fmt.Errorf("candidates out of bound-key order at %d", i)
		}
	}
	if end := mindex.PageEnd(res, budget); end < len(res) {
		return fmt.Errorf("%d candidates over the page budget of %d B, which %d reach", len(res), budget, end)
	}
	return nil
}
