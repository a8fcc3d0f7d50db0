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
// mindex.AppendEntry's bytes). A candidate that loses the merge is never
// touched.
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
	refs []wire.CandidateRefs  // one per reply
	per  [][]wire.CandidateRef // the replies' answers to one query
}

var combiners = sync.Pool{New: func() any { return new(combiner) }}

// setServerNanos fills in the leading ServerNanos field of a candidate
// reply assembled with it left zero: the figure covers the assembly itself.
func setServerNanos(out *wire.Buffer, nanos uint64) {
	binary.LittleEndian.PutUint64(out.B, nanos)
}

// queryFan fans a batch of queries out to the nodes as one ranked
// MsgBatchQuery, combines the per-node answers per query with merge.Combine
// — the very rule engine.ShardedIndex applies across shards, so a query
// answered by N nodes is ordered exactly like one answered by a single
// server — and assembles the flat reply (ServerNanos left zero) in out.
// Queries are validated here first: a hostile one is refused before any node
// is bothered.
func (c *Coordinator) queryFan(ctx context.Context, queries []wire.BatchQuery, out *wire.Buffer) error {
	iqs := make([]mindex.Query, len(queries))
	for i, q := range queries {
		var err error
		if iqs[i], err = q.IndexQuery(int(c.info.NumPivots), nil); err != nil {
			return fmt.Errorf("cluster: batch query %d: %w", i, err)
		}
	}
	frames := c.leaseFrames()
	defer frames.release()
	replies, err := c.readFan(ctx, func(allow []int32) (wire.MsgType, []byte) {
		return wire.MsgBatchQuery, wire.BatchQueryReq{Queries: queries, Ranked: true, Allow: allow}.Encode()
	}, frames)
	if err != nil {
		return err
	}
	cb := combiners.Get().(*combiner)
	defer cb.release()
	return cb.combine(iqs, replies, out)
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

// combine decodes the nodes' ranked replies to iqs by reference, folds them
// per query with merge.Combine and writes the flat reply into out.
func (cb *combiner) combine(iqs []mindex.Query, replies []nodeReply, out *wire.Buffer) error {
	cb.refs = slices.Grow(cb.refs[:0], len(replies))[:len(replies)]
	for i, rep := range replies {
		if rep.typ != wire.MsgBatchRankedCandidates {
			return fmt.Errorf("cluster: unexpected node response %v to batch query", rep.typ)
		}
		if err := cb.refs[i].DecodeRanked(rep.payload); err != nil {
			return err
		}
		if len(cb.refs[i].Results) != len(iqs) {
			return fmt.Errorf("cluster: node returned %d results for %d queries",
				len(cb.refs[i].Results), len(iqs))
		}
	}
	out.Reset()
	out.U64(0) // ServerNanos
	out.U32(uint32(len(iqs)))
	cb.per = slices.Grow(cb.per[:0], len(replies))[:len(replies)]
	for qi, iq := range iqs {
		for i := range cb.refs {
			cb.per[i] = cb.refs[i].Results[qi]
		}
		winners := merge.Combine(iq, cb.per)
		size := 12 // count and a bound trailer
		for i := range winners {
			size += len(winners[i].Record)
		}
		out.B = slices.Grow(out.B, size)
		out.U32(uint32(len(winners)))
		for i := range winners {
			out.B = append(out.B, winners[i].Record...)
		}
		if iq.Kind == mindex.KindBound {
			// The flat reply's trailer (wire.BatchRankedResp.AppendFlatTo):
			// the merged order's last bound, which the nodes sent as promises.
			var lb float64
			if len(winners) > 0 {
				lb = winners[len(winners)-1].Promise
			}
			out.F64(lb)
		}
	}
	return nil
}
