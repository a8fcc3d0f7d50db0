package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

// handle serves one client request: the coordinator's wire.Handler. Its
// ServerNanos covers all the client cannot see past its socket: coordinator
// work plus the node round trips. A batch query's candidate reply is
// assembled in out and aliases it.
func (c *Coordinator) handle(typ wire.MsgType, payload []byte, start time.Time, out *wire.Buffer) (wire.MsgType, []byte, error) {
	switch typ {
	case wire.MsgHello:
		if _, err := wire.DecodeHelloReq(payload); err != nil {
			return 0, nil, err
		}
		info, err := c.aggregateHello(c.ctx)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgHelloAck, info.Encode(), nil

	case wire.MsgIngestChunk:
		req, err := wire.DecodeIngestChunkReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := c.insertReplicated(c.ctx, req.Entries); err != nil {
			return 0, nil, err
		}
		return wire.MsgIngestChunkAck, wire.IngestChunkAckResp{
			Seq: req.Seq, ServerNanos: uint64(time.Since(start)),
		}.Encode(), nil

	case wire.MsgIngestEnd:
		if _, err := wire.DecodeIngestEndReq(payload); err != nil {
			return 0, nil, err
		}
		if err := c.flushIngest(c.ctx); err != nil {
			return 0, nil, err
		}
		return wire.MsgAck, wire.AckResp{ServerNanos: uint64(time.Since(start))}.Encode(), nil

	case wire.MsgDeleteEntries:
		req, err := wire.DecodeDeleteEntriesReq(payload)
		if err != nil {
			return 0, nil, err
		}
		deleted, err := c.deleteReplicated(c.ctx, req.Refs)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgDeleteAck, wire.DeleteAckResp{
			ServerNanos: uint64(time.Since(start)), Deleted: deleted,
		}.Encode(), nil

	case wire.MsgBatchQuery:
		req, err := wire.DecodeBatchQueryReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if req.Ranked || req.Counts || req.Allow != nil {
			return 0, nil, errNodeLevelRead
		}
		if err := c.queryFan(c.ctx, req.Queries, out); err != nil {
			return 0, nil, err
		}
		setServerNanos(out, uint64(time.Since(start)))
		return wire.MsgBatchCandidates, out.B, nil
	}
	if err := wire.RetiredError(typ); err != nil {
		return 0, nil, err
	}
	return 0, nil, fmt.Errorf("cluster: request type %v is not federated; connect to a node directly", typ)
}

// errNodeLevelRead refuses a client read that sets the fields the
// coordinator itself uses on the node hop: ranked and counted replies and
// first-level allow-lists are how it combines and de-duplicates node
// answers, not something it can layer a second time.
var errNodeLevelRead = errors.New("cluster: ranked, counted and pivot-filtered reads are node-level; connect to a node directly")

// sendChunk delivers entries to n as one MsgIngestChunk and decodes its
// ack, so a node's malformed ack is an error. Every node-ward insert is one
// chunk, so a client's chunk flight stays a chunk flight on the node hop,
// where a group-commit WAL amortizes fsyncs until a forwarded end-of-stream
// flush (see flushIngest). The chunk carries sequence number 0: every client's writes to a node share its write
// lane, one leased round trip at a time, so the coordinator forwards each
// chunk as its own one-chunk stream and the nodes (by design) ignore chunk
// numbering.
func (c *Coordinator) sendChunk(ctx context.Context, n *node, entries []mindex.Entry) error {
	respType, resp, err := n.roundTrip(ctx, wire.MsgIngestChunk,
		wire.IngestChunkReq{Entries: entries}.Encode(), c.opts.NodeTimeout, new(wire.Buffer))
	if err != nil {
		return err
	}
	if respType != wire.MsgIngestChunkAck {
		return fmt.Errorf("cluster: node %s: unexpected insert response %v", n.addr, respType)
	}
	if _, err := wire.DecodeIngestChunkAckResp(resp); err != nil {
		return fmt.Errorf("cluster: node %s: insert ack: %w", n.addr, err)
	}
	return nil
}

// sendDelete delivers refs to n as one MsgDeleteEntries and returns the
// count its decoded ack reports.
func (c *Coordinator) sendDelete(ctx context.Context, n *node, refs []mindex.Entry) (uint32, error) {
	respType, resp, err := n.roundTrip(ctx, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: refs}.Encode(), c.opts.NodeTimeout, new(wire.Buffer))
	if err != nil {
		return 0, err
	}
	if respType != wire.MsgDeleteAck {
		return 0, fmt.Errorf("cluster: node %s: unexpected delete response %v", n.addr, respType)
	}
	ack, err := wire.DecodeDeleteAckResp(resp)
	if err != nil {
		return 0, fmt.Errorf("cluster: node %s: delete ack: %w", n.addr, err)
	}
	return ack.Deleted, nil
}

// flushIngest forwards a client's end-of-stream frame to every live node,
// so the final ack the coordinator returns carries the same durability
// promise a single server gives: every streamed chunk applied and
// WAL-flushed. A down node's missed chunks sit in its re-sync journal and
// reach it during re-admission, with the node's own WAL policy governing
// their durability — the same window the SyncNever tail already has.
func (c *Coordinator) flushIngest(ctx context.Context) error {
	replies, err := c.broadcast(ctx, wire.MsgIngestEnd, wire.IngestEndReq{}.Encode())
	if err != nil {
		return err
	}
	for _, rep := range replies {
		if rep.typ != wire.MsgAck {
			return fmt.Errorf("cluster: unexpected ingest-end response %v", rep.typ)
		}
		if _, err := wire.DecodeAckResp(rep.payload); err != nil {
			return err
		}
	}
	return nil
}

// nodeReply is one node's response frame within a fan-out. The payload
// aliases the node's leased frame when the fan-out was given frames.
type nodeReply struct {
	typ     wire.MsgType
	payload []byte
	// shares is set on the fetch wave of a two-wave read (see queryFan): per
	// query of the batch, how many candidates of an approximate query the
	// node was asked for, 0 for one it was not sent. Nil when the node was
	// sent the batch as the client asked it.
	shares []int
}

// attempts runs attempt until it completes without a node going down. A
// node that fails at the transport level in any wave of an attempt is marked
// down (node.roundTrip), and the next attempt plans afresh over the
// survivors — a read stays exact across a node death while every cell keeps
// a live owner, and fails naming the first cell that has none (plan).
// Application errors end the loop.
func (c *Coordinator) attempts(ctx context.Context, attempt func() (down bool, err error)) error {
	for {
		// Cancellation check between attempts: a node death triggers a full
		// retry, and that loop must not outlive the coordinator (or a future
		// per-request deadline).
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: fan-out aborted: %w", err)
		}
		down, err := attempt()
		if err != nil || !down {
			return err
		}
	}
}

// wave sends target i payloads[i] through the bounded pool and collects
// the replies parallel to targets. Replies are read into the caller's leased
// frames (see replyFrames) when given, and into slices of their own when
// frames is nil. down reports that some target failed at the transport
// level; the caller retries the attempt.
func (c *Coordinator) wave(ctx context.Context, t wire.MsgType, targets []*node, payloads [][]byte, frames replyFrames) (replies []nodeReply, down bool, err error) {
	replies = make([]nodeReply, len(targets))
	var anyDown atomic.Bool
	err = c.pool.Run(len(targets), func(i int) error {
		respType, resp, err := targets[i].roundTrip(ctx, t, payloads[i], c.opts.NodeTimeout, frames.of(targets[i]))
		if err != nil {
			if isNodeDown(err) {
				c.opts.Logf("simcoord: %v; retrying over surviving nodes", err)
				anyDown.Store(true)
				return nil
			}
			return err
		}
		replies[i] = nodeReply{typ: respType, payload: resp}
		return nil
	})
	return replies, anyDown.Load(), err
}

// broadcast sends the same request to every live node and collects the
// replies, each in a slice of its own, in node order, retrying over the
// survivors when a node dies.
func (c *Coordinator) broadcast(ctx context.Context, t wire.MsgType, payload []byte) ([]nodeReply, error) {
	var replies []nodeReply
	err := c.attempts(ctx, func() (bool, error) {
		targets := c.alive()
		if len(targets) == 0 {
			return false, errNoLiveNodes
		}
		var down bool
		var err error
		replies, down, err = c.wave(ctx, t, targets, slices.Repeat([][]byte{payload}, len(targets)), nil)
		return down, err
	})
	return replies, err
}

// readPlan is one read attempt's assignment: the nodes that answer it, in
// node-id order — the source order of the merge and of a download-all's
// concatenation — and the first-level cells each one serves.
type readPlan struct {
	targets []*node
	allow   [][]int32
}

// plan assigns a read attempt: every first-level cell to its first live
// owner (assignReadOwners), so the union of the answers covers every cell
// exactly once.
func (c *Coordinator) plan() (readPlan, error) {
	allow, err := c.assignReadOwners()
	if err != nil {
		return readPlan{}, err
	}
	var p readPlan
	for i, cells := range allow {
		if len(cells) > 0 {
			p.targets = append(p.targets, c.nodes[i])
			p.allow = append(p.allow, cells)
		}
	}
	return p, nil
}

// aggregateHello answers a client hello with the cluster-wide view: the
// agreed index shape plus entry and shard counts summed over the live
// nodes.
func (c *Coordinator) aggregateHello(ctx context.Context) (wire.HelloResp, error) {
	replies, err := c.broadcast(ctx, wire.MsgHello, wire.HelloReq{}.Encode())
	if err != nil {
		return wire.HelloResp{}, err
	}
	out := c.info
	out.Entries = 0
	out.Shards = 0
	for _, rep := range replies {
		if rep.typ != wire.MsgHelloAck {
			return wire.HelloResp{}, fmt.Errorf("cluster: unexpected node response %v to hello", rep.typ)
		}
		m, err := wire.DecodeHelloResp(rep.payload)
		if err != nil {
			return wire.HelloResp{}, err
		}
		out.Entries += m.Entries
		out.Shards += m.Shards
	}
	return out, nil
}
