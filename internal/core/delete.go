package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Deletion: the encrypted similarity cloud is mutable. To delete an object
// the client recomputes its pivot permutation (it holds the plaintext and
// the pivots) and ships {ID, permutation prefix} references — exactly the
// routing metadata the original insert revealed, so deletion leaks nothing
// new to the server. The server tombstones the entries immediately and
// reclaims the storage on its next compaction.

// deleteRefs performs the per-object client work of a delete: pivot
// distances (for the permutation) and the routing prefix. No encryption is
// involved — only the reference leaves the client.
func (c *coder) deleteRefs(objs []metric.Object, costs *stats.Costs) []mindex.Entry {
	sc := c.newPivotScratch()
	refs := make([]mindex.Entry, len(objs))
	for i, o := range objs {
		refs[i] = mindex.Entry{ID: o.ID, Perm: c.routingPrefix(sc, o.Vec, costs)}
	}
	return refs
}

// Delete is DeleteContext without a deadline.
func (c *EncryptedClient) Delete(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}

// DeleteContext removes the given objects from the encrypted index in one
// round trip under ctx. Objects the server does not know (or already
// deleted) are skipped; the count of entries actually deleted is returned.
func (c *EncryptedClient) DeleteContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		costs.Finish(start)
		return 0, costs, nil
	}
	refs := c.deleteRefs(objs, &costs)
	respType, resp, err := c.link.RoundTrip(ctx, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: refs}.Encode(), new(wire.Buffer), &costs)
	if err != nil {
		return 0, costs, err
	}
	if respType != wire.MsgDeleteAck {
		return 0, costs, fmt.Errorf("core: unexpected delete response %v", respType)
	}
	ack, err := wire.DecodeDeleteAckResp(resp)
	if err != nil {
		return 0, costs, err
	}
	costs.CreditServer(ack.ServerNanos)
	costs.Finish(start)
	return int(ack.Deleted), costs, nil
}

// DeleteBatch is DeleteBatchContext without a deadline.
func (c *EncryptedClient) DeleteBatch(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteBatchContext(context.Background(), objs)
}

// DeleteBatchContext is Delete with chunked pipelining: the references are
// shipped as a sequence of MsgDeleteEntries frames of Options.BatchChunk
// references each, all in flight at once — the mutation mirror of
// InsertBatch, sharing its cost accounting (one round trip for the whole
// flight) and its context semantics.
func (c *EncryptedClient) DeleteBatchContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		costs.Finish(start)
		return 0, costs, nil
	}
	refs := c.deleteRefs(objs, &costs)
	chunk := c.opts.BatchChunk
	reqs := make([]wire.Frame, 0, c.chunkCount(len(refs)))
	for at := 0; at < len(refs); at += chunk {
		reqs = append(reqs, wire.Frame{
			Type:    wire.MsgDeleteEntries,
			Payload: wire.DeleteEntriesReq{Refs: refs[at:min(at+chunk, len(refs))]}.Encode(),
		})
	}
	resps, err := c.link.Exchange(ctx, reqs, &costs)
	if err != nil {
		return 0, costs, err
	}
	defer wire.ReleaseFrames(resps)
	deleted := 0
	for ci, r := range resps {
		if err := r.Err(); err != nil {
			lo := ci * chunk
			return deleted, costs, fmt.Errorf("core: delete chunk %d (objects %d..%d): %w",
				ci, lo, min(lo+chunk, len(refs))-1, err)
		}
		if r.Type != wire.MsgDeleteAck {
			return deleted, costs, fmt.Errorf("core: unexpected batch delete response %v", r.Type)
		}
		ack, err := wire.DecodeDeleteAckResp(r.Payload)
		if err != nil {
			return deleted, costs, err
		}
		deleted += int(ack.Deleted)
		costs.CreditServer(ack.ServerNanos)
	}
	costs.Finish(start)
	return deleted, costs, nil
}
