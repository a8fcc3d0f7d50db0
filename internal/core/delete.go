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

// DeleteContext removes the given objects from the encrypted index under
// ctx: the references ship as one pipelined flight of MsgDeleteEntries
// frames of Options.BatchChunk references each (see deleteFlight). Objects
// the server does not know (or already deleted) are skipped; the count of
// entries actually deleted is returned.
func (c *EncryptedClient) DeleteContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	refs := c.deleteRefs(objs, &costs)
	deleted, err := deleteFlight(ctx, c.link, len(refs), c.opts.BatchChunk, func(lo, hi int) (wire.MsgType, []byte) {
		return wire.MsgDeleteEntries, wire.DeleteEntriesReq{Refs: refs[lo:hi]}.Encode()
	}, &costs)
	if err != nil {
		return deleted, costs, err
	}
	costs.Finish(start)
	return deleted, costs, nil
}

// deleteFlight ships n delete items as one pipelined flight of frames of
// chunk items each, all encoded before the flight (encode builds the frame
// of items [lo, hi)) — the mutation mirror of an insert, charged to costs
// as one round trip — and sums the deleted counts of their MsgDeleteAck
// replies. Chunks are applied in order; the count returned with an error is
// the part acknowledged before it.
func deleteFlight(ctx context.Context, link *wire.Link, n, chunk int,
	encode func(lo, hi int) (wire.MsgType, []byte), costs *stats.Costs) (int, error) {
	if n == 0 {
		return 0, nil
	}
	reqs := make([]wire.Frame, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		t, payload := encode(lo, min(lo+chunk, n))
		reqs = append(reqs, wire.Frame{Type: t, Payload: payload})
	}
	resps, err := link.Exchange(ctx, reqs, costs)
	if err != nil {
		return 0, err
	}
	defer wire.ReleaseFrames(resps)
	deleted := 0
	for ci, r := range resps {
		if err := r.Err(); err != nil {
			lo := ci * chunk
			return deleted, fmt.Errorf("core: delete chunk %d (objects %d..%d): %w", ci, lo, min(lo+chunk, n)-1, err)
		}
		if r.Type != wire.MsgDeleteAck {
			return deleted, fmt.Errorf("core: unexpected delete response %v", r.Type)
		}
		ack, err := wire.DecodeDeleteAckResp(r.Payload)
		if err != nil {
			return deleted, err
		}
		deleted += int(ack.Deleted)
		costs.CreditServer(ack.ServerNanos)
	}
	return deleted, nil
}
