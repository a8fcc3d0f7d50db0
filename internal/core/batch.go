package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Batched operations chunk their work into frames of Options.BatchChunk
// items and pipeline the chunks — every request frame is written back to
// back while a reader goroutine drains the responses — so k operations pay
// one round-trip latency plus streaming instead of k sequential round
// trips. The server processes pipelined frames in order (each one fanning
// out across its index shards), so responses match requests positionally.
//
// The whole flight runs on one leased connection of the client's link under
// the caller's context (wire.Link.Fly).

// chunkCount returns the number of BatchChunk-sized chunks covering n.
func (c *coder) chunkCount(n int) int {
	return (n + c.opts.BatchChunk - 1) / c.opts.BatchChunk
}

// InsertBatch is InsertBatchContext without a deadline.
func (c *EncryptedClient) InsertBatch(objs []metric.Object) (stats.Costs, error) {
	return c.InsertBatchContext(context.Background(), objs)
}

// InsertBatchContext is Insert with chunked pipelining: the prepared
// entries are shipped as a sequence of MsgInsertEntries frames of
// Options.BatchChunk entries each, all in flight at once. On a sharded
// server every chunk is routed to the index shards in parallel, so ingest
// overlaps transfer, framing and indexing instead of serializing them.
func (c *EncryptedClient) InsertBatchContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		costs.Finish(start)
		return costs, nil
	}
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	chunk := c.opts.BatchChunk
	reqs := make([]wire.Frame, 0, c.chunkCount(len(entries)))
	for at := 0; at < len(entries); at += chunk {
		reqs = append(reqs, wire.Frame{
			Type:    wire.MsgInsertEntries,
			Payload: wire.InsertEntriesReq{Entries: entries[at:min(at+chunk, len(entries))]}.Encode(),
		})
	}
	resps, err := c.link.Exchange(ctx, reqs, &costs)
	if err != nil {
		return costs, err
	}
	defer wire.ReleaseFrames(resps)
	for ci, r := range resps {
		if err := r.Err(); err != nil {
			lo := ci * chunk
			return costs, fmt.Errorf("core: insert chunk %d (objects %d..%d): %w",
				ci, lo, min(lo+chunk, len(entries))-1, err)
		}
		if r.Type != wire.MsgAck {
			return costs, fmt.Errorf("core: unexpected batch insert response %v", r.Type)
		}
		ack, err := wire.DecodeAckResp(r.Payload)
		if err != nil {
			return costs, err
		}
		costs.CreditServer(ack.ServerNanos)
	}
	costs.Finish(start)
	return costs, nil
}
