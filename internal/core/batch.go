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
// The whole flight runs on one leased connection under the caller's
// context: the context deadline bounds it, cancellation interrupts the
// blocked reader, and the writer checks for cancellation between chunks. A
// flight that dies mid-pipeline leaves its connection with unread frames
// in transit, so the lease is discarded, never pooled.

// frame is one protocol frame of a pipelined exchange. A response frame's
// payload sits in buf, a pooled buffer the receiver of the exchange holds
// until it is done with everything decoded out of the payload — by
// reference, on the query path — and then gives back with releaseFrames.
type frame struct {
	typ     wire.MsgType
	payload []byte
	buf     *wire.Buffer
}

// releaseFrames returns the response frames of an exchange to wire's pool.
func releaseFrames(resps []frame) {
	for _, r := range resps {
		if r.buf != nil {
			wire.PutBuffer(r.buf)
		}
	}
}

// exchange leases a connection, pipelines the request frames over it under
// ctx, and returns the matching response frames in order; the caller
// releases them (releaseFrames). Wire time and bytes for the whole flight
// are accounted to costs as a single round trip (the chunks share the
// connection; latency is paid once).
func (c *EncryptedClient) exchange(ctx context.Context, reqs []frame, costs *stats.Costs) ([]frame, error) {
	var resps []frame
	err := c.pool.withConn(ctx, func(conn *wire.CountingConn) error {
		var err error
		resps, err = exchange(ctx, conn, reqs, costs)
		return err
	})
	return resps, err
}

// exchange pipelines reqs over conn under ctx.
func exchange(ctx context.Context, conn *wire.CountingConn, reqs []frame, costs *stats.Costs) ([]frame, error) {
	disarm, err := wire.ArmContext(ctx, conn)
	if err != nil {
		return nil, err
	}
	sentBefore, recvBefore := conn.BytesWritten(), conn.BytesRead()
	ioStart := time.Now()
	resps := make([]frame, len(reqs))
	readDone := make(chan error, 1)
	go func() {
		for i := range resps {
			buf := wire.GetBuffer()
			resps[i].buf = buf
			typ, payload, err := wire.ReadFrameInto(conn, buf)
			if err != nil {
				readDone <- err
				return
			}
			resps[i].typ, resps[i].payload = typ, payload
		}
		readDone <- nil
	}()
	var writeErr error
	for _, r := range reqs {
		// Cancellation check between chunks: a long flight stops writing
		// promptly instead of discovering the dead context at read time.
		if err := ctx.Err(); err != nil {
			writeErr = err
			break
		}
		if err := wire.WriteFrame(conn, r.typ, r.payload); err != nil {
			writeErr = err
			break
		}
	}
	if writeErr != nil {
		// The reader may be waiting for responses that will never come;
		// force its pending read to fail. ArmContext's disarm restores the
		// deadline after the single readDone receive below.
		conn.SetReadDeadline(time.Now())
	}
	readErr := <-readDone
	costs.CommTime += time.Since(ioStart)
	costs.BytesSent += conn.BytesWritten() - sentBefore
	costs.BytesReceived += conn.BytesRead() - recvBefore
	costs.RoundTrips++
	err = writeErr
	if err == nil {
		err = readErr
	}
	if err = disarm(err); err != nil {
		releaseFrames(resps)
		return nil, err
	}
	return resps, nil
}

// respError interprets a MsgError response frame (nil for any other type).
// Callers attach their own chunk context: a server error names the failing
// item by its index *within one frame*, which is meaningless to the user
// without the chunk's offset in the original batch.
func respError(r frame) error {
	if r.typ != wire.MsgError {
		return nil
	}
	m, derr := wire.DecodeErrorResp(r.payload)
	if derr != nil {
		return derr
	}
	return &wire.RemoteError{Msg: m.Msg}
}

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
		finish(&costs, start)
		return costs, nil
	}
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	chunk := c.opts.BatchChunk
	reqs := make([]frame, 0, c.chunkCount(len(entries)))
	for at := 0; at < len(entries); at += chunk {
		reqs = append(reqs, frame{
			typ:     wire.MsgInsertEntries,
			payload: wire.InsertEntriesReq{Entries: entries[at:min(at+chunk, len(entries))]}.Encode(),
		})
	}
	resps, err := c.exchange(ctx, reqs, &costs)
	if err != nil {
		return costs, err
	}
	defer releaseFrames(resps)
	for ci, r := range resps {
		if err := respError(r); err != nil {
			lo := ci * chunk
			return costs, fmt.Errorf("core: insert chunk %d (objects %d..%d): %w",
				ci, lo, min(lo+chunk, len(entries))-1, err)
		}
		if r.typ != wire.MsgAck {
			return costs, fmt.Errorf("core: unexpected batch insert response %v", r.typ)
		}
		ack, err := wire.DecodeAckResp(r.payload)
		if err != nil {
			return costs, err
		}
		creditServer(&costs, ack.ServerNanos)
	}
	finish(&costs, start)
	return costs, nil
}
