package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Streamed ingest: the bulk-load counterpart of the pipelined batch
// exchange. InsertBatch prepares every entry up front and then ships the
// chunks; InsertStream instead prepares each chunk just before it is
// written, bounded by a window of Options.StreamWindow unacknowledged
// chunks — so the client-side construction work (pivot distances,
// encryption) of chunk k overlaps the transfer and server-side build of
// chunks k-window..k-1. The stream closes with MsgIngestEnd, whose ack the
// server sends only after flushing its WAL: under group-commit policies
// the per-chunk acks defer durability to exactly this point.
//
// Because preparation, transfer and server work deliberately overlap, the
// cost decomposition of a streamed ingest is not additive: CommTime
// reports the wall clock of the whole flight (minus credited server time),
// while DistCompTime/EncryptTime still report the summed CPU time of the
// preparation that ran inside it.

// ingest streams nChunks sequence-numbered ingest frames of type typ over
// one flight of link, at most window of them unacknowledged, and closes the
// stream with MsgIngestEnd, which is written without waiting for the window.
// encode builds chunk seq just before it is written; every ack must echo its
// chunk's sequence number. The flight is charged to costs like one pipelined
// exchange.
func ingest(ctx context.Context, link *wire.Link, typ wire.MsgType, nChunks, window int,
	encode func(seq int) ([]byte, error), costs *stats.Costs) error {
	// serverNanos is summed on the flight's reading goroutine and read once
	// Fly has returned.
	var serverNanos uint64
	_, err := link.Fly(ctx, wire.Flight{
		N:      nChunks + 1,
		Window: window,
		Request: func(seq int) (wire.MsgType, []byte, error) {
			if seq == nChunks {
				return wire.MsgIngestEnd, wire.IngestEndReq{}.Encode(), nil
			}
			payload, err := encode(seq)
			return typ, payload, err
		},
		Reply: func(seq int, f wire.Frame) error {
			if seq == nChunks {
				if err := f.Err(); err != nil {
					return fmt.Errorf("core: ingest end: %w", err)
				}
				if f.Type != wire.MsgAck {
					return fmt.Errorf("core: unexpected ingest end response %v", f.Type)
				}
				ack, err := wire.DecodeAckResp(f.Payload)
				serverNanos += ack.ServerNanos
				return err
			}
			if err := f.Err(); err != nil {
				return fmt.Errorf("core: ingest chunk %d: %w", seq, err)
			}
			if f.Type != wire.MsgIngestChunkAck {
				return fmt.Errorf("core: unexpected ingest response %v", f.Type)
			}
			ack, err := wire.DecodeIngestChunkAckResp(f.Payload)
			if err != nil {
				return err
			}
			if ack.Seq != uint32(seq) {
				return fmt.Errorf("core: ingest ack out of order: got %d, want %d", ack.Seq, seq)
			}
			serverNanos += ack.ServerNanos
			return nil
		},
	}, costs)
	if err != nil {
		return err
	}
	costs.CreditServer(serverNanos)
	return nil
}

// InsertStream is InsertStreamContext without a deadline.
func (c *EncryptedClient) InsertStream(objs []metric.Object) (stats.Costs, error) {
	return c.InsertStreamContext(context.Background(), objs)
}

// InsertStreamContext performs the encrypted bulk insert of Algorithm 1 in
// streaming mode: entries are prepared chunk by chunk (Options.BatchChunk
// objects each) and shipped as pipelined MsgIngestChunk frames with at
// most Options.StreamWindow chunks unacknowledged, so preparation overlaps
// transfer and server-side index building. The final acknowledgment — sent
// after the server's WAL flush — promises every chunk is applied and
// durable. A flight that fails mid-stream leaves an unknown prefix of the
// batch inserted; re-running it reports a duplicate-ID error (the engine
// rejects re-inserts), so callers retry with fresh IDs or distinct data.
func (c *EncryptedClient) InsertStreamContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		costs.Finish(start)
		return costs, nil
	}
	chunk := c.opts.BatchChunk
	err := ingest(ctx, c.link, wire.MsgIngestChunk, c.chunkCount(len(objs)), c.opts.StreamWindow,
		func(seq int) ([]byte, error) {
			sub := objs[seq*chunk : min((seq+1)*chunk, len(objs))]
			entries, err := c.prepareEntries(sub, &costs)
			if err != nil {
				return nil, err
			}
			return wire.IngestChunkReq{Seq: uint32(seq), Entries: entries}.Encode(), nil
		}, &costs)
	if err != nil {
		return costs, err
	}
	costs.Finish(start)
	return costs, nil
}

// InsertStream is InsertStreamContext without a deadline.
func (c *PlainClient) InsertStream(objs []metric.Object) (stats.Costs, error) {
	return c.InsertStreamContext(context.Background(), objs)
}

// InsertStreamContext uploads raw objects in streaming mode: pipelined
// MsgIngestObjChunk frames windowed by the server's acks (the plain client
// takes no Options, so the chunk size and window are the encrypted
// client's defaults). There is no per-object preparation to overlap, but a
// large upload still interleaves transfer with server-side distance
// computation and index building instead of buffering the whole batch in
// one frame.
func (c *PlainClient) InsertStreamContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		costs.Finish(start)
		return costs, nil
	}
	const chunk = 64 // Options.BatchChunk default
	const window = 4 // Options.StreamWindow default
	nChunks := (len(objs) + chunk - 1) / chunk
	err := ingest(ctx, c.link, wire.MsgIngestObjChunk, nChunks, window,
		func(seq int) ([]byte, error) {
			sub := objs[seq*chunk : min((seq+1)*chunk, len(objs))]
			return wire.IngestObjChunkReq{Seq: uint32(seq), Objects: sub}.Encode(), nil
		}, &costs)
	if err != nil {
		return costs, err
	}
	costs.Finish(start)
	return costs, nil
}

// InsertStream is InsertStreamContext without a deadline.
func (c *DirectClient) InsertStream(objs []metric.Object) (stats.Costs, error) {
	return c.InsertStreamContext(context.Background(), objs)
}

// InsertStreamContext performs the bulk insert chunk by chunk against the
// embedded engine: in-process there is no wire to overlap, but preparing
// and inserting in Options.BatchChunk-sized chunks bounds peak memory the
// same way the networked stream does and keeps the surface drop-in
// compatible across the backends. Chunks below the engine's bulk-build
// threshold take the incremental path — arrival order, and therefore index
// bytes, match a single InsertBulk of the whole batch either way.
func (c *DirectClient) InsertStreamContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	chunk := c.opts.BatchChunk
	for at := 0; at < len(objs); at += chunk {
		if err := ctx.Err(); err != nil {
			return costs, fmt.Errorf("core: direct ingest aborted: %w", err)
		}
		entries, err := c.prepareEntries(objs[at:min(at+chunk, len(objs))], &costs)
		if err != nil {
			return costs, err
		}
		engStart := time.Now()
		err = c.eng.InsertBulk(entries)
		costs.ServerTime += time.Since(engStart)
		if err != nil {
			return costs, err
		}
	}
	costs.Finish(start)
	return costs, nil
}
