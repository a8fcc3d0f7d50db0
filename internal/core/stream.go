package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Insert and streamed ingest: one flight of chunk frames. Every networked
// insert ships as sequence-numbered chunk frames of Options.BatchChunk items
// (MsgIngestChunk for entries, MsgIngestObjChunk for raw objects), pipelined
// over one leased connection of the client's link (wire.Link.Fly), so k
// chunks pay one round-trip latency plus streaming and no insert is one
// frame however large. The server applies the chunks in arrival order, each
// fanning out across its index shards.
//
// Insert prepares every entry up front and then ships the chunks, so its
// cost decomposition stays additive: construction time, then the flight.
// InsertStream instead prepares each chunk just before it is written,
// bounded by a window of Options.StreamWindow unacknowledged chunks — so
// the client-side construction work (pivot distances, encryption) of chunk
// k overlaps the transfer and server-side build of chunks k-window..k-1.
// The stream closes with MsgIngestEnd, whose ack the server sends only
// after flushing its WAL: under group-commit policies the per-chunk acks
// defer durability to exactly this point. Because preparation, transfer and
// server work deliberately overlap, a stream's cost decomposition is not
// additive: CommTime reports the wall clock of the whole flight (minus
// credited server time), while DistCompTime/EncryptTime still report the
// summed CPU time of the preparation that ran inside it.

// chunkCount returns the number of BatchChunk-sized chunks covering n.
func (c *coder) chunkCount(n int) int {
	return (n + c.opts.BatchChunk - 1) / c.opts.BatchChunk
}

// ingest ships nChunks sequence-numbered chunk frames of type typ over one
// flight of link; encode builds chunk seq. With window 0 the flight is an
// insert: every chunk is encoded before the flight starts — so encoding
// counts as client time and the cost decomposition stays additive — and no
// end frame follows. With window > 0 it is a stream: each chunk is encoded
// just before it is written, at most window of them unacknowledged, and
// MsgIngestEnd closes the flight, written without waiting for the window.
// Every ack must echo its chunk's sequence number. The flight is charged to
// costs like one pipelined exchange, and the acks' server and distance
// times are credited to it.
func ingest(ctx context.Context, link *wire.Link, typ wire.MsgType, nChunks, window int,
	encode func(seq int) ([]byte, error), costs *stats.Costs) error {
	if nChunks == 0 {
		return nil
	}
	n, chunkPayload := nChunks+1, encode
	if window == 0 {
		payloads := make([][]byte, nChunks)
		for seq := range payloads {
			var err error
			if payloads[seq], err = encode(seq); err != nil {
				return err
			}
		}
		n, chunkPayload = nChunks, func(seq int) ([]byte, error) { return payloads[seq], nil }
	}
	// serverNanos and distNanos are summed on the flight's reading goroutine
	// and read once Fly has returned.
	var serverNanos, distNanos uint64
	_, err := link.Fly(ctx, wire.Flight{
		N:      n,
		Window: window,
		Request: func(seq int) (wire.MsgType, []byte, error) {
			if seq == nChunks {
				return wire.MsgIngestEnd, wire.IngestEndReq{}.Encode(), nil
			}
			payload, err := chunkPayload(seq)
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
			distNanos += ack.DistNanos
			return nil
		},
	}, costs)
	if err != nil {
		return err
	}
	costs.CreditServer(serverNanos)
	costs.DistCompTime += time.Duration(distNanos) // server-side distance time (raw objects)
	return nil
}

// objChunks returns the chunk encoder of a raw-object upload in chunks of
// chunk objects.
func objChunks(objs []metric.Object, chunk int) func(seq int) ([]byte, error) {
	return func(seq int) ([]byte, error) {
		sub := objs[seq*chunk : min((seq+1)*chunk, len(objs))]
		return wire.IngestObjChunkReq{Seq: uint32(seq), Objects: sub}.Encode(), nil
	}
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
// durable. A flight that fails mid-stream leaves whole chunks of the batch
// inserted, as an Insert does; re-running it reports a duplicate-ID error
// (the engine rejects re-inserts), so callers retry with fresh IDs or
// distinct data.
func (c *EncryptedClient) InsertStreamContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
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

// InsertStreamContext uploads raw objects in streaming mode: the Insert
// flight of MsgIngestObjChunk frames, windowed by the server's acks and
// closed with MsgIngestEnd. There is no per-object preparation to overlap,
// but a large upload still interleaves transfer with server-side distance
// computation and index building.
func (c *PlainClient) InsertStreamContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	err := ingest(ctx, c.link, wire.MsgIngestObjChunk, plainChunks(len(objs)), plainWindow,
		objChunks(objs, plainChunk), &costs)
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
