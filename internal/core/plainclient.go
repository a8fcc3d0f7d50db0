package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// PlainClient is the client of the basic (non-encrypted) M-Index
// deployment, the baseline of the paper's comparison tables. It ships raw
// objects and queries; the server does all the work and returns final
// answers, so "the amount of work on the client is negligible".
//
// Like EncryptedClient it is safe for concurrent use: operations lease
// connections from its wire.Link, and it implements the same Searcher
// interface, so baseline-vs-encrypted experiments run the identical query
// code against both deployments.
type PlainClient struct {
	addr string
	link *wire.Link
}

var _ Searcher = (*PlainClient)(nil)

// DialPlain connects to the plain server at addr. Equivalent to
// DialPlainContext with the background context.
func DialPlain(addr string) (*PlainClient, error) {
	return DialPlainContext(context.Background(), addr)
}

// DialPlainContext connects to the plain server at addr. The first
// connection is established eagerly under ctx — including a hello
// handshake verifying the server really runs the plain deployment — so a
// wrong address fails here, not on the first query.
func DialPlainContext(ctx context.Context, addr string) (*PlainClient, error) {
	c := &PlainClient{addr: addr, link: dialLink(addr, wire.HelloModePlain, 0)}
	if err := c.link.Warm(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the server address the client dials.
func (c *PlainClient) Addr() string { return c.addr }

// PoolStats reports the link's current depth and lifetime dial/discard
// counters.
func (c *PlainClient) PoolStats() PoolStats { return c.link.Stats() }

// Close releases every pooled connection, interrupting in-flight
// operations.
func (c *PlainClient) Close() error { return c.link.Close() }

// Insert is InsertContext without a deadline.
func (c *PlainClient) Insert(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// The plain client takes no Options: its chunk size and stream window are
// the encrypted client's defaults.
const plainChunk, plainWindow = 64, 4

// plainChunks returns the number of plainChunk-sized chunks covering n.
func plainChunks(n int) int { return (n + plainChunk - 1) / plainChunk }

// InsertContext uploads a bulk of raw objects as one pipelined flight of
// MsgIngestObjChunk frames; the server computes pivot distances and builds
// the index, and its distance time is reported as DistCompTime. Chunks are
// applied in order, as an encrypted Insert's are.
func (c *PlainClient) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	err := ingest(ctx, c.link, wire.MsgIngestObjChunk, plainChunks(len(objs)), 0,
		objChunks(objs, plainChunk), &costs)
	if err != nil {
		return costs, err
	}
	costs.Finish(start)
	return costs, nil
}

// plainKinds maps a query kind onto its plain-protocol kind.
var plainKinds = [...]uint8{
	KindRange: wire.PlainRange, KindKNN: wire.PlainKNN,
	KindApproxKNN: wire.PlainApprox, KindFirstCell: wire.PlainFirstCell,
}

// plainQuery encodes a normalized Query as a MsgPlainQuery payload. The raw
// query vector travels to the server — the defining disclosure of the
// non-encrypted baseline.
func plainQuery(nq Query) []byte {
	return wire.PlainQueryReq{
		Kind: plainKinds[nq.Kind], Q: nq.Vec, Radius: nq.Radius,
		K: uint32(nq.K), CandSize: uint32(effCandSize(nq)),
	}.Encode()
}

// decodeResults interprets one MsgResults response frame.
func decodeResults(respType wire.MsgType, resp []byte, costs *stats.Costs) ([]Result, error) {
	if respType != wire.MsgResults {
		return nil, fmt.Errorf("core: unexpected plain query response %v", respType)
	}
	m, err := wire.DecodeResultsResp(resp)
	if err != nil {
		return nil, err
	}
	costs.CreditServer(m.ServerNanos)
	costs.DistCompTime += time.Duration(m.DistNanos) // server-side distance time
	out := make([]Result, len(m.Results))
	for i, r := range m.Results {
		out[i] = Result{ID: r.ID, Dist: r.Dist, Object: metric.Object{ID: r.ID, Vec: r.Vec}}
	}
	return out, nil
}

// Search evaluates one similarity query fully server-side. All four query
// kinds are supported; RefineLimit is ignored (the plain server refines
// everything — there is no client-side refinement to limit). ctx bounds
// the round trip exactly as for the encrypted client.
func (c *PlainClient) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	nq, err := q.normalized()
	if err != nil {
		return nil, costs, err
	}
	respType, resp, err := c.link.RoundTrip(ctx, wire.MsgPlainQuery, plainQuery(nq), new(wire.Buffer), &costs)
	if err != nil {
		return nil, costs, err
	}
	out, err := decodeResults(respType, resp, &costs)
	if err != nil {
		return nil, costs, err
	}
	costs.Finish(start)
	return out, costs, nil
}

// SearchBatch evaluates many queries by pipelining one frame per query
// over a single leased connection — the plain protocol has no batch
// envelope, but the server answers pipelined frames in order, so the whole
// workload still pays one round-trip latency. Results are per-query, in
// input order; ctx cancellation is checked between writes and interrupts
// the blocked reader.
func (c *PlainClient) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		costs.Finish(start)
		return nil, costs, nil
	}
	reqs := make([]wire.Frame, len(qs))
	for i, q := range qs {
		nq, err := q.normalized()
		if err != nil {
			return nil, costs, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		reqs[i] = wire.Frame{Type: wire.MsgPlainQuery, Payload: plainQuery(nq)}
	}
	resps, err := c.link.Exchange(ctx, reqs, &costs)
	if err != nil {
		return nil, costs, err
	}
	defer wire.ReleaseFrames(resps) // decodeResults copies what it keeps
	out := make([][]Result, len(qs))
	for i, r := range resps {
		if err := r.Err(); err != nil {
			return nil, costs, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		res, err := decodeResults(r.Type, r.Payload, &costs)
		if err != nil {
			return nil, costs, err
		}
		out[i] = res
	}
	costs.Finish(start)
	return out, costs, nil
}

// Delete is DeleteContext without a deadline.
func (c *PlainClient) Delete(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}

// DeleteContext removes the given objects from the plain index as one
// pipelined flight of MsgDeleteObjects frames (see deleteFlight): the server
// owns the location map, so bare IDs suffice (no routing metadata travels,
// unlike the encrypted delete). Unknown or already-deleted IDs are skipped;
// the count actually deleted is returned — signature-compatible with
// EncryptedClient.Delete so baseline experiments mutate like for like.
func (c *PlainClient) DeleteContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	deleted, err := deleteFlight(ctx, c.link, len(objs), plainChunk, func(lo, hi int) (wire.MsgType, []byte) {
		ids := make([]uint64, hi-lo)
		for i, o := range objs[lo:hi] {
			ids[i] = o.ID
		}
		return wire.MsgDeleteObjects, wire.DeleteObjectsReq{IDs: ids}.Encode()
	}, &costs)
	if err != nil {
		return deleted, costs, err
	}
	costs.Finish(start)
	return deleted, costs, nil
}
