package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/engine"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// DirectClient embeds the similarity-cloud engine in-process: the same
// client-side transform and refinement as EncryptedClient (the shared
// coder), the same sharded M-Index engine a server hosts, but no network
// between them — the embedded-library scenario. The index still stores
// only ciphertexts plus pivot-space metadata (entries are bit-identical to
// what an encrypted server would hold), so a snapshot taken here can be
// served remotely later and vice versa; what disappears is the wire, not
// the privacy boundary.
//
// DirectClient implements Searcher, so examples and benchmarks written
// against the unified query API run unchanged in-process. It is safe for
// concurrent use (the engine locks per shard).
type DirectClient struct {
	coder
	eng       *engine.ShardedIndex
	ownEngine bool
}

var _ Searcher = (*DirectClient)(nil)

// NewDirect creates an in-process client over a fresh engine built from
// cfg. The key plays the same role as for DialEncrypted (pivots, cipher,
// optional distance transform) and must match cfg's pivot count.
func NewDirect(cfg mindex.Config, key *secret.Key, opts Options) (*DirectClient, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	c, err := NewDirectWithEngine(eng, key, opts)
	if err != nil {
		eng.Close()
		return nil, err
	}
	c.ownEngine = true
	return c, nil
}

// NewDirectWithEngine wraps an existing engine — typically one restored
// from a snapshot — without taking ownership of it: closing the client
// does not close the engine.
func NewDirectWithEngine(eng *engine.ShardedIndex, key *secret.Key, opts Options) (*DirectClient, error) {
	// Validate exactly like DialEncryptedContext, so the same Options are
	// accepted or rejected identically across the backends — code validated
	// against the embedded backend must not fail when pointed at a server.
	o := opts.withDefaults()
	if o.PrefixLen < o.MaxLevel {
		return nil, fmt.Errorf("core: PrefixLen %d below index MaxLevel %d", o.PrefixLen, o.MaxLevel)
	}
	if o.PrefixLen > key.Pivots().N() {
		o.PrefixLen = key.Pivots().N()
	}
	if key.Pivots().N() != eng.Config().NumPivots {
		return nil, fmt.Errorf("core: engine index uses %d pivots, client key has %d — wrong key for this index",
			eng.Config().NumPivots, key.Pivots().N())
	}
	// The dialed client learns the server's MaxLevel the hard way (a too-
	// short prefix is rejected at insert); here the engine is in hand, so
	// the mismatch can fail fast with the same meaning.
	if o.PrefixLen < eng.Config().MaxLevel {
		return nil, fmt.Errorf("core: PrefixLen %d below engine index MaxLevel %d (set Options.MaxLevel to match the engine)",
			o.PrefixLen, eng.Config().MaxLevel)
	}
	return &DirectClient{coder: coder{key: key, opts: o}, eng: eng}, nil
}

// Engine exposes the embedded index engine (snapshots, stats, compaction).
func (c *DirectClient) Engine() *engine.ShardedIndex { return c.eng }

// Close releases the engine when the client owns it (created by NewDirect);
// a wrapped engine is left running.
func (c *DirectClient) Close() error {
	if c.ownEngine {
		return c.eng.Close()
	}
	return nil
}

// engineCandidates evaluates one wire-shaped query against the embedded
// engine through wire.BatchQuery.IndexQuery — the translation the server's
// dispatch uses, so a DirectClient query touches exactly the index code
// paths a remote one would — charging the engine time to ServerTime: the
// cost decomposition stays comparable with the networked backends (CommTime
// and the byte counters are structurally zero here).
func (c *DirectClient) engineCandidates(ctx context.Context, wq wire.BatchQuery, costs *stats.Costs) ([]mindex.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: direct search aborted: %w", err)
	}
	engStart := time.Now()
	iq, err := wq.IndexQuery(c.eng.Config().NumPivots, nil)
	var cands []mindex.Entry
	if err == nil {
		cands, err = mindex.Flat(c.eng.Search(iq))
	}
	costs.ServerTime += time.Since(engStart)
	return cands, err
}

// Search evaluates one similarity query against the embedded engine, with
// the identical client-side epilogue (refinement, radius filter, K trim)
// the encrypted client applies — for the same key, dataset and
// configuration the two backends return identical result lists. ctx is
// checked between the preparation, engine and refinement phases.
func (c *DirectClient) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	nq, err := q.normalized()
	if err != nil {
		return nil, costs, err
	}
	out, err := c.searchOne(ctx, nq, &costs)
	if err != nil {
		return nil, costs, err
	}
	finish(&costs, start)
	return out, costs, nil
}

func (c *DirectClient) searchOne(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error) {
	if nq.Kind == KindKNN {
		return searchKNN(ctx, nq, costs, c.searchOne)
	}
	qDists := c.queryDists(nq, costs)
	cands, err := c.engineCandidates(ctx, c.wireQuery(nq, qDists), costs)
	if err != nil {
		return nil, err
	}
	return c.finishQuery(nq, entryCands(cands), costs)
}

// SearchBatch evaluates the queries sequentially (there is no round trip
// to amortize in-process), checking ctx between queries. Results are
// per-query, in input order, identical to per-query Search.
func (c *DirectClient) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		finish(&costs, start)
		return nil, costs, nil
	}
	out := make([][]Result, len(qs))
	for i, q := range qs {
		nq, err := q.normalized()
		if err != nil {
			return nil, costs, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, costs, fmt.Errorf("core: batch aborted at query %d: %w", i, err)
		}
		res, err := c.searchOne(ctx, nq, &costs)
		if err != nil {
			return nil, costs, err
		}
		out[i] = res
	}
	finish(&costs, start)
	return out, costs, nil
}

// Insert is InsertContext without a deadline.
func (c *DirectClient) Insert(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// InsertContext performs the bulk insert of Algorithm 1 against the
// embedded engine: the client-side work (pivot distances, permutation
// prefixes, encryption) is identical to the networked insert; the shipped
// entries land in the engine without a wire in between.
func (c *DirectClient) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	if err := ctx.Err(); err != nil {
		return costs, fmt.Errorf("core: direct insert aborted: %w", err)
	}
	engStart := time.Now()
	err = c.eng.InsertBulk(entries)
	costs.ServerTime += time.Since(engStart)
	if err != nil {
		return costs, err
	}
	finish(&costs, start)
	return costs, nil
}

// InsertBatch aliases InsertContext: in-process there are no frames to
// pipeline, but the method keeps DirectClient drop-in compatible with code
// written against the networked client's batch surface.
func (c *DirectClient) InsertBatch(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// Delete is DeleteContext without a deadline.
func (c *DirectClient) Delete(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}

// DeleteContext removes the given objects from the embedded index, by the
// same {ID, permutation prefix} references the networked delete ships.
func (c *DirectClient) DeleteContext(ctx context.Context, objs []metric.Object) (int, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(objs) == 0 {
		finish(&costs, start)
		return 0, costs, nil
	}
	refs := c.deleteRefs(objs, &costs)
	if err := ctx.Err(); err != nil {
		return 0, costs, fmt.Errorf("core: direct delete aborted: %w", err)
	}
	engStart := time.Now()
	deleted, err := c.eng.Delete(refs)
	costs.ServerTime += time.Since(engStart)
	if err != nil {
		return 0, costs, err
	}
	finish(&costs, start)
	return deleted, costs, nil
}

// DeleteBatch aliases DeleteContext (see InsertBatch).
func (c *DirectClient) DeleteBatch(objs []metric.Object) (int, stats.Costs, error) {
	return c.DeleteContext(context.Background(), objs)
}
