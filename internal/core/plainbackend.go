package core

import (
	"context"
	"fmt"
	"slices"

	"simcloud/internal/engine"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// PlainBackend is the index of the plain deployment, which the plain server
// drives (it implements server.PlainBackend): a DirectClient the server owns,
// over the server's engine and pivots with the raw object codec. The
// non-encrypted baseline is thereby the encrypted pipeline run on the server
// with the cipher taken out — the same entries (payload = the object's
// plaintext encoding), the same candidate searches, the same refinement and
// the same precise k-NN.
type PlainBackend struct {
	c *DirectClient
	// dim is the pivots' dimension. Objects and queries are a remote peer's
	// input here, not a caller's, so the backend refuses any of another
	// dimension instead of letting the distance function panic on it.
	dim int
}

// NewPlainBackend builds the plain deployment's index over a fresh engine
// from cfg: the server holds the pivots, stores pivot distances with every
// entry (the precise strategy) and ranks as cfg says.
func NewPlainBackend(cfg mindex.Config, pivots *pivot.Set) (*PlainBackend, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	c, err := newDirect(eng, rawCodec{pivots}, Options{MaxLevel: cfg.MaxLevel, Ranking: cfg.Ranking, StoreDists: true})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &PlainBackend{c: c, dim: len(pivots.Pivots[0])}, nil
}

// Engine is the index engine the backend stores into; the server owns it.
func (b *PlainBackend) Engine() *engine.ShardedIndex { return b.c.eng }

// Insert indexes raw objects; the costs carry the pivot-distance time.
func (b *PlainBackend) Insert(objs []metric.Object) (stats.Costs, error) {
	for _, o := range objs {
		if len(o.Vec) != b.dim {
			return stats.Costs{}, fmt.Errorf("core: object %d has %d dimensions, the pivots %d", o.ID, len(o.Vec), b.dim)
		}
	}
	return b.c.Insert(objs)
}

// Query evaluates one plain query to its final answer; the costs carry the
// distance time, query–pivot and refinement alike.
func (b *PlainBackend) Query(req wire.PlainQueryReq) ([]wire.Result, stats.Costs, error) {
	if len(req.Q) != b.dim {
		return nil, stats.Costs{}, fmt.Errorf("core: query vector has %d dimensions, the pivots %d", len(req.Q), b.dim)
	}
	q := Query{
		Kind: QueryKind(slices.Index(plainKinds[:], req.Kind)), // -1 fails normalization
		Vec:  req.Q, Radius: req.Radius, K: int(req.K), CandSize: int(req.CandSize),
	}
	res, costs, err := b.c.Search(context.Background(), q)
	if err != nil {
		return nil, costs, err
	}
	out := make([]wire.Result, len(res))
	for i, r := range res {
		out[i] = wire.Result{ID: r.ID, Dist: r.Dist, Vec: r.Object.Vec}
	}
	return out, costs, nil
}
