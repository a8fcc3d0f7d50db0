package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Result is one refined similarity-search answer on the client.
type Result struct {
	ID     uint64
	Dist   float64
	Object metric.Object
}

// Options configures an encrypted client.
type Options struct {
	// PrefixLen is the permutation-prefix length stored with each object.
	// It must be at least the server index's MaxLevel. Shorter prefixes
	// shrink records and communication; the full permutation (NumPivots)
	// maximizes future re-partitioning freedom. Default: MaxLevel.
	PrefixLen int
	// StoreDists ships the full object–pivot distance vector with every
	// insert (the paper's "precise strategy", Algorithm 1 line 4). It
	// enables server-side pivot filtering for range queries, and lets a
	// precise k-NN rank its first pass by the server's pivot lower bound, at
	// the price of larger records. Default: permutations only (Algorithm 1
	// line 7).
	StoreDists bool
	// Ranking must match the server's configured cell-ranking strategy: it
	// decides whether approximate queries send the query permutation
	// (footrule) or the query distance vector (distance-sum).
	Ranking mindex.RankStrategy
	// MaxLevel mirrors the server index's MaxLevel (prefix floor).
	MaxLevel int
	// Workers parallelizes the client-side construction work (pivot
	// distances + encryption) across goroutines during Insert. Results are
	// identical for any value; reported EncryptTime/DistCompTime become
	// summed CPU time across workers. Default 1 (the paper's single-client
	// measurement setup).
	Workers int
	// BatchChunk is the number of queries (SearchBatch), entries (Insert,
	// InsertStream) or delete references (Delete) carried per pipelined
	// frame. Smaller chunks let the server start answering earlier; larger
	// chunks amortize more framing. Default 64.
	BatchChunk int
	// StreamWindow is the maximum number of unacknowledged chunks a
	// streamed ingest (InsertStream) keeps in flight. A deeper window hides
	// more server build time behind client-side preparation at the price of
	// more unflushed state on a crashed connection. Default 4.
	StreamWindow int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxLevel == 0 {
		out.MaxLevel = 8
	}
	if out.PrefixLen == 0 {
		out.PrefixLen = out.MaxLevel
	}
	if out.Ranking == 0 {
		out.Ranking = mindex.RankFootrule
	}
	if out.Workers == 0 {
		out.Workers = 1
	}
	if out.BatchChunk == 0 {
		out.BatchChunk = 64
	}
	if out.StreamWindow == 0 {
		out.StreamWindow = 4
	}
	return out
}

// coder performs the client-side half of the paper's algorithms — pivot
// distances, permutations, encryption on the way in; decryption and true
// distances on the way out. It is what makes a client "authorized": the
// networked EncryptedClient and the in-process DirectClient share it
// verbatim, so the two backends produce bit-identical entries and
// refinements. The plain server runs it too, over the raw codec.
type coder struct {
	key  objectCodec
	opts Options
}

// objectCodec is the secret a coder works under: the pivot set with its
// optional distance transformation, and the seal that turns an object into
// the payload an entry stores — opened back into secret.EncodeObject's
// plaintext. *secret.Key is the encrypted deployments'; rawCodec is the plain
// server's.
type objectCodec interface {
	Pivots() *pivot.Set
	TransformDists(dists []float64) []float64
	TransformRadius(r float64) float64
	EncryptObject(o metric.Object) ([]byte, error)
	OpenAppend(dst, payload []byte) ([]byte, error)
}

// rawCodec is the plain deployment's objectCodec: a payload is the object's
// plaintext encoding, opened by copying it, and distances are untransformed.
type rawCodec struct{ pivots *pivot.Set }

func (r rawCodec) Pivots() *pivot.Set                           { return r.pivots }
func (rawCodec) TransformDists(dists []float64) []float64       { return dists }
func (rawCodec) TransformRadius(r float64) float64              { return r }
func (rawCodec) EncryptObject(o metric.Object) ([]byte, error)  { return secret.EncodeObject(o), nil }
func (rawCodec) OpenAppend(dst, payload []byte) ([]byte, error) { return append(dst, payload...), nil }

// Key returns the client's secret key (nil over the raw codec).
func (c *coder) Key() *secret.Key {
	k, _ := c.key.(*secret.Key)
	return k
}

// EncryptedClient is an authorized client of the encrypted similarity
// cloud. It is safe for concurrent use: operations lease connections from
// its wire.Link (dialed on demand, reused when idle), so N goroutines
// sharing one client run N concurrent exchanges instead of racing on one
// socket.
type EncryptedClient struct {
	coder
	addr string
	link *wire.Link
}

var _ Searcher = (*EncryptedClient)(nil)

// DialEncrypted connects an authorized client holding key to the encrypted
// server at addr. Equivalent to DialEncryptedContext with the background
// context.
func DialEncrypted(addr string, key *secret.Key, opts Options) (*EncryptedClient, error) {
	return DialEncryptedContext(context.Background(), addr, key, opts)
}

// DialEncryptedContext connects an authorized client holding key to the
// encrypted server at addr. The first connection is established eagerly
// under ctx — including a hello handshake verifying the server runs the
// encrypted deployment over the key's pivot count — so an unreachable or
// incompatible cloud fails here, not on the first query. Further
// connections are dialed on demand as concurrent operations need them.
func DialEncryptedContext(ctx context.Context, addr string, key *secret.Key, opts Options) (*EncryptedClient, error) {
	o := opts.withDefaults()
	if o.PrefixLen < o.MaxLevel {
		return nil, fmt.Errorf("core: PrefixLen %d below index MaxLevel %d", o.PrefixLen, o.MaxLevel)
	}
	if o.PrefixLen > key.Pivots().N() {
		o.PrefixLen = key.Pivots().N()
	}
	c := &EncryptedClient{coder: coder{key: key, opts: o}, addr: addr}
	c.link = dialLink(addr, wire.HelloModeEncrypted, key.Pivots().N())
	if err := c.link.Warm(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// PoolStats is a point-in-time view of a networked client's link (see
// wire.LinkStats), surfaced per backend through CollectStats and the
// gateway's /metrics endpoint.
type PoolStats = wire.LinkStats

// dialLink returns the link to the server at addr: every connection it
// dials passes the hello handshake, which verifies the server speaks this
// build's protocol version and runs the deployment the client flavor talks
// to. wantPivots > 0 additionally requires the server's index to be built
// over exactly that many pivots (the client key's pivot count — entries
// indexed under one pivot set are garbage under another).
func dialLink(addr string, wantMode uint8, wantPivots int) *wire.Link {
	return wire.NewLink(wire.Dialer(addr, 0, func(hello wire.HelloResp) error {
		if err := hello.CheckVersion(); err != nil {
			return fmt.Errorf("core: hello handshake: %w", err)
		}
		if hello.Mode != wantMode {
			return fmt.Errorf("core: server runs the %s deployment, this client speaks the %s protocol",
				helloModeName(hello.Mode), helloModeName(wantMode))
		}
		if wantPivots > 0 && int(hello.NumPivots) != wantPivots {
			return fmt.Errorf("core: server index uses %d pivots, client key has %d — wrong key for this cloud",
				hello.NumPivots, wantPivots)
		}
		return nil
	}))
}

func helloModeName(mode uint8) string {
	switch mode {
	case wire.HelloModeEncrypted:
		return "encrypted"
	case wire.HelloModePlain:
		return "plain"
	}
	return fmt.Sprintf("mode(%d)", mode)
}

// Addr returns the server address the client dials.
func (c *EncryptedClient) Addr() string { return c.addr }

// PoolStats reports the link's current depth and lifetime dial/discard
// counters.
func (c *EncryptedClient) PoolStats() PoolStats { return c.link.Stats() }

// Close releases every pooled connection, interrupting in-flight
// operations.
func (c *EncryptedClient) Close() error { return c.link.Close() }

// pivotScratch is the pivot-distance row and the full permutation of one
// object, reused from object to object within a call (one per worker): of
// the per-object pivot work only the routing prefix outlives the object.
type pivotScratch struct {
	dists []float64
	perm  []int32
}

func (c *coder) newPivotScratch() *pivotScratch {
	n := c.key.Pivots().N()
	return &pivotScratch{dists: make([]float64, n), perm: make([]int32, n)}
}

// routingPrefix computes v's pivot distances (Alg. 1 line 1) into sc.dists
// and returns its permutation prefix (line 6) as a slice of its own — the
// client work an insert and a delete share.
func (c *coder) routingPrefix(sc *pivotScratch, v metric.Vector, costs *stats.Costs) []int32 {
	pv := c.key.Pivots()
	distStart := time.Now()
	pv.DistancesInto(sc.dists, v)
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(pv.N())
	return pivot.Prefix(pivot.PermutationInto(sc.perm, sc.dists), c.opts.PrefixLen)
}

// prepareEntry performs the per-object client work of Algorithm 1: pivot
// distances, permutation prefix, encryption.
func (c *coder) prepareEntry(o metric.Object, sc *pivotScratch, costs *stats.Costs) (mindex.Entry, error) {
	e := mindex.Entry{ID: o.ID, Perm: c.routingPrefix(sc, o.Vec, costs)}

	encStart := time.Now()
	payload, err := c.key.EncryptObject(o) // Alg. 1 line 8
	costs.EncryptTime += time.Since(encStart)
	if err != nil {
		return mindex.Entry{}, fmt.Errorf("core: encrypting object %d: %w", o.ID, err)
	}
	e.Payload = payload
	if c.opts.StoreDists {
		// Alg. 1 line 4 (precise strategy). When the key carries a
		// distribution-hiding transformation, the server receives only
		// transformed distances (privacy level 4; see internal/transform).
		// Without one TransformDists returns its argument, the scratch row
		// the next object overwrites: the entry keeps a copy.
		if k := c.Key(); k != nil && k.Transform() != nil {
			e.Dists = k.TransformDists(sc.dists)
		} else {
			e.Dists = slices.Clone(sc.dists)
		}
	}
	return e, nil
}

// prepareEntries runs the per-object client work of Algorithm 1 over the
// whole batch, across Options.Workers goroutines when configured.
func (c *coder) prepareEntries(objs []metric.Object, costs *stats.Costs) ([]mindex.Entry, error) {
	entries := make([]mindex.Entry, len(objs))
	if c.opts.Workers <= 1 || len(objs) < 2 {
		sc := c.newPivotScratch()
		for i, o := range objs {
			e, err := c.prepareEntry(o, sc, costs)
			if err != nil {
				return nil, err
			}
			entries[i] = e
		}
		return entries, nil
	}
	workers := min(c.opts.Workers, len(objs))
	type workerResult struct {
		costs stats.Costs
		err   error
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[w]
			sc := c.newPivotScratch()
			for i := w; i < len(objs); i += workers {
				e, err := c.prepareEntry(objs[i], sc, &r.costs)
				if err != nil {
					r.err = err
					return
				}
				entries[i] = e
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		costs.Accumulate(r.costs)
	}
	return entries, nil
}

// Insert performs the encrypted bulk insert of Algorithm 1 (see
// InsertContext) without a deadline.
func (c *EncryptedClient) Insert(objs []metric.Object) (stats.Costs, error) {
	return c.InsertContext(context.Background(), objs)
}

// InsertContext performs the encrypted bulk insert of Algorithm 1: per
// object, the client computes pivot distances, derives the permutation
// prefix and encrypts the object; then it ships the entries as one
// pipelined flight of MsgIngestChunk frames of Options.BatchChunk entries
// each (see ingest), under ctx. A batch larger than BatchChunk is applied
// chunk by chunk, in order, so a failure leaves whole chunks applied: a
// broken connection a prefix of them, and a chunk the server rejects does
// not stop the chunks already in flight behind it. Re-running a partly
// applied batch reports a duplicate-ID error, as InsertStream does.
func (c *EncryptedClient) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	chunk := c.opts.BatchChunk
	err = ingest(ctx, c.link, wire.MsgIngestChunk, c.chunkCount(len(entries)), 0,
		func(seq int) ([]byte, error) {
			sub := entries[seq*chunk : min((seq+1)*chunk, len(entries))]
			return wire.IngestChunkReq{Seq: uint32(seq), Entries: sub}.Encode(), nil
		}, &costs)
	if err != nil {
		return costs, err
	}
	costs.Finish(start)
	return costs, nil
}
