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
	// BatchChunk is the number of queries (SearchBatch) or entries
	// (InsertBatch) carried per pipelined frame. Smaller chunks let the
	// server start answering earlier; larger chunks amortize more framing.
	// Default 64.
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
// an internal pool (dialed on demand, reused when idle), so N goroutines
// sharing one client run N concurrent exchanges instead of racing on one
// socket.
type EncryptedClient struct {
	coder
	addr string
	pool *connPool
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
	c.pool = newConnPool(func(ctx context.Context) (*wire.CountingConn, error) {
		return dialAndHello(ctx, addr, wire.HelloModeEncrypted, key.Pivots().N())
	})
	conn, err := c.pool.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.pool.putIdle(conn)
	return c, nil
}

// Addr returns the server address the client dials.
func (c *EncryptedClient) Addr() string { return c.addr }

// PoolStats reports the connection-lease pool's current depth and lifetime
// dial/discard counters (see PoolStats; surfaced per backend through
// CollectStats and the gateway's /metrics endpoint).
func (c *EncryptedClient) PoolStats() PoolStats { return c.pool.stats() }

// Close releases every pooled connection, interrupting in-flight
// operations.
func (c *EncryptedClient) Close() error { return c.pool.close() }

// roundTrip sends one request and reads one response on a pooled
// connection, measuring the time spent on the wire and the bytes in both
// directions. ctx bounds the whole exchange.
func (c *EncryptedClient) roundTrip(ctx context.Context, t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
	var respType wire.MsgType
	var resp []byte
	err := c.pool.withConn(ctx, func(conn *wire.CountingConn) error {
		var err error
		respType, resp, err = roundTrip(ctx, conn, t, payload, costs)
		return err
	})
	return respType, resp, err
}

// roundTrip is one request/response exchange on conn under ctx: the
// context's deadline becomes the connection's read/write deadline for this
// round trip, and cancellation interrupts a blocked read.
func roundTrip(ctx context.Context, conn *wire.CountingConn, t wire.MsgType, payload []byte, costs *stats.Costs) (wire.MsgType, []byte, error) {
	disarm, err := wire.ArmContext(ctx, conn)
	if err != nil {
		return 0, nil, err
	}
	sentBefore, recvBefore := conn.BytesWritten(), conn.BytesRead()
	ioStart := time.Now()
	respType, resp, err := func() (wire.MsgType, []byte, error) {
		if err := wire.WriteFrame(conn, t, payload); err != nil {
			return 0, nil, err
		}
		return wire.ReadFrame(conn)
	}()
	ioTime := time.Since(ioStart)
	costs.CommTime += ioTime // server time is subtracted by the caller
	costs.BytesSent += conn.BytesWritten() - sentBefore
	costs.BytesReceived += conn.BytesRead() - recvBefore
	costs.RoundTrips++
	if err = disarm(err); err != nil {
		return 0, nil, err
	}
	if respType == wire.MsgError {
		m, derr := wire.DecodeErrorResp(resp)
		if derr != nil {
			return 0, nil, derr
		}
		return 0, nil, &wire.RemoteError{Msg: m.Msg}
	}
	return respType, resp, nil
}

// creditServer moves the server-reported processing time out of the
// measured wire time.
func creditServer(costs *stats.Costs, serverNanos uint64) {
	st := time.Duration(serverNanos)
	costs.ServerTime += st
	costs.CommTime -= st
	if costs.CommTime < 0 {
		costs.CommTime = 0
	}
}

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
// prefix, encrypts the object, and ships the entries to the server. ctx
// bounds the round trip.
func (c *EncryptedClient) InsertContext(ctx context.Context, objs []metric.Object) (stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	entries, err := c.prepareEntries(objs, &costs)
	if err != nil {
		return costs, err
	}
	respType, resp, err := c.roundTrip(ctx, wire.MsgInsertEntries, wire.InsertEntriesReq{Entries: entries}.Encode(), &costs)
	if err != nil {
		return costs, err
	}
	if respType != wire.MsgAck {
		return costs, fmt.Errorf("core: unexpected insert response %v", respType)
	}
	ack, err := wire.DecodeAckResp(resp)
	if err != nil {
		return costs, err
	}
	creditServer(&costs, ack.ServerNanos)
	finish(&costs, start)
	return costs, nil
}

// finish completes the cost decomposition: client time is everything not
// spent on the wire, matching the paper's "data encryption/decryption,
// distance computations, and processing overhead".
func finish(costs *stats.Costs, start time.Time) {
	costs.Overall = time.Since(start)
	costs.ClientTime = costs.Overall - costs.ServerTime - costs.CommTime
	if costs.ClientTime < 0 {
		costs.ClientTime = 0
	}
}
