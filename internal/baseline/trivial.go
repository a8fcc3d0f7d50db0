package baseline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// TrivialClient implements the strawman of Section 3: every search downloads
// the complete encrypted collection, decrypts it, and scans. Perfect privacy
// — the server learns nothing beyond the collection size — but the
// communication cost is the whole data set per query, which is why "it
// cannot be used in real applications".
//
// It runs against the encrypted-deployment server: the collection is the
// same encrypted M-Index store, fetched as one BatchAll query whose flat
// reply carries each entry's ID and ciphertext.
type TrivialClient struct {
	link *wire.Link
	key  *secret.Key
}

// DialTrivial connects a trivial client to the encrypted server at addr.
func DialTrivial(addr string, key *secret.Key) (*TrivialClient, error) {
	l, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &TrivialClient{link: l, key: key}, nil
}

// Close releases the client's connections.
func (c *TrivialClient) Close() error { return c.link.Close() }

// download fetches and decrypts the full collection.
func (c *TrivialClient) download(costs *stats.Costs) ([]metric.Object, error) {
	all := []wire.BatchQuery{{Kind: wire.BatchAll}}
	respType, resp, err := c.link.RoundTrip(context.Background(), wire.MsgBatchQuery,
		wire.BatchQueryReq{Queries: all}.Encode(), new(wire.Buffer), costs)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgBatchCandidates {
		return nil, fmt.Errorf("baseline: unexpected download response %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp, all)
	if err != nil {
		return nil, err
	}
	if len(m.Results) != 1 {
		return nil, fmt.Errorf("baseline: download answered with %d results", len(m.Results))
	}
	costs.CreditServer(m.ServerNanos)
	entries := m.Results[0]
	objs := make([]metric.Object, 0, len(entries))
	for _, e := range entries {
		decStart := time.Now()
		o, err := c.key.DecryptObject(e.Payload)
		costs.DecryptTime += time.Since(decStart)
		if err != nil {
			return nil, fmt.Errorf("baseline: decrypting object %d: %w", e.ID, err)
		}
		objs = append(objs, o)
	}
	costs.Candidates += int64(len(entries))
	return objs, nil
}

// KNN downloads everything and scans for the k nearest neighbors.
func (c *TrivialClient) KNN(q metric.Vector, dist metric.Distance, k int) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if k <= 0 {
		return nil, costs, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	objs, err := c.download(&costs)
	if err != nil {
		return nil, costs, err
	}
	results := make([]core.Result, 0, len(objs))
	distStart := time.Now()
	for _, o := range objs {
		results = append(results, core.Result{ID: o.ID, Dist: dist.Dist(q, o.Vec), Object: o})
	}
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(len(objs))
	sort.Slice(results, func(i, j int) bool { return results[i].Dist < results[j].Dist })
	if len(results) > k {
		results = results[:k]
	}
	costs.Finish(start)
	return results, costs, nil
}

// Range downloads everything and scans for objects within radius r.
func (c *TrivialClient) Range(q metric.Vector, dist metric.Distance, r float64) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	objs, err := c.download(&costs)
	if err != nil {
		return nil, costs, err
	}
	var results []core.Result
	distStart := time.Now()
	for _, o := range objs {
		if d := dist.Dist(q, o.Vec); d <= r {
			results = append(results, core.Result{ID: o.ID, Dist: d, Object: o})
		}
	}
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(len(objs))
	sort.Slice(results, func(i, j int) bool { return results[i].Dist < results[j].Dist })
	costs.Finish(start)
	return results, costs, nil
}
