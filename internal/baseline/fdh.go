package baseline

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// FDHParams is the client-side secret of the FDH scheme: the anchor objects
// and their ball radii. Together with the cipher key they let authorized
// clients compute bucket signatures; the server sees only opaque 64-bit keys
// and ciphertexts.
type FDHParams struct {
	Anchors []metric.Vector
	Radii   []float64
	Dist    metric.Distance
}

// NewFDHParams samples numAnchors anchors from the data and sets each
// anchor's radius to the median of its distances to a data sample, which
// balances the signature bits (each bit is ~50/50), maximizing bucket
// discrimination.
func NewFDHParams(rng *rand.Rand, dist metric.Distance, data []metric.Object, numAnchors int) (*FDHParams, error) {
	if numAnchors < 1 || numAnchors > 64 {
		return nil, fmt.Errorf("baseline: FDH anchors must be in 1..64, got %d", numAnchors)
	}
	if len(data) < numAnchors {
		return nil, fmt.Errorf("baseline: cannot sample %d anchors from %d objects", numAnchors, len(data))
	}
	perm := rng.Perm(len(data))
	p := &FDHParams{Dist: dist}
	sampleSize := min(len(data), 500)
	for i := range numAnchors {
		anchor := data[perm[i]].Vec.Clone()
		dists := make([]float64, 0, sampleSize)
		for range sampleSize {
			o := data[rng.IntN(len(data))].Vec
			dists = append(dists, dist.Dist(anchor, o))
		}
		sort.Float64s(dists)
		p.Anchors = append(p.Anchors, anchor)
		p.Radii = append(p.Radii, dists[len(dists)/2])
	}
	return p, nil
}

// Signature maps a vector to its bucket key: bit i is set iff the object
// lies inside anchor i's ball.
func (p *FDHParams) Signature(v metric.Vector) uint64 {
	var sig uint64
	for i, a := range p.Anchors {
		if p.Dist.Dist(a, v) <= p.Radii[i] {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// FDHBuild encrypts every object and files it under its signature bucket.
func FDHBuild(p *FDHParams, key *secret.Key, objs []metric.Object) ([]wire.Blob, error) {
	items := make([]wire.Blob, 0, len(objs))
	for _, o := range objs {
		payload, err := key.EncryptObject(o)
		if err != nil {
			return nil, fmt.Errorf("baseline: encrypting object %d: %w", o.ID, err)
		}
		items = append(items, wire.Blob{Key: p.Signature(o.Vec), Data: payload})
	}
	return items, nil
}

// FDHClient drives the FDH search: it fetches buckets in growing Hamming
// distance from the query signature and refines the decrypted objects
// locally. The scheme is approximate — objects whose signature differs in
// many bits are never retrieved.
type FDHClient struct {
	link   *wire.Link
	key    *secret.Key
	params *FDHParams
}

// DialFDH connects an FDH client to the bucket server at addr.
func DialFDH(addr string, key *secret.Key, params *FDHParams) (*FDHClient, error) {
	l, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &FDHClient{link: l, key: key, params: params}, nil
}

// Close releases the client's connections.
func (c *FDHClient) Close() error { return c.link.Close() }

// Upload ships the encrypted bucket table to the server. A bucket holds
// exactly the blobs one upload files under its signature.
func (c *FDHClient) Upload(items []wire.Blob) (stats.Costs, error) {
	return upload(c.link, wire.SpaceFDH, items)
}

// keysAtHamming enumerates all signatures at exactly Hamming distance h from
// sig over m bits.
func keysAtHamming(sig uint64, m, h int) []uint64 {
	var out []uint64
	var rec func(start int, remaining int, cur uint64)
	rec = func(start, remaining int, cur uint64) {
		if remaining == 0 {
			out = append(out, cur)
			return
		}
		for i := start; i <= m-remaining; i++ {
			rec(i+1, remaining-1, cur^(1<<uint(i)))
		}
	}
	rec(0, h, sig)
	return out
}

// KNN evaluates an approximate k-NN: buckets are fetched level by level
// (Hamming distance 0, 1, 2, …) until at least candTarget candidate objects
// have been retrieved or maxHamming is exhausted; the decrypted candidates
// are then refined locally.
func (c *FDHClient) KNN(q metric.Vector, k, candTarget, maxHamming int) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if k <= 0 {
		return nil, costs, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	if candTarget < k {
		candTarget = k
	}
	m := len(c.params.Anchors)
	if maxHamming > m {
		maxHamming = m
	}
	distStart := time.Now()
	sig := c.params.Signature(q)
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(m)

	var results []core.Result
	retrieved := 0
	for h := 0; h <= maxHamming && retrieved < candTarget; h++ {
		keys := keysAtHamming(sig, m, h)
		buckets, err := fetch(c.link, wire.SpaceFDH, keys, &costs)
		if err != nil {
			return nil, costs, err
		}
		for _, bucket := range buckets {
			for _, payload := range bucket {
				decStart := time.Now()
				o, err := c.key.DecryptObject(payload)
				costs.DecryptTime += time.Since(decStart)
				if err != nil {
					return nil, costs, fmt.Errorf("baseline: decrypting FDH candidate: %w", err)
				}
				distStart := time.Now()
				d := c.params.Dist.Dist(q, o.Vec)
				costs.DistCompTime += time.Since(distStart)
				costs.DistComps++
				results = append(results, core.Result{ID: o.ID, Dist: d, Object: o})
			}
			retrieved += len(bucket)
			costs.Candidates += int64(len(bucket))
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Dist < results[j].Dist })
	if len(results) > k {
		results = results[:k]
	}
	costs.Finish(start)
	return results, costs, nil
}

// SignatureBits reports the Hamming weight of a signature (diagnostics).
func SignatureBits(sig uint64) int { return bits.OnesCount64(sig) }
