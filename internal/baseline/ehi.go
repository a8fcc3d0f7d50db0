// Package baseline implements the secure similarity-search techniques the
// paper compares against (Section 3 and Section 5.4):
//
//   - EHI, the Encrypted Hierarchical Index of Yiu et al.: an ordinary
//     hierarchical metric index whose every node is encrypted; the server is
//     a pure blob store and the client drives the traversal, paying one
//     round trip per visited node.
//   - FDH, the Flexible Distance-based Hashing of Yiu et al.: objects are
//     hashed by membership in anchor balls to bucket signatures; the server
//     groups ciphertexts by signature and the client fetches buckets in
//     growing signature (Hamming) distance, refining locally — an
//     approximate technique.
//   - Trivial: download the entire encrypted collection and scan locally —
//     perfect privacy, maximal communication (Section 3's strawman).
//
// The referenced implementations are not available; these are re-built from
// the published descriptions and run over the same wire protocol, server
// and cipher as the Encrypted M-Index, so the Table 9 comparison measures
// algorithmic differences rather than implementation accidents. EHI and FDH
// keep their encrypted index in the server's keyed blob store (MsgPutBlobs,
// MsgGetBlobs); the trivial client downloads the encrypted M-Index's own
// entries with a BatchAll query. All three run over a wire.Link, like the encrypted client.
package baseline

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// ehiRouting is one routing entry of an internal EHI node: a center object,
// the covering radius of its subtree, and the child node ID.
type ehiRouting struct {
	Center metric.Vector
	Radius float64
	Child  uint64
}

// ehiNode is the plaintext form of one EHI node; it is serialized and
// encrypted before upload, so the server sees only opaque blobs.
type ehiNode struct {
	Leaf    bool
	Routing []ehiRouting    // internal nodes
	Objects []metric.Object // leaves
}

func encodeEHINode(n *ehiNode) []byte {
	var b wire.Buffer
	if n.Leaf {
		b.U8(1)
		b.U32(uint32(len(n.Objects)))
		for _, o := range n.Objects {
			b.U64(o.ID)
			b.Vec(o.Vec)
		}
		return b.B
	}
	b.U8(0)
	b.U32(uint32(len(n.Routing)))
	for _, rt := range n.Routing {
		b.Vec(rt.Center)
		b.F64(rt.Radius)
		b.U64(rt.Child)
	}
	return b.B
}

func decodeEHINode(p []byte) (*ehiNode, error) {
	r := wire.NewReader(p)
	leaf := r.U8()
	n := &ehiNode{Leaf: leaf == 1}
	count := int(r.U32())
	if count < 0 || count > len(p) {
		return nil, wire.ErrCodec
	}
	if n.Leaf {
		for range count {
			id := r.U64()
			vec := r.VecField()
			n.Objects = append(n.Objects, metric.Object{ID: id, Vec: vec})
		}
	} else {
		for range count {
			center := r.VecField()
			radius := r.F64()
			child := r.U64()
			n.Routing = append(n.Routing, ehiRouting{Center: center, Radius: radius, Child: child})
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return n, nil
}

// EHIBuild bulk-loads an encrypted hierarchical index: objects are
// recursively clustered around randomly sampled centers (fanout per node,
// at most leafCap objects per leaf) and every node is encrypted under key.
// Returns the root node ID and the encrypted node blobs for upload, each
// keyed by its node ID.
func EHIBuild(rng *rand.Rand, dist metric.Distance, objs []metric.Object,
	key *secret.Key, fanout, leafCap int) (uint64, []wire.Blob, error) {
	if fanout < 2 {
		return 0, nil, fmt.Errorf("baseline: EHI fanout must be >= 2, got %d", fanout)
	}
	if leafCap < 1 {
		return 0, nil, fmt.Errorf("baseline: EHI leaf capacity must be >= 1, got %d", leafCap)
	}
	var nodes []wire.Blob
	nextID := uint64(0)
	var build func(subset []metric.Object) (uint64, error)
	build = func(subset []metric.Object) (uint64, error) {
		id := nextID
		nextID++
		nodes = append(nodes, wire.Blob{Key: id}) // reserve slot
		slot := len(nodes) - 1
		var n ehiNode
		if len(subset) <= leafCap {
			n = ehiNode{Leaf: true, Objects: subset}
		} else {
			// Sample fanout distinct centers.
			perm := rng.Perm(len(subset))
			k := min(fanout, len(subset))
			centers := make([]metric.Vector, k)
			for i := range k {
				centers[i] = subset[perm[i]].Vec
			}
			groups := make([][]metric.Object, k)
			radii := make([]float64, k)
			for _, o := range subset {
				best, bestD := 0, math.Inf(1)
				for i, c := range centers {
					if d := dist.Dist(o.Vec, c); d < bestD {
						best, bestD = i, d
					}
				}
				groups[best] = append(groups[best], o)
				if bestD > radii[best] {
					radii[best] = bestD
				}
			}
			for i, g := range groups {
				if len(g) == 0 {
					continue
				}
				// A group equal to the whole subset cannot shrink further
				// (duplicate-heavy data); force a leaf to guarantee progress.
				var childID uint64
				var err error
				if len(g) == len(subset) {
					childID = nextID
					nextID++
					blob, serr := key.Seal(encodeEHINode(&ehiNode{Leaf: true, Objects: g}))
					if serr != nil {
						return 0, serr
					}
					nodes = append(nodes, wire.Blob{Key: childID, Data: blob})
				} else {
					childID, err = build(g)
					if err != nil {
						return 0, err
					}
				}
				n.Routing = append(n.Routing, ehiRouting{
					Center: centers[i], Radius: radii[i], Child: childID,
				})
			}
		}
		blob, err := key.Seal(encodeEHINode(&n))
		if err != nil {
			return 0, err
		}
		nodes[slot].Data = blob
		return id, nil
	}
	root, err := build(objs)
	if err != nil {
		return 0, nil, err
	}
	return root, nodes, nil
}

// EHIClient drives the client-side search over an uploaded EHI. All
// traversal logic, decryption and distance computation happen here; the
// server only serves blobs.
type EHIClient struct {
	link *wire.Link
	key  *secret.Key
	dist metric.Distance
	root uint64
}

// DialEHI connects an EHI client to the blob server at addr.
func DialEHI(addr string, key *secret.Key, dist metric.Distance) (*EHIClient, error) {
	l, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &EHIClient{link: l, key: key, dist: dist}, nil
}

// Close releases the client's connections.
func (c *EHIClient) Close() error { return c.link.Close() }

// Upload ships the encrypted nodes to the server and records the root.
func (c *EHIClient) Upload(rootID uint64, nodes []wire.Blob) (stats.Costs, error) {
	costs, err := upload(c.link, wire.SpaceEHI, nodes)
	if err == nil {
		c.root = rootID
	}
	return costs, err
}

// fetchNode retrieves and decrypts one node (one round trip).
func (c *EHIClient) fetchNode(id uint64, costs *stats.Costs) (*ehiNode, error) {
	lists, err := fetch(c.link, wire.SpaceEHI, []uint64{id}, costs)
	if err != nil {
		return nil, err
	}
	if len(lists[0]) != 1 {
		return nil, fmt.Errorf("baseline: the server holds no EHI node %d", id)
	}
	decStart := time.Now()
	pt, err := c.key.Open(lists[0][0])
	costs.DecryptTime += time.Since(decStart)
	if err != nil {
		return nil, fmt.Errorf("baseline: decrypting node %d: %w", id, err)
	}
	return decodeEHINode(pt)
}

// ehiPQ orders pending node fetches by metric lower bound.
type ehiPQItem struct {
	id uint64
	lb float64
}
type ehiPQ []ehiPQItem

func (q ehiPQ) Len() int           { return len(q) }
func (q ehiPQ) Less(i, j int) bool { return q[i].lb < q[j].lb }
func (q ehiPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *ehiPQ) Push(x any)        { *q = append(*q, x.(ehiPQItem)) }
func (q *ehiPQ) Pop() any {
	old := *q
	item := old[len(old)-1]
	*q = old[:len(old)-1]
	return item
}

// KNN evaluates an exact k-NN by best-first traversal: the client fetches
// and decrypts nodes in order of their lower-bound distance until no
// remaining subtree can improve the k-th best answer.
func (c *EHIClient) KNN(q metric.Vector, k int) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if k <= 0 {
		return nil, costs, fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	var best []core.Result
	radius := math.Inf(1)
	offer := func(o metric.Object, d float64) {
		best = append(best, core.Result{ID: o.ID, Dist: d, Object: o})
		sort.Slice(best, func(i, j int) bool { return best[i].Dist < best[j].Dist })
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			radius = best[k-1].Dist
		}
	}
	pq := &ehiPQ{{id: c.root, lb: 0}}
	heap.Init(pq)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(ehiPQItem)
		if item.lb > radius {
			break
		}
		node, err := c.fetchNode(item.id, &costs)
		if err != nil {
			return nil, costs, err
		}
		if node.Leaf {
			for _, o := range node.Objects {
				distStart := time.Now()
				d := c.dist.Dist(q, o.Vec)
				costs.DistCompTime += time.Since(distStart)
				costs.DistComps++
				if d <= radius || len(best) < k {
					offer(o, d)
				}
			}
			costs.Candidates += int64(len(node.Objects))
			continue
		}
		for _, rt := range node.Routing {
			distStart := time.Now()
			d := c.dist.Dist(q, rt.Center)
			costs.DistCompTime += time.Since(distStart)
			costs.DistComps++
			lb := math.Max(item.lb, d-rt.Radius)
			if lb <= radius {
				heap.Push(pq, ehiPQItem{id: rt.Child, lb: lb})
			}
		}
	}
	costs.Finish(start)
	return best, costs, nil
}

// Range evaluates an exact range query by pruned traversal.
func (c *EHIClient) Range(q metric.Vector, r float64) ([]core.Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	var out []core.Result
	var visit func(id uint64) error
	visit = func(id uint64) error {
		node, err := c.fetchNode(id, &costs)
		if err != nil {
			return err
		}
		if node.Leaf {
			for _, o := range node.Objects {
				distStart := time.Now()
				d := c.dist.Dist(q, o.Vec)
				costs.DistCompTime += time.Since(distStart)
				costs.DistComps++
				if d <= r {
					out = append(out, core.Result{ID: o.ID, Dist: d, Object: o})
				}
			}
			costs.Candidates += int64(len(node.Objects))
			return nil
		}
		for _, rt := range node.Routing {
			distStart := time.Now()
			d := c.dist.Dist(q, rt.Center)
			costs.DistCompTime += time.Since(distStart)
			costs.DistComps++
			if d <= rt.Radius+r {
				if err := visit(rt.Child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := visit(c.root); err != nil {
		return nil, costs, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	costs.Finish(start)
	return out, costs, nil
}
