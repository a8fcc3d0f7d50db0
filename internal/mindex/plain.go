package mindex

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/simd"
)

// Result is one answer of a refined similarity query.
type Result struct {
	ID   uint64
	Dist float64
	Vec  metric.Vector
}

// sortResults orders results by distance, ties by ID, and trims to k (k <= 0
// keeps everything).
func sortResults(rs []Result, k int) []Result {
	slices.SortFunc(rs, func(a, b Result) int { return compareResults(&a, &b) })
	if k > 0 && len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// compareResults orders results by distance, ties by ID.
func compareResults(a, b *Result) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// Plain couples an M-Index with the pivot set and raw vectors, forming the
// basic non-encrypted M-Index of the paper's baseline measurements: the
// server holds everything and performs the entire search, returning only
// final answers.
type Plain struct {
	Idx    *Index
	Pivots *pivot.Set
}

// NewPlain builds an empty plain M-Index over the given pivots.
func NewPlain(cfg Config, pivots *pivot.Set) (*Plain, error) {
	if pivots.N() != cfg.NumPivots {
		return nil, fmt.Errorf("mindex: pivot set has %d pivots, config says %d", pivots.N(), cfg.NumPivots)
	}
	idx, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Plain{Idx: idx, Pivots: pivots}, nil
}

// Insert computes the object's pivot distances and permutation and indexes
// the raw vector.
func (p *Plain) Insert(o metric.Object) error {
	dists := p.Pivots.Distances(o.Vec)
	return p.Idx.Insert(Entry{
		ID:    o.ID,
		Perm:  pivot.Permutation(dists),
		Dists: dists,
		Vec:   o.Vec.Clone(),
	})
}

// InsertBulk indexes a batch of objects.
func (p *Plain) InsertBulk(objs []metric.Object) error {
	for i := range objs {
		if err := p.Insert(objs[i]); err != nil {
			return fmt.Errorf("mindex: plain bulk insert object %d: %w", i, err)
		}
	}
	return nil
}

// Range evaluates the precise range query R(q, r) entirely on the server:
// candidate collection by a KindRange search followed by refinement with
// real distances.
func (p *Plain) Range(q metric.Vector, r float64) ([]Result, error) {
	qDists := p.Pivots.Distances(q)
	cands, err := p.Idx.Search(Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qDists}, Radius: r})
	if err != nil {
		return nil, err
	}
	return p.refine(q, cands, 0, func(d float64) bool { return d <= r }), nil
}

// refine computes the real distance from q to every candidate, keeps those
// within (nil keeps all), and returns the k closest (k <= 0: all of them) by
// distance, ties by ID. The vectors are read from the candidates' records
// into one reused buffer; only the results returned get theirs copied out,
// into one block.
func (p *Plain) refine(q metric.Vector, cands []RankedCandidate, k int, within func(float64) bool) []Result {
	type scored struct {
		Result
		v *EntryView
	}
	kept := make([]scored, 0, len(cands))
	var vec metric.Vector
	for i := range cands {
		v := &cands[i].Entry
		vec = decodeVec(vec, v)
		if d := p.Pivots.Dist.Dist(q, vec); within == nil || within(d) {
			kept = append(kept, scored{Result{ID: v.ID, Dist: d}, v})
		}
	}
	slices.SortFunc(kept, func(a, b scored) int { return compareResults(&a.Result, &b.Result) })
	if k > 0 && len(kept) > k {
		kept = kept[:k]
	}
	n := 0
	for i := range kept {
		n += len(kept[i].v.Vec()) / 4
	}
	block := make(metric.Vector, n)
	out := make([]Result, len(kept))
	for i := range kept {
		m := len(kept[i].v.Vec()) / 4
		out[i] = kept[i].Result
		out[i].Vec, block = block[:m:m], block[m:]
		simd.DecodeF32LE(out[i].Vec, kept[i].v.Vec())
	}
	return out
}

// knnHeap is a bounded max-heap of the k best results found so far.
type knnHeap []Result

func (h knnHeap) Len() int           { return len(h) }
func (h knnHeap) Less(i, j int) bool { return h[i].Dist > h[j].Dist } // max-heap
func (h knnHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *knnHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// offer inserts r if it improves the k best; returns the current pruning
// radius (k-th best distance, or +Inf while fewer than k results are known).
func (h *knnHeap) offer(r Result, k int) float64 {
	if h.Len() < k {
		heap.Push(h, r)
	} else if r.Dist < (*h)[0].Dist {
		(*h)[0] = r
		heap.Fix(h, 0)
	}
	if h.Len() < k {
		return math.Inf(1)
	}
	return (*h)[0].Dist
}

// KNN evaluates the precise k-NN query with an optimal best-first traversal
// of the cell tree: nodes are visited in order of their metric lower bound
// and the traversal stops as soon as no remaining cell can improve the k-th
// best distance. This is the library's exact search.
func (p *Plain) KNN(q metric.Vector, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mindex: k must be positive, got %d", k)
	}
	ix := p.Idx
	qDists := p.Pivots.Distances(q)
	st := ix.state.Load()

	best := &knnHeap{}
	radius := math.Inf(1)
	pq := ix.getQueue(st.root, false) // promise reused as lower bound
	defer ix.putQueue(pq)
	var vec metric.Vector // the entry being refined, decoded
	for pq.Len() > 0 {
		item := pq.pop()
		if item.promise > radius {
			break // every remaining cell is at least this far
		}
		if item.n.isLeaf() {
			if item.n.live() == 0 {
				continue
			}
			b, err := ix.leafView(item.n)
			if err != nil {
				return nil, err
			}
			for i := range b.Len() {
				v := b.At(i)
				if _, gone := st.tombstones[v.ID]; gone {
					continue
				}
				if _, above := entryBound(qDists, v.Dists(), radius); above {
					continue
				}
				vec = decodeVec(vec, &v)
				d := p.Pivots.Dist.Dist(q, vec)
				if d <= radius || best.Len() < k {
					radius = best.offer(Result{ID: v.ID, Dist: d, Vec: slices.Clone(vec)}, k)
				}
			}
			continue
		}
		for i := range item.n.kids {
			kid := item.n.kids[i]
			lb := ix.cellLowerBound(kid.n, kid.key, item.n, qDists)
			if lb < item.promise {
				lb = item.promise // bounds accumulate along the path
			}
			if lb <= radius {
				pq.push(rankedNode{n: kid.n, promise: lb})
			}
		}
	}
	return sortResults(*best, k), nil
}

// ApproxKNN evaluates the approximate k-NN query entirely on the server:
// candidate collection via the promise-ranked cell traversal, then
// refinement of the candidate set with real distances.
func (p *Plain) ApproxKNN(q metric.Vector, k, candSize int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mindex: k must be positive, got %d", k)
	}
	qDists := p.Pivots.Distances(q)
	aq := ApproxQuery{Dists: qDists, Ranks: pivot.Ranks(pivot.Permutation(qDists))}
	cands, err := p.Idx.ApproxCandidatesRanked(aq, candSize)
	if err != nil {
		return nil, err
	}
	return p.refine(q, cands, k, nil), nil
}

// FirstCellKNN evaluates the restricted 1-cell approximate k-NN fully on
// the server: the single most promising Voronoi cell is the candidate set
// (the paper's Section 5.4 comparison), refined with real distances — the
// non-encrypted counterpart of the encrypted first-cell query.
func (p *Plain) FirstCellKNN(q metric.Vector, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mindex: k must be positive, got %d", k)
	}
	qDists := p.Pivots.Distances(q)
	aq := ApproxQuery{Dists: qDists, Ranks: pivot.Ranks(pivot.Permutation(qDists))}
	cands, err := p.Idx.Search(Query{Kind: KindFirstCell, ApproxQuery: aq})
	if err != nil {
		return nil, err
	}
	return p.refine(q, cands, k, nil), nil
}

// Delete tombstones the objects with the given IDs (the plain server holds
// the location map, so a bare ID suffices); unknown or already-deleted IDs
// are skipped and the count actually deleted is returned.
func (p *Plain) Delete(ids []uint64) (int, error) {
	return p.Idx.Delete(ids)
}

// decodeVec decodes v's plaintext vector into dst's memory (a new vector
// when it is too small) — the plain deployment's one read of an entry's
// object, at the edge where the server refines.
func decodeVec(dst metric.Vector, v *EntryView) metric.Vector {
	raw := v.Vec()
	dst = slices.Grow(dst[:0], len(raw)/4)[:len(raw)/4]
	simd.DecodeF32LE(dst, raw)
	return dst
}

// BruteForceKNN scans all entries — the reference answer generator used by
// recall measurements and tests. It requires raw vectors (plain deployment).
func (p *Plain) BruteForceKNN(q metric.Vector, k int) ([]Result, error) {
	ix := p.Idx
	st := ix.state.Load()
	var out []Result
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.isLeaf() {
			if n.count == 0 {
				return nil
			}
			b, err := ix.leafView(n)
			if err != nil {
				return err
			}
			for i := range b.Len() {
				v := b.At(i)
				if _, gone := st.tombstones[v.ID]; gone {
					continue
				}
				vec := decodeVec(nil, &v)
				out = append(out, Result{ID: v.ID, Dist: p.Pivots.Dist.Dist(q, vec), Vec: vec})
			}
			return nil
		}
		for i := range n.kids {
			if err := walk(n.kids[i].n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(st.root); err != nil {
		return nil, err
	}
	return sortResults(out, k), nil
}
