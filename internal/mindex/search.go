package mindex

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"simcloud/internal/simd"
)

// QueryKind selects the search primitive a Query asks for.
type QueryKind uint8

// The index answers exactly these read primitives; everything else —
// single or batched, ranked or flat, filtered or not — is a presentation of
// one of them.
const (
	// KindRange collects precise range candidates (Algorithm 3 of the
	// paper) from the query's pivot distances (Dists) and Radius.
	KindRange QueryKind = iota + 1
	// KindApprox collects promise-ordered approximate k-NN candidates
	// (Algorithm 4), trimmed to CandSize.
	KindApprox
	// KindFirstCell returns the single most promising non-empty cell — the
	// restricted strategy of the paper's 1-NN comparison (Section 5.4).
	KindFirstCell
	// KindAll returns every live entry (the trivial baseline's download,
	// wire.BatchAll).
	KindAll
	// KindBound collects the first CandSize live entries in bound order
	// (see BoundKey) from the query's pivot distances (Dists) — the first
	// page of a precise k-NN whose later pages are KindRange queries resumed
	// After the last of them.
	KindBound
)

// Query is the one read request an index answers. ApproxQuery carries the
// pivot-space view of the query object: Dists for KindRange and KindBound,
// and whatever the configured ranking strategy needs for the two
// promise-ranked kinds.
type Query struct {
	Kind QueryKind
	ApproxQuery
	Radius   float64 // KindRange
	CandSize int     // KindApprox, KindBound
	// After, on a KindRange query, keeps only the entries whose bound key
	// sorts after it: the keyset cursor that resumes a KindBound page or a
	// full range page. Nil keeps every entry.
	After *BoundKey
	// Page, on a KindRange query, is the byte budget of one page of the
	// answer (see PageEnd); 0 returns the whole answer.
	Page int
	// Allow restricts the search to first-level cells; nil allows all.
	Allow PivotFilter
	// Share pools a KindBound search's threshold across the indexes that
	// answer one query together (see BoundShare); nil for a lone index.
	Share *BoundShare
}

// BoundKey is an entry's place in bound order: first LB, the entry's pivot
// lower bound max_p |q_p − o_p| to the query (0 for an entry without
// distances), then its ID. The key is a function of the entry and the query
// alone — not of the cell holding the entry, whose bounds a split or a
// Compact may change — so a cursor taken from one snapshot divides the
// entries of any later one the same way.
type BoundKey struct {
	LB float64
	ID uint64
}

// Compare orders two keys by LB, then ID.
func (k BoundKey) Compare(o BoundKey) int {
	switch {
	case k.LB < o.LB:
		return -1
	case k.LB > o.LB:
		return 1
	}
	return cmp.Compare(k.ID, o.ID)
}

// entryBound reports whether the LB of an entry's bound key exceeds limit
// and, when it does not, returns it — pivot.LowerBound(qDists, dists) read
// straight from the stored distances, 0 for an entry without them.
func entryBound(qDists []float64, dists []byte, limit float64) (float64, bool) {
	if len(dists) == 0 {
		return 0, 0 > limit
	}
	return simd.AbsMaxDiff64AboveLE(qDists, dists, limit)
}

// Search evaluates q against the last published snapshot, lock-free. Every
// candidate carries its source cell's promise and prefix (zero for the
// exact kinds, which have no cell ranking), so a sharded engine or a cluster
// coordinator can combine per-partition answers with internal/merge; callers
// that only want the entries drop the annotations with Flat.
func (ix *Index) Search(q Query) ([]RankedCandidate, error) {
	switch q.Kind {
	case KindRange:
		return ix.rangeByDists(q.Dists, q.Radius, q.After, q.Allow, q.Page)
	case KindBound:
		return ix.collectBound(q.Dists, q.CandSize, q.Allow, q.Share)
	case KindApprox:
		if q.CandSize <= 0 {
			return nil, fmt.Errorf("mindex: candidate size must be positive, got %d", q.CandSize)
		}
		return ix.collect(q.ApproxQuery, q.CandSize, true, q.Allow, nil)
	case KindFirstCell:
		return ix.collect(q.ApproxQuery, 1, false, q.Allow, nil)
	case KindAll:
		return ix.all(q.Allow)
	}
	return nil, fmt.Errorf("mindex: unknown query kind %d", q.Kind)
}

// CellCounts is a KindApprox query's stream as counts: one CellRun per leaf
// cell its Search draws candidates from, in the same order, whose counts sum
// to the Search's length. It reads no bucket (see collect), so a caller can
// learn how many candidates each partition would contribute to a merge, and
// then fetch exactly those: a partition's share of the merged stream is
// always a prefix of its own stream, which is a Search with CandSize set to
// the share.
func (ix *Index) CellCounts(q Query) ([]CellRun, error) {
	if q.Kind != KindApprox {
		return nil, fmt.Errorf("mindex: cell counts need an approximate query, got kind %d", q.Kind)
	}
	if q.CandSize <= 0 {
		return nil, fmt.Errorf("mindex: candidate size must be positive, got %d", q.CandSize)
	}
	var runs []CellRun
	_, err := ix.collect(q.ApproxQuery, q.CandSize, true, q.Allow, &runs)
	return runs, err
}

// CellRun is one cell of a promise-ordered candidate stream, counted: the
// cell's promise and prefix, and how many of the stream's candidates come
// from it.
type CellRun struct {
	Promise float64
	Prefix  []int32
	Count   int
}

// Rank reports the cell's promise and prefix (merge.Keyed); a run of
// candidates has no ID of its own.
func (r *CellRun) Rank() (float64, []int32, uint64) { return r.Promise, r.Prefix, 0 }

// RankedCandidate is one search candidate annotated with the promise value
// and prefix of its source cell. The annotations let a sharded engine merge
// per-shard candidate streams into one globally promise-ordered list (ties
// broken by prefix, then shard), reproducing the cell-visit discipline of
// Algorithm 4 across index partitions. A KindBound or KindRange candidate
// carries its own bound key's LB as the promise and no prefix.
type RankedCandidate struct {
	// Entry is the candidate's stored record as a view. Out of an index it
	// aliases the immutable bucket image the search read: nothing is
	// decoded or copied to make a candidate.
	Entry   EntryView
	Promise float64
	Prefix  []int32
}

// Rank reports the source cell's promise and prefix and the entry's ID —
// what the shared merge orders read off a candidate (merge.Keyed).
func (rc *RankedCandidate) Rank() (float64, []int32, uint64) {
	return rc.Promise, rc.Prefix, rc.Entry.ID
}

// Bytes is the size of the record a reply ships for the candidate
// (CandidateBytes) — what a range page's budget counts.
func (rc *RankedCandidate) Bytes() int { return rc.Entry.CandidateBytes() }

// Flat drops the ranking annotations of a Search result (passing its error
// through) and decodes the candidates into whole entries, each field in an
// allocation of its own — the edge of the callers that keep entries:
// tooling and tests. A query path reads the candidates' views instead (the
// plain deployment refines from them).
func Flat(rcs []RankedCandidate, err error) ([]Entry, error) {
	if rcs == nil || err != nil {
		return nil, err
	}
	out := make([]Entry, len(rcs))
	for i := range rcs {
		out[i] = rcs[i].Entry.Decode()
	}
	return out, nil
}

// AllEntries returns every live stored entry, decoded (tooling and tests):
// the flat form of a KindAll Search.
func (ix *Index) AllEntries() ([]Entry, error) {
	return Flat(ix.Search(Query{Kind: KindAll}))
}

// RangeByDists is the flat form of a KindRange Search.
func (ix *Index) RangeByDists(qDists []float64, r float64) ([]Entry, error) {
	return Flat(ix.Search(Query{Kind: KindRange, ApproxQuery: ApproxQuery{Dists: qDists}, Radius: r}))
}

// ApproxCandidates is the flat form of a KindApprox Search: entries of more
// promising cells come first, so a client may decrypt only a prefix.
func (ix *Index) ApproxCandidates(q ApproxQuery, candSize int) ([]Entry, error) {
	return Flat(ix.ApproxCandidatesRanked(q, candSize))
}

// ApproxCandidatesRanked is a KindApprox Search over the whole index.
func (ix *Index) ApproxCandidatesRanked(q ApproxQuery, candSize int) ([]RankedCandidate, error) {
	return ix.Search(Query{Kind: KindApprox, ApproxQuery: q, CandSize: candSize})
}

// rangeByDists evaluates the server side of a precise range query
// (Algorithm 3 of the paper): given only the query's pivot-distance vector
// and the radius, it prunes the Voronoi cell tree with metric constraints
// and pivot-filters the surviving entries, returning the candidate set.
//
// Every returned entry is a possible member of R(q, r); every indexed object
// within the radius is guaranteed to be returned (no false dismissals — the
// applied bounds are true metric lower bounds). The caller refines by
// computing real distances: the server in the plain deployment, the
// authorized client in the encrypted one.
//
// A non-nil after restricts the answer to entries whose bound key sorts
// after it, so that a KindBound page, or the range pages before, plus this
// range covers R(q, r) with no entry in both. Each candidate carries the LB
// of its bound key as its promise. A page budget above 0 cuts the answer to
// one page (Page): only when the candidates' records reach the budget are
// they sorted by bound key and the page's worth kept, so an answer that fits
// comes back in walk order, as a whole.
func (ix *Index) rangeByDists(qDists []float64, r float64, after *BoundKey, filter PivotFilter, page int) ([]RankedCandidate, error) {
	if len(qDists) != ix.cfg.NumPivots {
		return nil, fmt.Errorf("mindex: query has %d pivot distances, want %d", len(qDists), ix.cfg.NumPivots)
	}
	if r < 0 {
		return nil, fmt.Errorf("mindex: negative query radius %g", r)
	}
	st := ix.state.Load()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	var out []RankedCandidate
	var visit func(n *node) error
	visit = func(n *node) error {
		if n.isLeaf() {
			if n.live() == 0 {
				return nil
			}
			b, transient, err := ix.leafViewN(n, n.count, sc)
			if err != nil {
				return err
			}
			for i := range b.Len() {
				// Pivot filtering (Algorithm 3, lines 5–7): discard when the
				// triangle-inequality lower bound exceeds the radius. It comes
				// first because it drops most entries, and reads only the
				// ID and the distances; the tombstone probe is a map lookup
				// only the survivors pay.
				id, dists := b.filterFields(i)
				lb, above := entryBound(qDists, dists, r)
				if above || (after != nil && (BoundKey{LB: lb, ID: id}).Compare(*after) <= 0) {
					continue
				}
				// Only an unsplit root leaf mixes first-level cells; deeper
				// leaves were filtered at the root's child table.
				if filter != nil && len(n.prefix) == 0 {
					if v := b.At(i); !filter.allowsView(&v) {
						continue
					}
				}
				if st.tombs.has(id) {
					continue
				}
				out = append(out, RankedCandidate{Entry: sc.keep(b.At(i), transient), Promise: lb})
			}
			return nil
		}
		// The child table is sorted by key, so the candidate list is fully
		// deterministic.
		for i := range n.kids {
			k := n.kids[i]
			// A root child's key is its subtree's first-level cell.
			if filter != nil && len(n.prefix) == 0 && !filter.Allows(k.key) {
				continue
			}
			if ix.pruneCell(k.n, k.key, n, qDists, r) {
				continue
			}
			if err := visit(k.n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(st.root); err != nil {
		return nil, err
	}
	return Page(out, page), nil
}

// Page cuts a range answer to its first page under budget: when the
// candidates' records reach the budget, they are sorted by bound key and
// PageEnd of them kept; otherwise, and when budget is 0, all of them stay,
// in the order they came. A page is full — the bound order may go on past
// its last key — exactly when its records reach the budget (PageFull).
func Page(rcs []RankedCandidate, budget int) []RankedCandidate {
	if !PageFull(rcs, budget) {
		return rcs
	}
	SortBound(rcs)
	return rcs[:PageEnd(rcs, budget)]
}

// SortBound puts bound-keyed candidates (KindBound, KindRange) in bound-key
// order: the LB their promise carries, then the ID. A list already in it is
// only checked.
func SortBound(rcs []RankedCandidate) {
	compare := func(a, b RankedCandidate) int {
		return BoundKey{LB: a.Promise, ID: a.Entry.ID}.Compare(BoundKey{LB: b.Promise, ID: b.Entry.ID})
	}
	if !slices.IsSortedFunc(rcs, compare) {
		slices.SortFunc(rcs, compare)
	}
}

// Sized is a candidate whose shipped record size a page budget counts:
// *RankedCandidate, and the wire's by-reference candidate.
type Sized[T any] interface {
	*T
	Bytes() int
}

// PageEnd returns how many of the candidates, in the order given, one page
// holds: records are taken until their bytes reach budget, so a page holds
// at least one record and at most the budget plus one record.
func PageEnd[T any, P Sized[T]](rcs []T, budget int) int {
	total := 0
	for i := range rcs {
		if total += P(&rcs[i]).Bytes(); total >= budget {
			return i + 1
		}
	}
	return len(rcs)
}

// PageFull reports whether the candidates' records reach budget (> 0): a
// range page that does is full, one that does not is the order's last.
func PageFull[T any, P Sized[T]](rcs []T, budget int) bool {
	if budget <= 0 {
		return false
	}
	total := 0
	for i := range rcs {
		if total += P(&rcs[i]).Bytes(); total >= budget {
			return true
		}
	}
	return false
}

// pruneCell decides whether the child cell (reached from parent via
// permutation element key) can be excluded from a range query of radius r.
// Two true lower bounds are applied:
//
//   - Generalized-hyperplane: every object o in the cell has pivot p_key
//     among its nearest pivots outside the parent prefix, so
//     d(q,o) ≥ (d(q,p_key) − min_{m∉prefix} d(q,p_m)) / 2.
//   - Box (range-pivot, over every pivot p): subtree objects satisfy
//     lo_p ≤ d(o,p) ≤ hi_p, so d(q,o) ≥ d(q,p) − hi_p and
//     d(q,o) ≥ lo_p − d(q,p). Its p = key term is the classic M-Index ball
//     bound. Unlike the hyperplane bound it only prunes cells whose every
//     entry the per-entry pivot filter would drop (see box.lowerBound), so
//     it saves bucket reads and never changes a candidate list.
func (ix *Index) pruneCell(child *node, key int32, parent *node, qDists []float64, r float64) bool {
	return ix.cellLowerBound(child, key, parent, qDists) > r
}

// onPath reports whether pivot m lies on the cell path: in the parent's
// prefix or equal to the child's key. Prefixes are at most MaxLevel (≤ the
// pivot count, typically ≤ 8) elements, so a linear scan beats building a
// set — and unlike the map this path used to allocate per pruning decision,
// it allocates nothing.
func onPath(prefix []int32, key, m int32) bool {
	if m == key {
		return true
	}
	for _, p := range prefix {
		if p == m {
			return true
		}
	}
	return false
}

// cellLowerBound returns a lower bound on the distance from the query to any
// object in the cell, combining the hyperplane and box constraints.
func (ix *Index) cellLowerBound(child *node, key int32, parent *node, qDists []float64) float64 {
	dq := qDists[key]
	lb := 0.0
	// Hyperplane bound against the closest other pivot not already used on
	// the path (including key's siblings and all deeper pivots).
	minOther := math.Inf(1)
	for m, d := range qDists {
		if onPath(parent.prefix, key, int32(m)) {
			continue
		}
		if d < minOther {
			minOther = d
		}
	}
	if !math.IsInf(minOther, 1) {
		if hb := (dq - minOther) / 2; hb > lb {
			lb = hb
		}
	}
	if child.box != nil {
		if bb := child.box.lowerBound(qDists); bb > lb {
			lb = bb
		}
	}
	return lb
}

// rankedNode is a cell-tree node queued by its promise value during the
// approximate search (lower promise = more promising).
type rankedNode struct {
	n       *node
	promise float64
}

// rankedQueue is a typed min-heap of rankedNodes. It is hand-rolled rather
// than layered over container/heap because the interface-based API boxes
// every pushed element into a heap allocation, and the query path pushes
// one element per visited child; the sift algorithms are the standard ones,
// and because less is a total order over distinct cells (promise, then
// prefix — no two distinct cells share a prefix) the pop sequence is
// byte-identical to container/heap's.
type rankedQueue struct {
	items []rankedNode
}

// Len returns the number of queued nodes.
func (q *rankedQueue) Len() int { return len(q.items) }

// less orders by promise, breaking ties by cell prefix so traversal order —
// and therefore every candidate set — is fully deterministic.
func (q *rankedQueue) less(i, j int) bool {
	h := q.items
	if h[i].promise != h[j].promise {
		return h[i].promise < h[j].promise
	}
	return PrefixLess(h[i].n.prefix, h[j].n.prefix)
}

// push adds an element and restores the heap invariant (sift-up).
func (q *rankedQueue) push(it rankedNode) {
	q.items = append(q.items, it)
	for i := len(q.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// pop removes and returns the minimum element (sift-down).
func (q *rankedQueue) pop() rankedNode {
	h := q.items
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	top := h[n]
	q.items = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// getQueue hands out a promise queue seeded with the given snapshot root,
// recycling backing arrays across searches; putQueue returns it.
// Steady-state searches therefore allocate no traversal state.
func (ix *Index) getQueue(root *node) *rankedQueue {
	var q *rankedQueue
	if v := ix.pqPool.Get(); v != nil {
		q = v.(*rankedQueue)
	} else {
		q = new(rankedQueue)
	}
	q.push(rankedNode{n: root})
	return q
}

func (ix *Index) putQueue(q *rankedQueue) {
	// Zero the full capacity so a pooled queue cannot pin nodes of a
	// snapshot that has since been superseded.
	full := q.items[:cap(q.items)]
	clear(full)
	q.items = q.items[:0]
	ix.pqPool.Put(q)
}

// searchScratch is what a disk search reuses leaf after leaf: the bucket a
// leaf that misses the cache is read into (see leafViewN), and the arena
// the entries it keeps from such a leaf are copied to.
type searchScratch struct {
	bucket Bucket
	// arena is the free tail of the chunk kept entries are copied into. A
	// copy only ever goes past the ones before it, and a full chunk is
	// replaced, never grown, so every candidate handed out stays valid: a
	// pooled scratch carries its tail over to the next search.
	arena []byte
}

// arenaChunk is the size of an arena chunk; a larger record gets one of its
// own size.
const arenaChunk = 64 << 10

// getScratch hands out a search's scratch, recycled across searches;
// putScratch returns it once the search holds no transient view. Memory
// leaves are pinned, so a memory index's searches get none (nil, which
// leafViewN reads as leafView).
func (ix *Index) getScratch() *searchScratch {
	if ix.eagerPin {
		return nil
	}
	if v := ix.scratchPool.Get(); v != nil {
		return v.(*searchScratch)
	}
	return new(searchScratch)
}

func (ix *Index) putScratch(sc *searchScratch) {
	if sc != nil {
		ix.scratchPool.Put(sc)
	}
}

// keep returns a view a search keeps: a transient leaf's, whose record the
// next leaf's read overwrites, copied into the arena; any other as it is.
func (sc *searchScratch) keep(v EntryView, transient bool) EntryView {
	if !transient {
		return v
	}
	n := len(v.Record)
	if len(sc.arena) < n {
		sc.arena = make([]byte, max(arenaChunk, n))
	}
	rec := sc.arena[:n:n]
	copy(rec, v.Record)
	sc.arena = sc.arena[n:]
	v.Record = rec
	return v
}

// PrefixLess compares cell prefixes lexicographically, shorter first — the
// deterministic tie-break used wherever cells of equal promise must be
// ordered (the traversal queue here, and the cross-shard candidate merge in
// internal/engine).
func PrefixLess(a, b []int32) bool {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

// ApproxQuery carries the query-side information for an approximate k-NN
// candidate collection. Exactly the information the client chose to reveal
// must be present: Ranks (derived from the query permutation) for the
// footrule strategy, Dists for the distance-sum strategy.
type ApproxQuery struct {
	Ranks []int32
	Dists []float64
}

// validateApprox checks that the query carries what the configured ranking
// strategy needs.
func (ix *Index) validateApprox(q ApproxQuery) error {
	switch ix.cfg.Ranking {
	case RankFootrule:
		if len(q.Ranks) != ix.cfg.NumPivots {
			return fmt.Errorf("mindex: footrule ranking needs %d pivot ranks, got %d",
				ix.cfg.NumPivots, len(q.Ranks))
		}
	case RankDistSum:
		if len(q.Dists) != ix.cfg.NumPivots {
			return fmt.Errorf("mindex: distsum ranking needs %d pivot distances, got %d",
				ix.cfg.NumPivots, len(q.Dists))
		}
	}
	return nil
}

// promiser computes cell promises incrementally along the traversal: a
// child's promise is its parent's promise plus one level-weighted term, so
// each heap push costs O(1) instead of the O(prefix) a from-scratch
// pivot.FootrulePromise/DistSumPromise evaluation would. The terms are
// added in ascending level order along every root→leaf path — exactly the
// summation order of the from-scratch functions — so the accumulated floats
// are bit-for-bit identical to theirs (enforced by TestPromiseIncremental*).
type promiser struct {
	ranking RankStrategy
	weights []float64
	ranks   []int32
	dists   []float64
}

func (ix *Index) newPromiser(q ApproxQuery) promiser {
	return promiser{ranking: ix.cfg.Ranking, weights: ix.weights, ranks: q.Ranks, dists: q.Dists}
}

// childItem derives the queue item of child c (reached from item's node via
// permutation element key at the given level) from its parent's item.
func (p *promiser) childItem(item rankedNode, c *node, level int, key int32) rankedNode {
	var term float64
	if p.ranking == RankDistSum {
		term = p.weights[level] * p.dists[key]
	} else {
		d := float64(p.ranks[key] - int32(level))
		if d < 0 {
			d = -d
		}
		term = p.weights[level] * d
	}
	return rankedNode{n: c, promise: item.promise + term}
}

// collect is the promise-ordered traversal behind both ranked kinds
// (Algorithm 4): leaf cells are visited in order of their promise value and
// their live entries appended, annotated with the source cell's promise and
// prefix, until at least want have been collected. With trim the last cell
// is cut so exactly want remain — the approximate candidate set; without,
// want = 1 yields the whole first non-empty cell. A non-nil filter restricts
// the visit to its first-level cells before any counting, so the filtered
// stream is what an index holding only those cells would emit.
//
// With runs non-nil the same traversal counts instead of collecting: each
// cell the stream would draw from becomes one CellRun appended to *runs, and
// no candidate is returned. A cell's count is its live() bookkeeping, so no
// bucket is read — except on an unsplit root leaf under a filter, whose
// entries belong to different first-level cells and are counted one by one.
func (ix *Index) collect(q ApproxQuery, want int, trim bool, filter PivotFilter, runs *[]CellRun) ([]RankedCandidate, error) {
	// Validate up front: a query missing what the configured ranking needs
	// (ranks for footrule, distances for distance-sum) must become an error,
	// not an index-out-of-range panic inside the promise function.
	if err := ix.validateApprox(q); err != nil {
		return nil, err
	}
	st := ix.state.Load()
	var out []RankedCandidate
	if trim && runs == nil {
		// want arrives straight off the wire; the index cannot return more
		// than it holds, so that bounds the allocation.
		out = make([]RankedCandidate, 0, min(want, st.size))
	}
	pr := ix.newPromiser(q)
	pq := ix.getQueue(st.root)
	defer ix.putQueue(pq)
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	have := 0 // candidates collected, or counted
	for pq.Len() > 0 && have < want {
		item := pq.pop()
		if item.n.isLeaf() {
			live := item.n.live()
			if live == 0 {
				continue
			}
			// Only an unsplit root leaf mixes first-level cells; deeper
			// leaves were filtered when the root's children were queued.
			root := len(item.n.prefix) == 0
			if runs != nil && !(root && filter != nil) {
				if trim {
					live = min(live, want-have)
				}
				*runs = append(*runs, CellRun{Promise: item.promise, Prefix: item.n.prefix, Count: live})
				have += live
				continue
			}
			b, transient, err := ix.leafViewN(item.n, item.n.count, sc)
			if err != nil {
				return nil, err
			}
			counted := 0
			for i := 0; i < b.Len() && !(trim && have == want); i++ {
				v := b.At(i)
				if st.tombs.has(v.ID) {
					continue
				}
				if root && !filter.allowsView(&v) {
					continue
				}
				have++
				if runs != nil {
					counted++
					continue
				}
				if len(out) == cap(out) {
					out = slices.Grow(out, b.Len()-i) // room for the rest of the cell at once
				}
				out = append(out, RankedCandidate{Entry: sc.keep(v, transient), Promise: item.promise, Prefix: item.n.prefix})
			}
			if counted > 0 {
				*runs = append(*runs, CellRun{Promise: item.promise, Prefix: item.n.prefix, Count: counted})
			}
			continue
		}
		level := item.n.level()
		for i := range item.n.kids {
			k := item.n.kids[i]
			if filter != nil && level == 0 && !filter.Allows(k.key) {
				continue
			}
			pq.push(pr.childItem(item, k.n, level, k.key))
		}
	}
	return out, nil
}

// collectBound is the best-first traversal behind KindBound (pivot-based
// k-NN, arXiv:2005.03468): cells leave a queue keyed by their box bound,
// which never exceeds the bound of an entry below them (see box.lowerBound),
// and entries enter a heap keeping the want smallest bound keys. Once the
// heap is full and the next cell's bound exceeds the largest key kept, no
// entry still queued can displace one, so the result is exactly the first
// want live entries of a sort of all of them by bound key. A cell without a
// box (the root, or one holding an entry without distances) is keyed 0.
func (ix *Index) collectBound(qDists []float64, want int, filter PivotFilter, share *BoundShare) ([]RankedCandidate, error) {
	if len(qDists) != ix.cfg.NumPivots {
		return nil, fmt.Errorf("mindex: query has %d pivot distances, want %d", len(qDists), ix.cfg.NumPivots)
	}
	if want <= 0 {
		return nil, fmt.Errorf("mindex: candidate size must be positive, got %d", want)
	}
	st := ix.state.Load()
	// want arrives straight off the wire; the index cannot return more than
	// it holds, so that bounds the allocation.
	want = min(want, st.size)
	if want == 0 {
		return nil, nil
	}
	best := make(boundHeap, 0, want)
	// limit is the bound above which nothing collected from here on can
	// make the answer: the worst bound kept once best is full, lowered by
	// what the other indexes of the query have found.
	limit := func() float64 {
		l := share.threshold()
		if len(best) == want {
			l = min(l, best[0].key.LB)
		}
		return l
	}
	var fresh []BoundKey // a leaf's newly kept entries, for the share
	pq := ix.getQueue(st.root)
	defer ix.putQueue(pq)
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	for pq.Len() > 0 {
		item := pq.pop()
		if item.promise > limit() {
			break
		}
		if item.n.isLeaf() {
			if item.n.live() == 0 {
				continue
			}
			b, transient, err := ix.leafViewN(item.n, item.n.count, sc)
			if err != nil {
				return nil, err
			}
			l := limit()
			fresh = fresh[:0]
			for i := range b.Len() {
				id, dists := b.filterFields(i)
				lb, above := entryBound(qDists, dists, l)
				if above {
					continue
				}
				if st.tombs.has(id) {
					continue
				}
				v := b.At(i)
				// Only an unsplit root leaf mixes first-level cells.
				if filter != nil && len(item.n.prefix) == 0 && !filter.allowsView(&v) {
					continue
				}
				it := boundItem{key: BoundKey{LB: lb, ID: id}, v: v, transient: transient}
				if len(best) < want {
					best.push(it)
				} else if it.key.Compare(best[0].key) < 0 {
					best.replaceTop(it)
				} else {
					continue
				}
				if share != nil {
					fresh = append(fresh, it.key)
				}
			}
			if len(fresh) > 0 {
				share.offer(fresh)
			}
			// What a transient leaf left in the heap outlives its read: copy
			// it out.
			for i := 0; transient && i < len(best); i++ {
				if best[i].transient {
					best[i].v, best[i].transient = sc.keep(best[i].v, true), false
				}
			}
			continue
		}
		for i := range item.n.kids {
			kid := item.n.kids[i]
			if filter != nil && item.n.level() == 0 && !filter.Allows(kid.key) {
				continue
			}
			lb := 0.0
			if kid.n.box != nil {
				lb = kid.n.box.lowerBound(qDists)
			}
			if lb > limit() {
				continue
			}
			pq.push(rankedNode{n: kid.n, promise: lb})
		}
	}
	if len(best) == 0 {
		return nil, nil
	}
	slices.SortFunc(best, func(a, b boundItem) int { return a.key.Compare(b.key) })
	out := make([]RankedCandidate, len(best))
	for i, b := range best {
		out[i] = RankedCandidate{Entry: b.v, Promise: b.key.LB}
	}
	return out, nil
}

// boundItem is one entry kept by collectBound: its key and its record,
// transient while the record is the current leaf's scratch read.
type boundItem struct {
	key       BoundKey
	v         EntryView
	transient bool
}

// boundHeap is a max-heap by bound key: its root is the worst entry kept.
type boundHeap []boundItem

func (h *boundHeap) push(it boundItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[i].key.Compare(s[parent].key) <= 0 {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// replaceTop overwrites the worst entry kept with it and restores the heap.
func (h boundHeap) replaceTop(it boundItem) {
	h[0] = it
	for i := 0; ; {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].key.Compare(h[worst].key) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// BoundShare tracks the CandSize smallest bound keys that the indexes
// answering one KindBound query together have collected so far. Once it
// holds CandSize keys their largest bound is a threshold no entry of the
// union's first CandSize exceeds, and it only falls as better keys arrive,
// so each index may skip any cell or entry bounded above it. With it every
// shard of an engine stops about where one index holding all their entries
// would, rather than where its own first CandSize end; each index still
// returns its own first CandSize among what it did not skip, and the merge
// of those is exactly the union's first CandSize.
type BoundShare struct {
	limit atomic.Uint64 // float64 bits of the threshold, +Inf until top is full
	mu    sync.Mutex
	top   boundHeap // keys only
	want  int
}

// NewBoundShare returns the share of a KindBound query asking for want
// entries of indexes holding live entries between them.
func NewBoundShare(want, live int) *BoundShare {
	want = max(min(want, live), 0)
	s := &BoundShare{top: make(boundHeap, 0, want), want: want}
	s.limit.Store(math.Float64bits(math.Inf(1)))
	return s
}

// threshold is the bound above which an entry cannot be among the union's
// first CandSize (+Inf for a nil share).
func (s *BoundShare) threshold() float64 {
	if s == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(s.limit.Load())
}

// offer adds the keys one index has just collected.
func (s *BoundShare) offer(keys []BoundKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		if len(s.top) < s.want {
			s.top.push(boundItem{key: k})
		} else if k.Compare(s.top[0].key) < 0 {
			s.top.replaceTop(boundItem{key: k})
		}
	}
	if len(s.top) == s.want && s.want > 0 {
		s.limit.Store(math.Float64bits(s.top[0].key.LB))
	}
}

// all is the KindAll search: every live entry the filter allows, leaf by
// leaf.
func (ix *Index) all(filter PivotFilter) ([]RankedCandidate, error) {
	st := ix.state.Load()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	out := make([]RankedCandidate, 0, st.size)
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.isLeaf() {
			if n.live() == 0 {
				return nil
			}
			b, transient, err := ix.leafViewN(n, n.count, sc)
			if err != nil {
				return err
			}
			for i := range b.Len() {
				v := b.At(i)
				if st.tombs.has(v.ID) || !filter.allowsView(&v) {
					continue
				}
				out = append(out, RankedCandidate{Entry: sc.keep(v, transient)})
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
	return out, nil
}
