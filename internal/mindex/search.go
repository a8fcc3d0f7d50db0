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
// single or batched, ranked or flat, filtered or not, a page or a whole
// answer — is a presentation of one of them.
const (
	// KindRange is the one bound-ordered read: the entries of Algorithm 3's
	// range from the query's pivot distances (Dists), in bound order (see
	// BoundKey), cut at the first it reaches of three limits — Radius (+Inf
	// for none), CandSize entries and Page bytes. A precise k-NN's first
	// page is a range of radius +Inf cut at CandSize, and its later pages
	// resume the same order After the last of them.
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
)

// Query is the one read request an index answers. ApproxQuery carries the
// pivot-space view of the query object: Dists for KindRange, and whatever
// the configured ranking strategy needs for the two promise-ranked kinds.
type Query struct {
	Kind QueryKind
	ApproxQuery
	// Radius is a KindRange query's largest bound; +Inf keeps every entry.
	Radius float64
	// CandSize is a KindApprox query's candidate count and, on a KindRange
	// query, the most entries one answer holds (0: no count cut).
	CandSize int
	// After, on a KindRange query, keeps only the entries whose bound key
	// sorts after it: the keyset cursor that resumes a full page. Nil keeps
	// every entry.
	After *BoundKey
	// Page, on a KindRange query, is the byte budget of one page of the
	// answer (see PageEnd); 0 means no byte cut.
	Page int
	// Allow restricts the search to first-level cells; nil allows all.
	Allow PivotFilter
	// Share pools the threshold of a KindRange search cut at CandSize across
	// the indexes that answer one query together (see BoundShare); nil for a
	// lone index.
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
		// A NaN radius is no radius: it compares false with every bound.
		if !(q.Radius >= 0) {
			return nil, fmt.Errorf("mindex: query radius %g is not a non-negative number", q.Radius)
		}
		return ix.bounded(q)
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
// Algorithm 4 across index partitions. A KindRange candidate carries its own
// bound key's LB as the promise and no prefix.
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

// planeBound is the generalized-hyperplane lower bound on the distance from
// the query to any object of the child cell reached from a parent with the
// given prefix via permutation element key: every such object has p_key
// among its nearest pivots outside the prefix, so
// d(q,o) ≥ (d(q,p_key) − min_{m∉prefix} d(q,p_m)) / 2. Unlike the cell's
// box bound it may exceed the pivot bound of the entries below (it bounds
// d(q,o), not BoundKey.LB), so only a range's radius may prune on it.
func planeBound(prefix []int32, key int32, qDists []float64) float64 {
	minOther := math.Inf(1)
	for m, d := range qDists {
		if !onPath(prefix, key, int32(m)) && d < minOther {
			minOther = d
		}
	}
	if math.IsInf(minOther, 1) {
		return 0
	}
	return (qDists[key] - minOther) / 2
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
// leaf that misses the cache is read into (see leafViewN), the candidates
// held back from it, and the arena the entries it keeps from such a leaf
// are copied to.
type searchScratch struct {
	bucket Bucket
	// held is what a bound-ordered walk admits from such a leaf, until the
	// leaf's end (see bounded).
	held []RankedCandidate
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

// bounded is the one bound-ordered walk, the KindRange search: best-first
// over the cell tree (the pivot-based k-NN of arXiv:2005.03468, whose range
// form is Algorithm 3). Cells leave a queue keyed by their box bound, which
// never exceeds the bound key of an entry below them (see box.lowerBound),
// and the entries they hold are filtered and handed to keep, which holds the
// smallest bound keys so far up to its cut. The walk stops once the next
// cell's bound exceeds the limit: the radius, the share's threshold, and —
// once keep is full — the largest key kept, since no entry still queued
// could displace one. So the answer is exactly a prefix, cut at CandSize
// entries or Page bytes, whichever comes first, of a sort of every
// qualifying entry by bound key, and it comes back in that order.
//
// A finite radius also skips a cell whose hyperplane bound (planeBound)
// exceeds it; with the box bound that is Algorithm 3's pruning, so an
// answer that is not cut reads exactly the leaves the paper's range query
// reads. Every entry within the radius is returned (the bounds are true
// metric lower bounds); the caller refines by computing real distances.
//
// A non-nil After keeps only entries whose bound key sorts after it: the
// cursor that resumes a full page, so the pages of one order hold each
// entry once. A cell without a box (the root, or one holding an entry
// without distances) is keyed 0.
func (ix *Index) bounded(q Query) ([]RankedCandidate, error) {
	qDists, r, after, filter, share := q.Dists, q.Radius, q.After, q.Allow, q.Share
	if len(qDists) != ix.cfg.NumPivots {
		return nil, fmt.Errorf("mindex: query has %d pivot distances, want %d", len(qDists), ix.cfg.NumPivots)
	}
	st := ix.state.Load()
	keep := kept{want: max(q.CandSize, 0), budget: max(q.Page, 0)}
	if keep.want > 0 {
		// want arrives straight off the wire; the index cannot return more
		// than it holds, so that bounds the allocation.
		keep.want = min(keep.want, st.size)
		if keep.want == 0 {
			return nil, nil
		}
		keep.items = make([]RankedCandidate, 0, keep.want)
	}
	finite := !math.IsInf(r, 1)
	limit := func() float64 { return min(r, share.threshold(), keep.limit()) }
	var fresh []BoundKey // a leaf's newly kept keys, for the share
	pq := ix.getQueue(st.root)
	defer ix.putQueue(pq)
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	for pq.Len() > 0 {
		item := pq.pop()
		if item.promise > limit() {
			break
		}
		n := item.n
		// Only an unsplit root leaf mixes first-level cells; deeper leaves
		// were filtered at the root's child table.
		root := filter != nil && len(n.prefix) == 0
		if n.isLeaf() {
			if n.live() == 0 {
				continue
			}
			b, transient, err := ix.leafViewN(n, n.count, sc)
			if err != nil {
				return nil, err
			}
			l := limit()
			fresh = fresh[:0]
			// What keep admits from a leaf read into the scratch enters at
			// the leaf's end, in key order, once keep is full or when its
			// cut is a count (CandSize, which the first leaves fill): each
			// candidate is copied out of the read only as it is kept, and
			// no later one of the leaf can then evict it. A range that
			// never fills its page copies as it goes.
			hold := transient && (keep.full || keep.want > 0)
			for i := range b.Len() {
				// The pivot filter (Algorithm 3, lines 5–7) comes first: it
				// drops most entries and reads only the ID and the distances.
				id, dists := b.filterFields(i)
				lb, above := entryBound(qDists, dists, l)
				if above {
					continue
				}
				key := BoundKey{LB: lb, ID: id}
				if (after != nil && key.Compare(*after) <= 0) || !keep.admits(key) {
					continue
				}
				if root {
					if v := b.At(i); !filter.allowsView(&v) {
						continue
					}
				}
				if st.tombs.has(id) {
					continue
				}
				rc := RankedCandidate{Entry: b.At(i), Promise: lb}
				if hold {
					sc.held = append(sc.held, rc)
					continue
				}
				rc.Entry = sc.keep(rc.Entry, transient)
				keep.add(rc)
				if share != nil {
					fresh = append(fresh, key)
				}
			}
			if hold {
				slices.SortFunc(sc.held, func(a, b RankedCandidate) int { return boundKeyOf(&a).Compare(boundKeyOf(&b)) })
				for _, rc := range sc.held {
					if key := boundKeyOf(&rc); keep.admits(key) {
						rc.Entry = sc.keep(rc.Entry, true)
						keep.add(rc)
						if share != nil {
							fresh = append(fresh, key)
						}
					}
				}
				sc.held = sc.held[:0]
			}
			if len(fresh) > 0 {
				share.offer(fresh)
			}
			continue
		}
		for i := range n.kids {
			kid := n.kids[i]
			// A root child's key is its subtree's first-level cell.
			if root && !filter.Allows(kid.key) {
				continue
			}
			lb := 0.0
			if kid.n.box != nil {
				lb = kid.n.box.lowerBound(qDists)
			}
			if lb > limit() || (finite && planeBound(n.prefix, kid.key, qDists) > r) {
				continue
			}
			pq.push(rankedNode{n: kid.n, promise: lb})
		}
	}
	if len(keep.items) == 0 {
		return nil, nil
	}
	sortBound(keep.items)
	return keep.items, nil
}

// sortBound sorts candidates by bound key. It sorts their keys and moves
// each candidate once, cycle by cycle, into its place: a candidate is 88
// bytes, and a sort would copy it at every swap and comparison.
func sortBound(rcs []RankedCandidate) {
	type keyAt struct {
		key BoundKey
		at  int
	}
	order := make([]keyAt, len(rcs))
	for i := range rcs {
		order[i] = keyAt{boundKeyOf(&rcs[i]), i}
	}
	slices.SortFunc(order, func(a, b keyAt) int { return a.key.Compare(b.key) })
	for i := range order {
		if order[i].at < 0 {
			continue
		}
		// Position j takes the candidate at order[j].at; follow the cycle
		// through i, marking each position filled.
		held, j := rcs[i], i
		for {
			from := order[j].at
			order[j].at = -1
			if from == i {
				rcs[j] = held
				break
			}
			rcs[j] = rcs[from]
			j = from
		}
	}
}

// boundKeyOf is a bound-ordered candidate's key: the LB its promise
// carries, then its ID.
func boundKeyOf(rc *RankedCandidate) BoundKey { return BoundKey{LB: rc.Promise, ID: rc.Entry.ID} }

// kept holds what a bound-ordered walk keeps: the candidates with the
// smallest bound keys seen so far, cut at want of them or where their
// records reach budget bytes (as PageEnd cuts them), whichever comes first,
// or not at all. They are a plain list until they reach a cut, and from then
// on a max-heap by key that drops its worst candidate whenever the rest
// reach a cut without it.
type kept struct {
	items  []RankedCandidate
	want   int // 0: no count cut
	budget int // 0: no byte cut
	bytes  int // the records' bytes, under a budget
	full   bool
}

// limit is the bound above which no entry can be kept: the worst kept once
// the cut is reached, +Inf before.
func (k *kept) limit() float64 {
	if k.full {
		return k.items[0].Promise
	}
	return math.Inf(1)
}

// admits reports whether an entry keyed key would be kept.
func (k *kept) admits(key BoundKey) bool {
	return !k.full || key.Compare(boundKeyOf(&k.items[0])) < 0
}

// add keeps rc, which admits let in.
func (k *kept) add(rc RankedCandidate) {
	size := 0
	if k.budget > 0 {
		size = rc.Bytes()
	}
	switch {
	case !k.full:
		k.items = append(k.items, rc)
		k.bytes += size
		if k.full = (k.want > 0 && len(k.items) >= k.want) || (k.budget > 0 && k.bytes >= k.budget); k.full {
			for i := len(k.items)/2 - 1; i >= 0; i-- {
				k.down(i)
			}
		}
	case len(k.items) == k.want:
		// At the count cut rc takes the place of the worst.
		if k.budget > 0 {
			size -= k.items[0].Bytes()
		}
		k.bytes += size
		k.items[0] = rc
		k.down(0)
	default:
		k.items = append(k.items, rc)
		k.bytes += size
		k.up(len(k.items) - 1)
	}
	// Under a budget the worst goes once the rest reach it without it.
	for k.full && k.budget > 0 && k.bytes-k.items[0].Bytes() >= k.budget {
		k.bytes -= k.items[0].Bytes()
		last := len(k.items) - 1
		k.items[0] = k.items[last]
		k.items = k.items[:last]
		k.down(0)
	}
}

// greater orders the heap: the larger bound key first.
func (k *kept) greater(i, j int) bool {
	return boundKeyOf(&k.items[i]).Compare(boundKeyOf(&k.items[j])) > 0
}

func (k *kept) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !k.greater(i, parent) {
			return
		}
		k.items[i], k.items[parent] = k.items[parent], k.items[i]
		i = parent
	}
}

func (k *kept) down(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(k.items) && k.greater(c, worst) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		k.items[i], k.items[worst] = k.items[worst], k.items[i]
		i = worst
	}
}

// BoundShare tracks the CandSize smallest bound keys that the indexes
// answering one KindRange query cut at CandSize have collected so far. Once it
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
	top   kept // keys only: each candidate carries its key and nothing else
}

// NewBoundShare returns the share of a KindRange query cut at want entries,
// over indexes holding live entries between them.
func NewBoundShare(want, live int) *BoundShare {
	want = max(min(want, live), 0)
	s := &BoundShare{top: kept{items: make([]RankedCandidate, 0, want), want: want}}
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
	if s.top.want == 0 {
		return
	}
	for _, k := range keys {
		if s.top.admits(k) {
			s.top.add(RankedCandidate{Entry: EntryView{ID: k.ID}, Promise: k.LB})
		}
	}
	s.limit.Store(math.Float64bits(s.top.limit()))
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
