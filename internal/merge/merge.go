// Package merge implements the candidate-merge discipline shared by every
// component that combines per-partition M-Index result streams: the
// in-process sharded engine (internal/engine) and the multi-node cluster
// coordinator (internal/cluster) both merge with the functions here, so a
// query answered by N index partitions — shards inside one server, or whole
// servers behind a coordinator — is provably ordered the same way as a
// query answered by one unpartitioned index.
//
// The invariant: approximate candidates are ordered by
// (promise, prefix, source), where promise is the source cell's ranking
// value (Algorithm 4 of the paper), prefix is the cell's permutation prefix
// (lexicographic, shorter first — mindex.PrefixLess), and source is the
// partition index, a final tie-break that can only matter for cells that
// are bytewise identical across partitions (impossible under first-level
// Voronoi routing, where every cell lives in exactly one partition, but
// kept so the order is total no matter how callers partition). The merge is
// stable: entries of one cell stay in bucket order. Bound-ordered
// candidates (mindex.KindBound) carry their own pivot lower bound as the
// promise and are ordered by (bound, ID) — mindex.BoundKey's order.
package merge

import (
	"slices"

	"simcloud/internal/mindex"
)

// Keyed is an element the merge can order: it reports the promise and the
// prefix of its source cell, and its own ID. mindex.RankedCandidate is the
// engine's element; the coordinator merges by-reference candidates
// (wire.CandidateRef) that carry the same annotations and a span of the
// frame instead of a copy of the entry.
//
// The method is declared on the pointer (P is *T) so that reading a key
// never copies the element it belongs to.
type Keyed[T any] interface {
	*T
	Rank() (promise float64, prefix []int32, id uint64)
}

// compareCells is the (promise, prefix) order of two candidates' source
// cells — the one implementation of it; callers add the source tie-break.
func compareCells[T any, P Keyed[T]](a, b *T) int {
	pa, xa, _ := P(a).Rank()
	pb, xb, _ := P(b).Rank()
	switch {
	case pa < pb:
		return -1
	case pa != pb: // greater — or unordered: a NaN is less than nothing
		return 1
	case mindex.PrefixLess(xa, xb):
		return -1
	case mindex.PrefixLess(xb, xa):
		return 1
	}
	return 0
}

// compareBounds is the (bound, ID) order of two bound-ordered candidates.
func compareBounds[T any, P Keyed[T]](a, b *T) int {
	la, _, ia := P(a).Rank()
	lb, _, ib := P(b).Rank()
	return mindex.BoundKey{LB: la, ID: ia}.Compare(mindex.BoundKey{LB: lb, ID: ib})
}

// Ranked flattens per-source candidate lists (each already in promise
// order, as produced by a KindApprox Search) into one list ordered by
// (promise, prefix, source). The result is fully deterministic for any
// interleaving of sources, and for any input it is what a stable sort of the
// concatenated lists by that key gives.
func Ranked[T any, P Keyed[T]](per [][]T) []T { return ranked[T, P](per, -1, compareCells[T, P]) }

// ranked is the merge of per by compare (then source), cut to the first
// limit elements (limit < 0 keeps all). Sources that arrive sorted — every
// well-formed answer — are merged head by head, so only the elements kept
// are ever moved and the merge stops at the limit. An unsorted source or a
// NaN promise (a buggy node) falls back to a stable sort of positions by the
// same key; elements are never swapped, whatever their size.
func ranked[T any, P Keyed[T]](per [][]T, limit int, compare func(a, b *T) int) []T {
	total := 0
	sorted := true
	for _, p := range per {
		total += len(p)
		for i := 0; sorted && i < len(p); i++ {
			promise, _, _ := P(&p[i]).Rank()
			sorted = promise == promise && (i == 0 || compare(&p[i-1], &p[i]) <= 0)
		}
	}
	if limit < 0 || limit > total {
		limit = total
	}
	out := make([]T, 0, limit)
	if !sorted {
		type pos struct{ source, index int }
		order := make([]pos, 0, total)
		for s, p := range per {
			for i := range p {
				order = append(order, pos{s, i})
			}
		}
		slices.SortStableFunc(order, func(a, b pos) int {
			if c := compare(&per[a.source][a.index], &per[b.source][b.index]); c != 0 {
				return c
			}
			return a.source - b.source
		})
		for _, o := range order[:limit] {
			out = append(out, per[o.source][o.index])
		}
		return out
	}
	heads := make([]int, len(per))
	for len(out) < limit {
		best := -1
		for s, p := range per {
			// Strict less: the iteration order supplies the source tie-break.
			if heads[s] < len(p) && (best < 0 || compare(&p[heads[s]], &per[best][heads[best]]) < 0) {
				best = s
			}
		}
		// Everything of the cell at the winning head precedes the other
		// heads as well: take the whole run in one go.
		p, at := per[best], heads[best]
		end := at + 1
		for end < len(p) && len(out)+end-at < limit && compare(&p[at], &p[end]) == 0 {
			end++
		}
		out = append(out, p[at:end]...)
		heads[best] = end
	}
	return out
}

// Entries strips the ranking annotations off a merged candidate list,
// trimming it to at most candSize entries (candSize < 0 keeps everything).
// Each entry is what a candidate reply carries of it — the ID and the
// payload, aliasing the candidate's record; nothing is decoded.
func Entries(rcs []mindex.RankedCandidate, candSize int) []mindex.Entry {
	if candSize >= 0 && len(rcs) > candSize {
		rcs = rcs[:candSize]
	}
	out := make([]mindex.Entry, len(rcs))
	for i := range rcs {
		out[i] = mindex.Entry{ID: rcs[i].Entry.ID, Payload: rcs[i].Entry.Payload()}
	}
	return out
}

// BestCell returns the index of the globally most promising cell among the
// per-source first-cell answers (each one cell's entries, all carrying that
// cell's promise and prefix; empty for a source with no non-empty cell),
// ordered by (promise, prefix, source) exactly like Ranked, or -1 when every
// source is empty.
func BestCell[T any, P Keyed[T]](per [][]T) int {
	best := -1
	for i, rcs := range per {
		if len(rcs) == 0 {
			continue
		}
		// Strict less: the iteration order supplies the source tie-break.
		if best < 0 || compareCells[T, P](&rcs[0], &per[best][0]) < 0 {
			best = i
		}
	}
	return best
}

// Combine folds the per-source answers to q into the answer one
// unpartitioned index would give — the single combine rule behind the
// engine's shard fan-out and the coordinator's node fan-out. The exact kinds
// concatenate in source order (every first-level cell lives in exactly one
// source, and all pruning bounds are per-cell), a range resumed after a
// cursor included; approximate candidates merge by Ranked and trim to the
// candidate size; bound-ordered candidates merge by (bound, ID) and trim to
// the candidate size — each source sent every entry of its own that is
// among the union's first CandSize, so the cut is exactly those; first-cell
// keeps BestCell.
func Combine[T any, P Keyed[T]](q mindex.Query, per [][]T) []T {
	switch q.Kind {
	case mindex.KindApprox:
		return ranked[T, P](per, max(q.CandSize, 0), compareCells[T, P])
	case mindex.KindBound:
		return ranked[T, P](per, max(q.CandSize, 0), compareBounds[T, P])
	case mindex.KindFirstCell:
		if best := BestCell[T, P](per); best >= 0 {
			return per[best]
		}
		return nil
	}
	return slices.Concat(per...)
}
