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
// kept so the order is total no matter how callers partition). Because the
// sort is stable, entries of one cell stay in bucket order.
package merge

import (
	"slices"
	"sort"

	"simcloud/internal/mindex"
)

// Ranked flattens per-source candidate lists (each already in promise
// order, as produced by a KindApprox Search) into one list ordered by
// (promise, prefix, source). The result is fully deterministic for any
// interleaving of sources.
func Ranked(per [][]mindex.RankedCandidate) []mindex.RankedCandidate {
	type tagged struct {
		rc     mindex.RankedCandidate
		source int
	}
	total := 0
	for _, p := range per {
		total += len(p)
	}
	all := make([]tagged, 0, total)
	for i, p := range per {
		for _, rc := range p {
			all = append(all, tagged{rc: rc, source: i})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.rc.Promise != y.rc.Promise {
			return x.rc.Promise < y.rc.Promise
		}
		if !slices.Equal(x.rc.Prefix, y.rc.Prefix) {
			return mindex.PrefixLess(x.rc.Prefix, y.rc.Prefix)
		}
		return x.source < y.source
	})
	out := make([]mindex.RankedCandidate, len(all))
	for i, t := range all {
		out[i] = t.rc
	}
	return out
}

// Entries strips the ranking annotations off a merged candidate list,
// trimming it to at most candSize entries (candSize < 0 keeps everything).
func Entries(rcs []mindex.RankedCandidate, candSize int) []mindex.Entry {
	if candSize >= 0 && len(rcs) > candSize {
		rcs = rcs[:candSize]
	}
	out := make([]mindex.Entry, len(rcs))
	for i, rc := range rcs {
		out[i] = rc.Entry
	}
	return out
}

// BestCell returns the index of the globally most promising cell among the
// per-source first-cell answers (each one cell's entries, all carrying that
// cell's promise and prefix; empty for a source with no non-empty cell),
// ordered by (promise, prefix, source) exactly like Ranked, or -1 when every
// source is empty.
func BestCell(per [][]mindex.RankedCandidate) int {
	best := -1
	for i, rcs := range per {
		if len(rcs) == 0 {
			continue
		}
		// Strict less: the iteration order supplies the source tie-break.
		if best < 0 || less(rcs[0], per[best][0]) {
			best = i
		}
	}
	return best
}

// less orders two candidates' source cells by (promise, prefix).
func less(a, b mindex.RankedCandidate) bool {
	if a.Promise != b.Promise {
		return a.Promise < b.Promise
	}
	return mindex.PrefixLess(a.Prefix, b.Prefix)
}

// Combine folds the per-source answers to q into the answer one
// unpartitioned index would give — the single combine rule behind the
// engine's shard fan-out and the coordinator's node fan-out. The exact kinds
// concatenate in source order (every first-level cell lives in exactly one
// source, and all pruning bounds are per-cell); approximate candidates merge
// by Ranked and trim to the candidate size; first-cell keeps BestCell.
func Combine(q mindex.Query, per [][]mindex.RankedCandidate) []mindex.RankedCandidate {
	switch q.Kind {
	case mindex.KindApprox:
		merged := Ranked(per)
		if len(merged) > q.CandSize {
			merged = merged[:q.CandSize]
		}
		return merged
	case mindex.KindFirstCell:
		if best := BestCell(per); best >= 0 {
			return per[best]
		}
		return nil
	}
	return slices.Concat(per...)
}
