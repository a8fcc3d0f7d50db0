// Package engine hosts the server-side index engine: a ShardedIndex that
// partitions the M-Index across independently locked shards and fans
// searches out across a bounded worker pool (internal/fanout), converting
// the serving hot path from lock-serialized to core-parallel.
//
// # One read entry point
//
// Search(mindex.Query) is the only read path: one fan-out body sends the
// query — whatever its kind, with or without a first-level allow-list — to
// every shard, and merge.Combine folds the per-shard answers by kind. The
// flat methods (RangeByDists, ApproxCandidates, ApproxCandidatesRanked,
// AllEntries) are one-line adapters over it for tools and tests. The frozen
// benchmark/ module calls them too: ApproxCandidates, ApproxCandidatesRanked
// and RangeByDists here, and through Shard(i) mindex.Index's
// ApproxCandidatesRanked and RangeByDists (benchmark/layers.go), so deleting
// any of them breaks the benchmark's build.
//
// # Key invariant: routing and merge order
//
// An entry whose pivot permutation starts with pivot p is routed to shard
// p mod N (see DESIGN.md §Sharding). Every first-level Voronoi cell — the
// set of objects sharing a closest pivot — is therefore wholly contained
// in exactly one shard. Because all M-Index pruning and filtering bounds
// are evaluated per cell and per entry, each shard answers range queries
// exactly over its partition, in (bound, ID) order, and the global range
// result is the per-shard results merged by that key (cut at the candidate
// size and the page budget of a cut range): no cross-shard re-filtering is ever needed for
// correctness, and the order is the same however the cells are laid out.
//
// Approximate candidates are collected per shard in promise order and
// merged by (promise, prefix, shard) via internal/merge — the one shared
// implementation of Algorithm 4's "next promising Voronoi cell" discipline
// across partitions, also used by the cluster coordinator
// (internal/cluster) to merge whole servers. Search keeps the
// per-candidate annotations so that outer aggregation layer can repeat the
// identical combine.
//
// With Shards <= 1 the engine is a transparent wrapper around a single
// mindex.Index and reproduces its results byte for byte.
package engine
