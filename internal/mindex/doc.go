// Package mindex implements the M-Index (Novak & Batko 2009; Novak, Batko,
// Zezula 2011): a dynamic, disk-efficient metric index based on recursive
// Voronoi partitioning driven by pivot-permutation prefixes.
//
// Each indexed object is assigned to the Voronoi cell of its closest pivot;
// cells exceeding a capacity limit are recursively re-partitioned by the
// next-closest pivot, producing a dynamic cell tree addressed by permutation
// prefixes (Figures 2 and 3 of the paper). Range queries prune the tree with
// metric constraints (the generalized-hyperplane bound, and each cell's box
// of minimum and maximum distances to every pivot) and filter individual
// objects with the pivot-distance lower bound; approximate k-NN queries rank
// cells by a promise value and collect a candidate set of a requested size
// (Algorithms 3 and 4). A range query and the precise k-NN's bound-ordered
// first page are one best-first walk (bounded), which returns its
// candidates in bound-key order, cut at a count or a page's bytes.
//
// # Key invariant: pivot-space-only operation
//
// Every index operation here consumes only object–pivot and query–pivot
// distances (or the permutations derived from them) — never the objects or
// pivots themselves. The index therefore runs unmodified on an untrusted
// server that stores opaque encrypted payloads: this is precisely the
// property the paper exploits. An entry's payload is opaque here whatever it
// holds; the non-encrypted baseline stores the object's plaintext encoding
// in it and refines through internal/core like an authorized client, so
// this package has no search that reads objects and no exact k-NN of its
// own (the precise k-NN is core's bound page + range).
//
// # Key invariant: a cell's box never out-prunes the per-entry filter
//
// A cell's box (box.go) is the componentwise minimum and maximum of the
// distance vectors stored below it, kept only while every such entry has
// one. Its bound on a query, max_p max(q_p − hi_p, lo_p − q_p), is at most
// pivot.LowerBound of each of those entries, so skipping a cell on it skips
// only entries the filter of Algorithm 3 (lines 5–7) would drop one by one:
// candidate lists are identical with and without boxes, and what changes is
// the number of buckets read. It is derived from Entry.Dists, which the
// server stores anyway. Snapshot versions 1 and 2 recorded one dimension of
// it; such a tree prunes as it did until a Compact rebuilds the boxes.
//
// # Key invariant: tombstones and compaction
//
// The index is mutable. Delete marks entries dead through an ID-keyed
// tombstone set — searches skip tombstoned entries immediately, so a
// deleted entry is never observable in any result even though its record
// still occupies its bucket. The set is a persistent hash trie (tombSet), so
// a delete copies the few trie nodes on its ID's path, not the set: its cost
// does not grow with the tombstones a compaction has yet to clear. Entry IDs must be unique among live entries
// (InsertBulk returns ErrDuplicateID for a live duplicate and physically
// purges a dead twin on re-insert). One writer files entries, the planner
// in bulk.go: every InsertBulk batch, which publishes whole or not at
// all, and every Compact go through it. Compact physically drops tombstoned
// entries and merges cells that deletion left underfull; afterwards the
// index is byte-identical to one freshly built from the surviving entries
// in arrival order (see DESIGN.md §Mutability), so churn never degrades
// search semantics.
//
// # Key invariant: a bucket is its bytes
//
// A bucket exists in one form only, its image: the records AppendEntry
// writes, back to back, with a table of where each starts (Bucket). It is
// byte for byte the DiskStore bucket file, and the same records are the
// write-ahead log's and the wire's. MemStore grows an image per bucket, the
// DiskStore cache holds images, pins hold images, and every reader walks
// EntryViews over them — the pivot filter reads the stored distances in
// their little-endian form, a candidate is its record's view. A search
// whose cache miss the budget cannot hold reads the file into its own
// scratch image and copies out only the records it keeps. Mutations
// move record spans and decode nothing; whole entries are decoded only by
// callers that keep them (EntryView.Decode, Flat) and on ingest
// (DecodeEntry).
//
// # Key invariant: deterministic tree shape and candidate order
//
// The cell tree's shape depends only on the final entry multiset (a cell
// splits iff its count exceeds BucketCapacity), not on arrival order, and
// bucket order within a cell is arrival order. Approximate candidates are
// emitted cell by cell in (promise, prefix) order; range and bound-ordered
// candidates in (bound, ID) order (BoundKey), a function of the entry and
// the query alone, whatever the tree's shape — the contracts the sharded
// engine and the cluster coordinator rely on when they merge partitioned
// streams (internal/merge).
package mindex
