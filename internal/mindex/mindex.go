package mindex

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"simcloud/internal/pivot"
)

// StorageKind selects the bucket storage backend.
type StorageKind uint8

// Storage backends (Table 2 of the paper uses memory storage for YEAST and
// HUMAN and disk storage for CoPhIR).
const (
	StorageMemory StorageKind = iota + 1
	StorageDisk
)

// String implements fmt.Stringer.
func (s StorageKind) String() string {
	switch s {
	case StorageMemory:
		return "memory"
	case StorageDisk:
		return "disk"
	}
	return fmt.Sprintf("storage(%d)", uint8(s))
}

// RankStrategy selects how approximate search orders Voronoi cells.
type RankStrategy uint8

// Cell-ranking strategies for the approximate k-NN candidate collection.
const (
	// RankFootrule orders cells by a level-weighted Spearman footrule
	// between the cell's permutation prefix and the query's pivot ranks.
	// It needs only the query permutation — the minimum the encrypted
	// client must reveal.
	RankFootrule RankStrategy = iota + 1
	// RankDistSum orders cells by the level-weighted sum of query–pivot
	// distances along the prefix. It needs the query's distance vector.
	RankDistSum
)

// String implements fmt.Stringer.
func (r RankStrategy) String() string {
	switch r {
	case RankFootrule:
		return "footrule"
	case RankDistSum:
		return "distsum"
	}
	return fmt.Sprintf("rank(%d)", uint8(r))
}

// Config parametrizes an M-Index instance.
type Config struct {
	// NumPivots is the size of the pivot set (n in the paper).
	NumPivots int
	// MaxLevel bounds the depth of the dynamic cell tree; permutation
	// prefixes of at most this length address cells.
	MaxLevel int
	// BucketCapacity is the split threshold of a leaf cell.
	BucketCapacity int
	// Storage selects the bucket backend.
	Storage StorageKind
	// DiskPath is the bucket directory for StorageDisk.
	DiskPath string
	// DiskCacheBytes bounds the DiskStore read-through bucket cache (bucket
	// images, each admitted on a read while it fits the free budget and
	// kept until its bucket changes, so repeated queries skip re-reading
	// those files): positive values set the budget in bytes,
	// 0 means DefaultDiskCacheBytes, negative disables the cache. Ignored
	// for memory storage. internal/engine treats the budget as a
	// whole-engine figure and divides it across shards. The cache never
	// changes any result — see DESIGN.md §Performance.
	DiskCacheBytes int
	// Ranking selects the approximate-search cell ordering.
	Ranking RankStrategy
	// Shards partitions the index across this many independently locked
	// sub-indexes keyed by the first permutation element. The field is
	// consumed by internal/engine — a bare Index always behaves as one
	// shard. 0 means 1 (the pre-sharding behavior).
	Shards int
	// EagerRootSplit splits the root cell on the first insert instead of
	// waiting for BucketCapacity overflow, so every leaf lies at prefix
	// length >= 1. internal/engine sets it on shard sub-indexes: it makes a
	// shard's cells (and their promise values) coincide exactly with the
	// corresponding cells of an unsharded tree, which keeps the cross-shard
	// promise merge faithful to Algorithm 4's global cell ordering.
	EagerRootSplit bool
	// AutoCompactFraction, when positive, lets internal/engine compact a
	// shard as soon as its tombstoned entries reach this fraction of the
	// stored (live + dead) entries. A bare Index never compacts on its own;
	// 0 disables the policy everywhere.
	AutoCompactFraction float64
}

func (c Config) validate() error {
	if c.NumPivots <= 0 {
		return errors.New("mindex: NumPivots must be positive")
	}
	if c.MaxLevel <= 0 || c.MaxLevel > c.NumPivots {
		return fmt.Errorf("mindex: MaxLevel must be in 1..NumPivots, got %d", c.MaxLevel)
	}
	if c.BucketCapacity <= 0 {
		return errors.New("mindex: BucketCapacity must be positive")
	}
	switch c.Storage {
	case StorageMemory:
	case StorageDisk:
		if c.DiskPath == "" {
			return errors.New("mindex: StorageDisk requires DiskPath")
		}
	default:
		return fmt.Errorf("mindex: unknown storage kind %d", c.Storage)
	}
	if c.Ranking != RankFootrule && c.Ranking != RankDistSum {
		return fmt.Errorf("mindex: unknown ranking strategy %d", c.Ranking)
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("mindex: Shards must be in 0..%d, got %d", MaxShards, c.Shards)
	}
	if c.AutoCompactFraction < 0 || c.AutoCompactFraction >= 1 {
		return fmt.Errorf("mindex: AutoCompactFraction must be in [0,1), got %g", c.AutoCompactFraction)
	}
	return nil
}

// MaxShards bounds Config.Shards against absurd partition counts.
const MaxShards = 1 << 10

// Entry is one indexed record as stored on the (possibly untrusted) server.
//
// Perm is always set. Dists is present when the data owner uses
// the precise strategy (Algorithm 1, line 4) and enables server-side pivot
// filtering; without it only the approximate strategy is available.
type Entry struct {
	ID      uint64
	Perm    []int32   // permutation prefix, at least Config.MaxLevel long
	Dists   []float64 // object–pivot distances (optional, precise strategy)
	Payload []byte    // the sealed object: a ciphertext, or the plain deployment's plaintext encoding
}

// Index is a thread-safe M-Index over Entries. All operations use only
// pivot-space information carried by the entries and queries; see the
// package comment.
//
// Concurrency follows a read-copy-update discipline: every search and
// statistics call runs against the immutable snapshot last published in
// state and never takes a lock; mutators serialize on wmu, build their
// changes on path-copied nodes aside, and publish a new snapshot with one
// atomic pointer store. See DESIGN.md §Performance for the full protocol.
//
// The index is mutable: Delete marks entries dead through an ID-keyed
// tombstone set (searches skip them immediately), and Compact physically
// drops tombstoned entries while collapsing subtrees that deletion left
// underfull. Entry IDs must be unique among live entries; InsertBulk
// rejects a duplicate of a live ID and physically purges the dead twin
// when re-inserting a tombstoned one. There is no in-place update: an
// entry that moves in pivot space is deleted and inserted again.
type Index struct {
	cfg     Config
	store   BucketStore
	weights []float64
	// eagerPin marks storage whose leaf views are pinned into the nodes at
	// mutation time (memory storage), so searches never touch the store at
	// all. Disk-backed leaves are read through the store on demand to keep
	// the DiskCacheBytes budget meaningful; see leafView.
	eagerPin bool

	// state is the published immutable snapshot: the cell tree, the
	// tombstone set and the live/dead counters, all mutually consistent.
	// Readers Load it once per operation and never block.
	state atomic.Pointer[readState]

	// wmu serializes mutators (and snapshot persistence). Readers never
	// acquire it. The fields below are writer-private state guarded by it.
	wmu sync.Mutex
	// loc maps every physically stored entry (live or tombstoned) to its
	// leaf cell prefix and arrival sequence number. LoadSnapshot pre-warms
	// it eagerly (queries never need it, but mutations do — the eager walk
	// keeps the first post-restore mutation at steady-state latency);
	// ensureLoc remains the backstop for any path that leaves it nil.
	loc     map[uint64]entryLoc
	nextSeq uint64
	// txnGen hands out transaction ownership stamps (see txn.gen).
	// Mutated only under wmu.
	txnGen uint64
	// dirty records that deletions or updates have driven the tree away
	// from the canonical shape a fresh build of the surviving entries would
	// have; Compact restores it.
	dirty bool
	// broken is set when a failed build could not cut a bucket back to its
	// published count: InsertBulk refuses every batch from then on, which
	// would append behind the leftover suffix. A reopen cuts it off.
	broken error
	// scratch is the mutators' reusable buffers.
	scratch writeScratch
	// bulk is the planner's bookkeeping, reused by every build.
	bulk bulkTxn

	// Ingest counters: entries accepted through InsertBulk, batches
	// applied, and the encoded bytes those entries occupy. Written by
	// mutators (under wmu), read lock-free by IngestStats.
	ingestEntries atomic.Uint64
	ingestBuilds  atomic.Uint64
	ingestBytes   atomic.Uint64

	// pqPool recycles promise-queue backing arrays across searches so the
	// steady-state query path allocates no traversal state (see search.go).
	pqPool sync.Pool
	// scratchPool recycles the disk searches' scratch (see searchScratch).
	scratchPool sync.Pool
}

// readState is one published snapshot of the index. All reachable data —
// the node tree, the tombstone set, pinned bucket views — is immutable once
// published; mutators clone what they change and publish a fresh readState.
type readState struct {
	root *node
	size int // live entries
	dead int // tombstoned entries still physically stored
	// tombs holds the IDs of deleted-but-not-yet-compacted entries.
	tombs tombSet
}

// entryLoc locates one stored entry: its leaf cell prefix and the
// monotonically increasing arrival sequence number that Compact uses to
// preserve insertion order when it rebuilds buckets. The prefix (not a node
// pointer) is stored because path-copying mutations continually supersede
// node objects; the prefix stays the entry's stable address until a split
// moves it (which rewrites the loc entry).
type entryLoc struct {
	prefix []int32
	seq    uint64
}

// pinCell holds a pinned full bucket view shared by every node version of
// one leaf bucket. Before a mutator frees a bucket it stores the bucket's
// full view here, so readers of any previously published node version — all
// of which share this cell and cut the view to their own count — keep a
// consistent bucket image without locks. See Index.leafView.
type pinCell struct {
	v atomic.Pointer[Bucket]
}

// child is one entry of a node's sorted child table.
type child struct {
	key int32
	n   *node
}

// node is a cell of the dynamic Voronoi cell tree. A node is either a leaf
// owning a bucket, or an internal node with children keyed by the next
// permutation element. Published nodes are immutable: mutators clone the
// nodes along the root→leaf path they change (path copying) and publish the
// new root; the only mutable field of a published node is the pin cell's
// atomic pointer.
type node struct {
	prefix []int32
	// kids is the sorted (by key) child table — nil for leaves. A slice
	// (not a map) so path copying clones a node in one allocation and
	// traversals walk children in deterministic order with no sorting.
	kids   []child
	bucket BucketID
	pin    *pinCell
	// count/dead cover this subtree, tombstoned entries included in count.
	count int
	dead  int

	// box bounds the distance of every entry stored below the cell to every
	// pivot. Nil once an entry without a distance vector arrived (and on the
	// root, which is never pruned). Deletions leave it untouched — it then
	// covers a superset of the live entries, which keeps pruning correct
	// (conservative) until Compact recomputes it.
	box box
	// boxShared marks a box this node version still shares with the published
	// one it was path-copied from; updateBounds copies it before the first
	// write. Meaningful only while a transaction owns the node.
	boxShared bool

	// gen is the ownership stamp of the transaction that created or cloned
	// this node version (see txn.gen). Runtime-only — never serialized.
	gen uint64
}

// live returns the number of non-tombstoned entries in the subtree.
func (n *node) live() int { return n.count - n.dead }

func (n *node) isLeaf() bool { return n.kids == nil }

// child returns the child reached via permutation element key, or nil. The
// child table is short (bounded by the pivot count), so a linear scan over
// the contiguous slice beats a map lookup and allocates nothing.
func (n *node) child(key int32) *node {
	for i := range n.kids {
		if n.kids[i].key == key {
			return n.kids[i].n
		}
	}
	return nil
}

// addKid links c under n at key, keeping the child table sorted by key.
// Callers own n (it is unpublished or path-copied this transaction).
func (n *node) addKid(key int32, c *node) {
	i := len(n.kids)
	n.kids = append(n.kids, child{key: key, n: c})
	for ; i > 0 && key < n.kids[i-1].key; i-- {
		n.kids[i] = n.kids[i-1]
	}
	n.kids[i] = child{key: key, n: c}
}

// setKid replaces the child at key with c (used when path copying descends
// through an already-linked child). Callers own n.
func (n *node) setKid(key int32, c *node) {
	for i := range n.kids {
		if n.kids[i].key == key {
			n.kids[i].n = c
			return
		}
	}
	panic("mindex: setKid of missing key")
}

func (n *node) level() int { return len(n.prefix) }

// lastPivot returns the cell's defining pivot index, or -1 for the root.
func (n *node) lastPivot() int32 {
	if len(n.prefix) == 0 {
		return -1
	}
	return n.prefix[len(n.prefix)-1]
}

// New creates an empty M-Index.
func New(cfg Config) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var store BucketStore
	var err error
	switch cfg.Storage {
	case StorageMemory:
		store = NewMemStore()
	case StorageDisk:
		ds, derr := NewDiskStore(cfg.DiskPath)
		if derr != nil {
			return nil, derr
		}
		ds.SetCacheBudget(cfg.DiskCacheBytes)
		store = ds
	}
	idx := &Index{
		cfg:      cfg,
		store:    store,
		weights:  pivot.FootruleWeights(cfg.MaxLevel),
		eagerPin: cfg.Storage == StorageMemory,
		loc:      make(map[uint64]entryLoc),
	}
	rootBucket, err := store.Create()
	if err != nil {
		return nil, err
	}
	root := &node{bucket: rootBucket, pin: &pinCell{}}
	idx.state.Store(&readState{root: root})
	return idx, nil
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Size returns the number of live (non-tombstoned) indexed entries.
func (ix *Index) Size() int { return ix.state.Load().size }

// Dead returns the number of tombstoned entries still physically stored
// (they disappear on Compact).
func (ix *Index) Dead() int { return ix.state.Load().dead }

// Counts returns the live and dead entry counts read from one snapshot, so
// the two figures are mutually consistent even while mutations are in
// flight (Size and Dead called separately may straddle a publication).
func (ix *Index) Counts() (live, dead int) {
	st := ix.state.Load()
	return st.size, st.dead
}

// Close releases the bucket storage.
func (ix *Index) Close() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.store.Close()
}

// ErrDuplicateID reports an inserted entry whose ID is already live in the
// index. Delete the entry first to replace it.
var ErrDuplicateID = errors.New("mindex: entry ID already indexed")

// CheckEntry validates an entry's shape — its pivot-space metadata —
// against the configuration: the one check every writer of an index with
// this configuration applies before it writes anything.
func (c *Config) CheckEntry(e *Entry) error {
	if len(e.Perm) < c.MaxLevel {
		return fmt.Errorf("mindex: entry permutation has %d elements, need at least MaxLevel=%d",
			len(e.Perm), c.MaxLevel)
	}
	for _, p := range e.Perm {
		if p < 0 || int(p) >= c.NumPivots {
			return fmt.Errorf("mindex: permutation element %d out of range [0,%d)", p, c.NumPivots)
		}
	}
	if e.Dists != nil && len(e.Dists) != c.NumPivots {
		return fmt.Errorf("mindex: entry has %d pivot distances, want %d", len(e.Dists), c.NumPivots)
	}
	// The record counts both in 16 bits (see AppendEntry).
	if len(e.Perm) > math.MaxUint16 || len(e.Dists) > math.MaxUint16 {
		return fmt.Errorf("mindex: entry has %d permutation elements and %d distances, the record holds at most %d of each",
			len(e.Perm), len(e.Dists), math.MaxUint16)
	}
	return nil
}

// leafView returns leaf n's stored entries — exactly the n.count entries
// that existed when n's snapshot was published, tombstoned ones included —
// without copying. The protocol (see DESIGN.md §Performance):
//
//  1. A pinned view, when present, is authoritative: it was stored by the
//     mutator that superseded this node version (or, for memory storage, by
//     the mutation that built it) and covers at least n.count entries.
//  2. Otherwise the bucket is read through the store. A bucket's content
//     only grows — a Cut drops only records no published version counts —
//     so the first n.count entries of what the store holds are this
//     version's content.
//  3. On a store error (the bucket was freed), the freeing mutator is
//     guaranteed to have pinned the content into the shared cell before
//     the Free, so a re-check of the pin must succeed.
func (ix *Index) leafView(n *node) (Bucket, error) {
	b, _, err := ix.leafViewN(n, n.count, nil)
	return b, err
}

// leafViewN is the protocol of leafView for an explicit entry count at most
// n.count. The bulk builder reads a touched leaf's pre-batch content with
// it: the node clone's count already includes the batch entries the build
// has routed here, but the store still holds only the pre-batch prefix.
//
// A search passes its scratch: a disk leaf that misses the cache and does
// not fit its free budget is then read into sc's bucket and reported
// transient — valid until the search's next read, so an entry kept from it
// is copied out (searchScratch.keep). Pinned and memory leaves are never
// transient.
func (ix *Index) leafViewN(n *node, count int, sc *searchScratch) (Bucket, bool, error) {
	if p := n.pin.v.Load(); p != nil {
		return p.prefix(count), false, nil
	}
	b, transient, err := viewScratch(ix.store, n.bucket, sc)
	if err == nil && b.Len() >= count {
		return b.prefix(count), transient, nil
	}
	if p := n.pin.v.Load(); p != nil {
		return p.prefix(count), false, nil
	}
	if err != nil {
		return Bucket{}, false, err
	}
	return Bucket{}, false, fmt.Errorf("mindex: bucket %d holds %d entries, fewer than %d, with no pinned view", n.bucket, b.Len(), count)
}

// viewScratch reads a bucket view, a miss into sc's bucket when the store
// is a DiskStore (see DiskStore.ViewScratch). Other stores (MemStore — its
// leaves are eagerly pinned, so lazy reads never reach it) go through View.
func viewScratch(s BucketStore, id BucketID, sc *searchScratch) (Bucket, bool, error) {
	ds, ok := s.(*DiskStore)
	if !ok {
		b, err := s.View(id)
		return b, false, err
	}
	var scratch *Bucket
	if sc != nil {
		scratch = &sc.bucket
	}
	return ds.ViewScratch(id, scratch)
}

// Stats summarizes the tree shape, used by tooling and tests. Entries
// counts live entries only; Dead counts tombstoned entries still stored
// (bucket figures include them until Compact reclaims the space).
type Stats struct {
	Entries     int
	Dead        int
	Leaves      int
	InnerNodes  int
	MaxDepth    int
	MaxBucket   int
	TotalBucket int
}

// CacheStats reports the bucket store's read-through entry cache counters
// (DiskStore only; ok is false for backends without a cache). Surfaced per
// deployment through engine.Stats.
func (ix *Index) CacheStats() (hits, misses uint64, ok bool) {
	cs, ok := ix.store.(interface {
		CacheStats() (uint64, uint64, int)
	})
	if !ok {
		return 0, 0, false
	}
	hits, misses, _ = cs.CacheStats()
	return hits, misses, true
}

// IngestStats describes what InsertBulk has accepted since the index
// opened: entries admitted, batches applied (every batch that published,
// each one build of the planner in bulk.go), and the encoded bytes those
// entries occupy in the bucket store. Counters start at zero on every
// open — including a snapshot restore — so they measure this process's
// ingest work, not the collection's lifetime.
type IngestStats struct {
	Entries uint64
	Builds  uint64
	Bytes   uint64
}

// IngestStats reports the ingest counters. Lock-free, like every read.
func (ix *Index) IngestStats() IngestStats {
	return IngestStats{
		Entries: ix.ingestEntries.Load(),
		Builds:  ix.ingestBuilds.Load(),
		Bytes:   ix.ingestBytes.Load(),
	}
}

// recordIngest credits an applied batch to the ingest counters. Callers
// hold wmu.
func (ix *Index) recordIngest(entries []Entry) {
	var bytes uint64
	for i := range entries {
		bytes += uint64(EncodedEntrySize(entries[i]))
	}
	ix.ingestBuilds.Add(1)
	ix.ingestEntries.Add(uint64(len(entries)))
	ix.ingestBytes.Add(bytes)
}

// TreeStats walks the cell tree and reports its shape. Like every read it
// runs against one published snapshot and takes no lock, so its figures are
// internally consistent (Entries, Dead and the bucket totals all describe
// the same moment).
func (ix *Index) TreeStats() Stats {
	st := ix.state.Load()
	var s Stats
	s.Entries = st.size
	s.Dead = st.dead
	var walk func(n *node)
	walk = func(n *node) {
		if n.level() > s.MaxDepth {
			s.MaxDepth = n.level()
		}
		if n.isLeaf() {
			s.Leaves++
			s.TotalBucket += n.count
			if n.count > s.MaxBucket {
				s.MaxBucket = n.count
			}
			return
		}
		s.InnerNodes++
		for i := range n.kids {
			walk(n.kids[i].n)
		}
	}
	walk(st.root)
	return s
}
