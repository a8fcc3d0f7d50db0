package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"simcloud/internal/fanout"
	"simcloud/internal/merge"
	"simcloud/internal/mindex"
)

// ShardedIndex partitions entries across N independent mindex.Index shards
// keyed by the first element of the pivot permutation. Each shard carries
// its own lock, so inserts and searches touching different shards proceed
// in parallel. All operations preserve the single-index semantics.
type ShardedIndex struct {
	cfg    mindex.Config
	shards []*mindex.Index
	pool   *fanout.Pool
	// readPool fans searches out separately from the mutation pool, so a
	// query never queues behind a bulk insert or a shard compaction
	// occupying the write workers. Shard reads themselves are lock-free
	// (mindex publishes RCU snapshots), so read tasks never block on shard
	// state either — the pools only bound goroutine counts.
	readPool *fanout.Pool
	closed   atomic.Bool

	// scratch recycles the per-shard result slices a search fans out into,
	// so the steady-state multi-shard hot path allocates no fan-out
	// scaffolding. A slice is cleared before it is parked — it never pins a
	// previous query's results.
	scratch sync.Pool
}

// New creates an empty sharded index. cfg.Shards selects the partition
// count (0 and 1 both mean a single shard, the exact pre-sharding
// behavior). Disk-backed shards each own a shard-NNN subdirectory of
// cfg.DiskPath; a single shard uses cfg.DiskPath directly, staying
// compatible with pre-sharding bucket directories and snapshots.
func New(cfg mindex.Config) (*ShardedIndex, error) {
	// Per-shard configs are rewritten to Shards=1 before mindex validates
	// them, so the engine-level shard count must be checked here.
	if cfg.Shards < 0 || cfg.Shards > mindex.MaxShards {
		return nil, fmt.Errorf("engine: Shards must be in 0..%d, got %d", mindex.MaxShards, cfg.Shards)
	}
	n := max(1, cfg.Shards)
	shards := make([]*mindex.Index, n)
	for i := range shards {
		idx, err := mindex.New(shardConfig(cfg, i, n))
		if err != nil {
			for _, prev := range shards[:i] {
				prev.Close()
			}
			return nil, err
		}
		shards[i] = idx
	}
	return newSharded(cfg, shards), nil
}

// Wrap adapts an existing single index — typically one restored from a
// snapshot — into a 1-shard engine.
func Wrap(idx *mindex.Index) *ShardedIndex {
	return newSharded(idx.Config(), []*mindex.Index{idx})
}

func newSharded(cfg mindex.Config, shards []*mindex.Index) *ShardedIndex {
	s := &ShardedIndex{cfg: cfg, shards: shards}
	if len(shards) > 1 {
		workers := min(len(shards), max(1, runtime.GOMAXPROCS(0)))
		s.pool = fanout.New(workers)
		s.readPool = fanout.New(workers)
	}
	return s
}

// shardConfig derives the per-shard index configuration. Shard sub-indexes
// split their root eagerly: every shard leaf then lies at prefix length
// >= 1, where its prefix — and therefore its promise value — is identical
// to the same cell's in an unsharded tree whose root has split, making
// per-shard promises directly comparable in the cross-shard merge.
// (Without this, a shard whose root bucket has not overflowed yet would
// advertise all its entries at promise 0 and crowd out genuinely promising
// cells of other shards.) The exact-match guarantee therefore holds once
// the collection exceeds BucketCapacity; below that, an unsharded index
// still serves its unsplit root bucket in insertion order while shards
// already serve promise-ordered cells, so candidate lists may differ on
// tiny collections (result correctness is unaffected — range queries are
// exact either way).
func shardConfig(cfg mindex.Config, i, n int) mindex.Config {
	out := cfg
	if n == 1 {
		return out
	}
	out.Shards = 1
	out.EagerRootSplit = true
	if cfg.Storage == mindex.StorageDisk {
		out.DiskPath = filepath.Join(cfg.DiskPath, fmt.Sprintf("shard-%03d", i))
		// The bucket-cache budget is a whole-engine figure: resolve the
		// default here and split it across the shards' stores, so an
		// operator sizing DiskCacheBytes against a memory limit gets that
		// total, not budget × shards. Negative (disabled) passes through.
		budget := cfg.DiskCacheBytes
		if budget == 0 {
			budget = mindex.DefaultDiskCacheBytes
		}
		if budget > 0 {
			out.DiskCacheBytes = max(budget/n, 1)
		}
	}
	return out
}

// Config returns the engine-level configuration (Shards as requested).
func (s *ShardedIndex) Config() mindex.Config { return s.cfg }

// NumShards returns the partition count.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// Shard exposes one partition for white-box inspection by tools and tests.
func (s *ShardedIndex) Shard(i int) *mindex.Index { return s.shards[i] }

// Size returns the total number of indexed entries across all shards.
func (s *ShardedIndex) Size() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.Size()
	}
	return total
}

// Close releases every shard and stops the worker pool.
func (s *ShardedIndex) Close() error {
	s.closed.Store(true)
	if s.pool != nil {
		s.pool.Close()
	}
	if s.readPool != nil {
		s.readPool.Close()
	}
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var errClosed = errors.New("engine: sharded index is closed")

// route maps an entry permutation to its shard: the closest pivot (first
// permutation element) modulo the shard count, preserving first-level
// Voronoi-cell locality. The first element is validated here — entries
// arrive straight off the wire, and a negative element must become an
// error response, not a negative slice index.
func (s *ShardedIndex) route(perm []int32) (int, error) {
	if len(perm) == 0 {
		return 0, errors.New("engine: entry permutation is empty")
	}
	if perm[0] < 0 || int(perm[0]) >= s.cfg.NumPivots {
		return 0, fmt.Errorf("engine: permutation element %d out of range [0,%d)", perm[0], s.cfg.NumPivots)
	}
	return int(perm[0]) % len(s.shards), nil
}

// fanOut runs fn once per shard through the bounded mutation pool (inline
// for a single shard).
func (s *ShardedIndex) fanOut(fn func(i int) error) error {
	return s.fanOutOn(s.pool, fn)
}

// fanOutRead runs fn once per shard through the dedicated read pool, keeping
// search fan-outs from queueing behind mutation tasks.
func (s *ShardedIndex) fanOutRead(fn func(i int) error) error {
	return s.fanOutOn(s.readPool, fn)
}

func (s *ShardedIndex) fanOutOn(pool *fanout.Pool, fn func(i int) error) error {
	if s.closed.Load() {
		return errClosed
	}
	if pool == nil {
		return fn(0)
	}
	err := pool.Run(len(s.shards), fn)
	if errors.Is(err, fanout.ErrClosed) {
		return errClosed
	}
	return err
}

// InsertBulk groups the batch by shard (preserving per-shard arrival order)
// and inserts the groups in parallel through the worker pool. Entries for
// different shards are inserted without contending on a lock.
//
// A batch holding a malformed entry (mindex.Config.CheckEntry) or an ID
// twice is refused before any shard writes, and a shard takes its group
// whole or not at all. A live duplicate is found only inside the routed
// shard, so on several shards the groups of the other shards still land
// beside the refused one; making that all-or-nothing across shards is
// open (ROADMAP, "every owner applies the same writes").
//
// Entry IDs must be unique across the whole engine, but the duplicate
// check against stored entries (mindex.ErrDuplicateID) runs only inside
// the routed shard: a duplicate whose permutation routes to a different
// shard — the object moved in pivot space since its first insert — is not
// detected and would leave two live records. A move is therefore a Delete
// routed by the old permutation followed by an insert of the new entry.
func (s *ShardedIndex) InsertBulk(entries []mindex.Entry) error {
	if len(s.shards) == 1 {
		if s.closed.Load() {
			return errClosed
		}
		return s.shards[0].InsertBulk(entries)
	}
	groups := make([][]mindex.Entry, len(s.shards))
	seen := make(map[uint64]struct{}, len(entries))
	for n := range entries {
		e := &entries[n]
		err := s.cfg.CheckEntry(e)
		if _, dup := seen[e.ID]; err == nil && dup {
			err = fmt.Errorf("%w: %d", mindex.ErrDuplicateID, e.ID)
		}
		if err != nil {
			return fmt.Errorf("engine: insert entry %d: %w", n, err)
		}
		seen[e.ID] = struct{}{}
		i, err := s.route(e.Perm)
		if err != nil {
			return err
		}
		groups[i] = append(groups[i], *e)
	}
	return s.fanOut(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return s.shards[i].InsertBulk(groups[i])
	})
}

// Delete tombstones the referenced entries. Each reference carries the
// entry's ID plus its permutation prefix, whose first element routes the
// delete to the shard that stored the entry — exactly the pivot-space
// metadata an insert reveals, and nothing more. References to unknown (or
// already deleted) IDs are skipped; the count of entries actually deleted
// is returned. When Config.AutoCompactFraction is set, shards whose dead
// fraction crosses it are compacted in the same pass.
func (s *ShardedIndex) Delete(refs []mindex.Entry) (int, error) {
	if s.closed.Load() {
		return 0, errClosed
	}
	groups := make([][]uint64, len(s.shards))
	for _, ref := range refs {
		i, err := s.route(ref.Perm)
		if err != nil {
			return 0, err
		}
		groups[i] = append(groups[i], ref.ID)
	}
	var deleted atomic.Int64
	err := s.fanOut(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		n, err := s.shards[i].Delete(groups[i])
		if err != nil {
			return err
		}
		deleted.Add(int64(n))
		return s.maybeCompact(i)
	})
	return int(deleted.Load()), err
}

// DeleteIDs tombstones entries by bare ID, fanning the whole list out to
// every shard (IDs unknown to a shard are ignored). Use Delete when the
// permutations are at hand — it touches only the owning shards.
func (s *ShardedIndex) DeleteIDs(ids []uint64) (int, error) {
	if s.closed.Load() {
		return 0, errClosed
	}
	var deleted atomic.Int64
	err := s.fanOut(func(i int) error {
		n, err := s.shards[i].Delete(ids)
		if err != nil {
			return err
		}
		deleted.Add(int64(n))
		return s.maybeCompact(i)
	})
	return int(deleted.Load()), err
}

// Compact compacts every shard: tombstoned entries are physically dropped
// and cells that deletion left underfull are merged back into their
// parents, shard by shard behind each shard's own lock. Afterwards each
// shard is byte-identical to a fresh shard built from its surviving
// entries (see mindex.Index.Compact).
func (s *ShardedIndex) Compact() error {
	return s.fanOut(func(i int) error { return s.shards[i].Compact() })
}

// maybeCompact applies the auto-compaction policy to one shard after a
// delete pass: compact once tombstones reach AutoCompactFraction of the
// shard's stored entries.
func (s *ShardedIndex) maybeCompact(i int) error {
	f := s.cfg.AutoCompactFraction
	if f <= 0 {
		return nil
	}
	sh := s.shards[i]
	dead := sh.Dead()
	if dead == 0 {
		return nil
	}
	if float64(dead) >= f*float64(sh.Size()+dead) {
		return sh.Compact()
	}
	return nil
}

// Dead returns the total number of tombstoned entries awaiting compaction
// across all shards.
func (s *ShardedIndex) Dead() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.Dead()
	}
	return total
}

// Search is the engine's one read entry point: the query fans out to every
// shard (each first-level cell lives in exactly one) and merge.Combine folds
// the per-shard answers by the query's kind — the (bound, ID) merge for a
// range, cut at its candidate size and its page budget; the (promise,
// prefix, shard) merge trimmed to the candidate size for approximate
// candidates; the globally most promising cell for first-cell;
// concatenation for download-all — so the result is byte-identical to one
// unsharded index's. The annotations
// stay on, letting a cluster coordinator repeat exactly this combine across
// nodes.
func (s *ShardedIndex) Search(q mindex.Query) ([]mindex.RankedCandidate, error) {
	if len(s.shards) == 1 {
		if s.closed.Load() {
			return nil, errClosed
		}
		return s.shards[0].Search(q)
	}
	perp, _ := s.scratch.Get().(*[][]mindex.RankedCandidate)
	if perp == nil {
		per := make([][]mindex.RankedCandidate, len(s.shards))
		perp = &per
	}
	defer func() {
		clear(*perp)
		s.scratch.Put(perp)
	}()
	per := *perp
	if q.Kind == mindex.KindRange && q.CandSize > 0 {
		// The shards pool the threshold of their bound-ordered walks, so
		// together they read about the cells one unsharded index would.
		q.Share = mindex.NewBoundShare(q.CandSize, s.Size())
	}
	err := s.fanOutRead(func(i int) error {
		out, err := s.shards[i].Search(q)
		per[i] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return merge.Combine(q, per), nil
}

// CellCounts is Search's count form for a KindApprox query: every shard
// counts its own stream (mindex.Index.CellCounts) and merge.Runs merges the
// runs by the rule Search merges the candidates with, so the result is the
// engine's Search answer as cell runs.
func (s *ShardedIndex) CellCounts(q mindex.Query) ([]mindex.CellRun, error) {
	if len(s.shards) == 1 {
		if s.closed.Load() {
			return nil, errClosed
		}
		return s.shards[0].CellCounts(q)
	}
	per := make([][]mindex.CellRun, len(s.shards))
	err := s.fanOutRead(func(i int) error {
		out, err := s.shards[i].CellCounts(q)
		per[i] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	runs, _ := merge.Runs(per, q.CandSize)
	return runs, nil
}

// RangeByDists is the flat form of a KindRange Search.
func (s *ShardedIndex) RangeByDists(qDists []float64, r float64) ([]mindex.Entry, error) {
	return mindex.Flat(s.Search(mindex.Query{
		Kind: mindex.KindRange, ApproxQuery: mindex.ApproxQuery{Dists: qDists}, Radius: r}))
}

// ApproxCandidates is the flat form of a KindApprox Search.
func (s *ShardedIndex) ApproxCandidates(q mindex.ApproxQuery, candSize int) ([]mindex.Entry, error) {
	return mindex.Flat(s.ApproxCandidatesRanked(q, candSize))
}

// ApproxCandidatesRanked is a KindApprox Search over every cell.
func (s *ShardedIndex) ApproxCandidatesRanked(q mindex.ApproxQuery, candSize int) ([]mindex.RankedCandidate, error) {
	return s.Search(mindex.Query{Kind: mindex.KindApprox, ApproxQuery: q, CandSize: candSize})
}

// AllEntries returns every stored entry, shard by shard, decoded — the flat
// form of a KindAll Search, for tooling and tests.
func (s *ShardedIndex) AllEntries() ([]mindex.Entry, error) {
	return mindex.Flat(s.Search(mindex.Query{Kind: mindex.KindAll}))
}

// TreeStats aggregates the per-shard cell-tree statistics: counts sum,
// depth and bucket maxima take the max over shards.
func (s *ShardedIndex) TreeStats() mindex.Stats {
	return s.Stats().Total
}

// Stats reports the engine's live/dead entry counts and tree shape, both
// aggregated and per shard (Shards[i] describes shard i), plus the
// read-through bucket-cache counters summed over all disk-backed shards
// (zero for memory storage, which needs no cache).
type Stats struct {
	Total       mindex.Stats
	Shards      []mindex.Stats
	CacheHits   uint64
	CacheMisses uint64
	// Ingest sums the per-shard ingest counters (entries accepted, builder
	// batches, encoded bytes) since the engine opened.
	Ingest mindex.IngestStats
}

// Stats collects per-shard tree statistics plus their aggregate — the
// operational view of a mutable deployment (live entries, tombstones
// awaiting compaction, bucket occupancy per shard). Each shard is walked
// exactly once and Total is derived from the same snapshot, so Total
// always equals the sum of Shards even under concurrent mutation.
func (s *ShardedIndex) Stats() Stats {
	out := Stats{Shards: make([]mindex.Stats, len(s.shards))}
	for i, sh := range s.shards {
		st := sh.TreeStats()
		out.Shards[i] = st
		out.Total.Entries += st.Entries
		out.Total.Dead += st.Dead
		out.Total.Leaves += st.Leaves
		out.Total.InnerNodes += st.InnerNodes
		out.Total.TotalBucket += st.TotalBucket
		out.Total.MaxDepth = max(out.Total.MaxDepth, st.MaxDepth)
		out.Total.MaxBucket = max(out.Total.MaxBucket, st.MaxBucket)
		if hits, misses, ok := sh.CacheStats(); ok {
			out.CacheHits += hits
			out.CacheMisses += misses
		}
		ing := sh.IngestStats()
		out.Ingest.Entries += ing.Entries
		out.Ingest.Builds += ing.Builds
		out.Ingest.Bytes += ing.Bytes
	}
	return out
}

// SaveSnapshot persists the engine to disk-backed snapshot files: a single
// shard writes the pre-sharding format at path (fully compatible with
// mindex.LoadSnapshot); N > 1 shards write one snapshot per shard at
// path.shard-NNN.
func (s *ShardedIndex) SaveSnapshot(path string) error {
	if len(s.shards) == 1 {
		return s.shards[0].SaveSnapshot(path)
	}
	for i, sh := range s.shards {
		if err := sh.SaveSnapshot(shardSnapshotPath(path, i)); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot restores an engine saved by SaveSnapshot. cfg must match the
// saved configuration, including the shard count: a snapshot saved with a
// different shard count is rejected loudly (loading a subset of shard files
// would silently drop data; loading on top of stale files would mix index
// generations).
func LoadSnapshot(cfg mindex.Config, path string) (*ShardedIndex, error) {
	n := max(1, cfg.Shards)
	if err := checkSnapshotShape(n, path); err != nil {
		return nil, err
	}
	if n == 1 {
		idx, err := mindex.LoadSnapshot(cfg, path)
		if err != nil {
			return nil, err
		}
		eng := Wrap(idx)
		eng.cfg = cfg
		return eng, nil
	}
	shards := make([]*mindex.Index, n)
	for i := range shards {
		idx, err := mindex.LoadSnapshot(shardConfig(cfg, i, n), shardSnapshotPath(path, i))
		if err != nil {
			for _, prev := range shards[:i] {
				prev.Close()
			}
			return nil, err
		}
		shards[i] = idx
	}
	return newSharded(cfg, shards), nil
}

// checkSnapshotShape rejects a load whose shard count disagrees with the
// files on disk: a bare base file alongside an expected sharded layout (or
// vice versa), or more shard files than cfg.Shards.
func checkSnapshotShape(n int, path string) error {
	if n == 1 {
		if _, err := os.Stat(shardSnapshotPath(path, 0)); err == nil {
			return fmt.Errorf("engine: snapshot %s was saved sharded (%s exists); set Config.Shards to the saved count",
				path, shardSnapshotPath(path, 0))
		}
		return nil
	}
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("engine: snapshot %s was saved with a single shard; set Config.Shards to 1 or remove the stale file", path)
	}
	if _, err := os.Stat(shardSnapshotPath(path, n)); err == nil {
		return fmt.Errorf("engine: snapshot %s has more shard files than Config.Shards=%d (%s exists)",
			path, n, shardSnapshotPath(path, n))
	}
	return nil
}

// SnapshotExists reports whether a snapshot saved with cfg's shard count is
// present at path. It errors when files of a different shard layout sit
// there instead — restarting with a changed shard count must fail loudly,
// not silently start an empty index over the old data.
func SnapshotExists(cfg mindex.Config, path string) (bool, error) {
	n := max(1, cfg.Shards)
	if err := checkSnapshotShape(n, path); err != nil {
		return false, err
	}
	probe := path
	if n > 1 {
		probe = shardSnapshotPath(path, 0)
	}
	_, err := os.Stat(probe)
	return err == nil, nil
}

func shardSnapshotPath(path string, i int) string {
	return fmt.Sprintf("%s.shard-%03d", path, i)
}
