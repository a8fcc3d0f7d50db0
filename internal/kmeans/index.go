package kmeans

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
)

// Config parametrizes an Index instance. The mirror of mindex.Config for
// the flat cell table of this family.
type Config struct {
	// NumCentroids is the number of cells K. Must match the client model
	// (and therefore the length of every entry's distance vector).
	NumCentroids int
	// Storage selects the bucket backend (the same backends the M-Index
	// uses).
	Storage mindex.StorageKind
	// DiskPath is the bucket directory for StorageDisk.
	DiskPath string
	// DiskCacheBytes bounds the DiskStore read-through bucket cache
	// (semantics of mindex.Config.DiskCacheBytes).
	DiskCacheBytes int
	// Fanout bounds how many cells an approximate search may visit — the
	// "M nearest centroids" of the routing family. 0 means unbounded: visit
	// cells in promise order until the candidate budget fills.
	Fanout int
}

func (c Config) validate() error {
	if c.NumCentroids <= 0 {
		return errors.New("kmeans: NumCentroids must be positive")
	}
	switch c.Storage {
	case mindex.StorageMemory:
	case mindex.StorageDisk:
		if c.DiskPath == "" {
			return errors.New("kmeans: StorageDisk requires DiskPath")
		}
	default:
		return fmt.Errorf("kmeans: unknown storage kind %d", c.Storage)
	}
	if c.Fanout < 0 {
		return fmt.Errorf("kmeans: Fanout must be non-negative, got %d", c.Fanout)
	}
	return nil
}

// cell is one centroid's bucket in a published snapshot. count pins the
// immutable view prefix (appends only extend a bucket, and this index never
// replaces or frees one); rmin/rmax bound the stored entries' transformed
// centroid distances — conservative covering-radius bounds that deletions
// widen but never invalidate.
type cell struct {
	bucket     mindex.BucketID
	count      int
	rmin, rmax float64
}

// state is one published immutable snapshot (the RCU discipline of
// mindex.Index, with a flat cell table instead of a tree).
type state struct {
	cells      []cell
	size, dead int
	tombstones map[uint64]struct{}
}

// Index is a thread-safe k-means cell index over mindex.Entries. Like the
// M-Index it operates purely on the pivot-space metadata the entries carry:
// the routing prefix (whose single element is the cell number) and the
// transformed centroid-distance vector. Searches run lock-free against the
// last published snapshot; mutators serialize on wmu and publish
// copy-on-write cell tables atomically.
type Index struct {
	cfg   Config
	store mindex.BucketStore

	st atomic.Pointer[state]

	wmu sync.Mutex
	// live maps every live entry ID to its cell — writer-private duplicate
	// bookkeeping, never read by searches.
	live map[uint64]int32

	ingestEntries atomic.Uint64
	ingestBytes   atomic.Uint64
}

// New creates an empty index with one bucket per centroid.
func New(cfg Config) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var store mindex.BucketStore
	switch cfg.Storage {
	case mindex.StorageMemory:
		store = mindex.NewMemStore()
	case mindex.StorageDisk:
		ds, err := mindex.NewDiskStore(cfg.DiskPath)
		if err != nil {
			return nil, err
		}
		ds.SetCacheBudget(cfg.DiskCacheBytes)
		store = ds
	}
	cells := make([]cell, cfg.NumCentroids)
	for j := range cells {
		id, err := store.Create()
		if err != nil {
			store.Close()
			return nil, err
		}
		cells[j] = cell{bucket: id, rmin: math.Inf(1)}
	}
	ix := &Index{cfg: cfg, store: store, live: make(map[uint64]int32)}
	ix.st.Store(&state{cells: cells, tombstones: make(map[uint64]struct{})})
	return ix, nil
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Size returns the number of live entries.
func (ix *Index) Size() int { return ix.st.Load().size }

// Dead returns the number of tombstoned entries still stored.
func (ix *Index) Dead() int { return ix.st.Load().dead }

// Close releases the bucket storage.
func (ix *Index) Close() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.store.Close()
}

// ErrDuplicateID reports an Insert whose entry ID is already stored (live
// or tombstoned — this index has no compaction to purge a dead twin).
var ErrDuplicateID = errors.New("kmeans: entry ID already indexed")

func (ix *Index) checkEntry(e *mindex.Entry) error {
	if len(e.Perm) < 1 {
		return errors.New("kmeans: entry has no routing prefix")
	}
	if e.Perm[0] < 0 || int(e.Perm[0]) >= ix.cfg.NumCentroids {
		return fmt.Errorf("kmeans: cell %d out of range [0,%d)", e.Perm[0], ix.cfg.NumCentroids)
	}
	if len(e.Dists) != ix.cfg.NumCentroids {
		return fmt.Errorf("kmeans: entry has %d centroid distances, want %d (the precise strategy is mandatory for this family)",
			len(e.Dists), ix.cfg.NumCentroids)
	}
	return nil
}

// Insert routes each entry to the cell its prefix names and publishes one
// new snapshot covering the whole batch. The batch is validated up front;
// a validation or duplicate failure rejects the batch before any append.
func (ix *Index) Insert(entries []mindex.Entry) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	st := ix.st.Load()
	seen := make(map[uint64]struct{}, len(entries))
	for i := range entries {
		e := &entries[i]
		if err := ix.checkEntry(e); err != nil {
			return err
		}
		if _, ok := ix.live[e.ID]; ok {
			return fmt.Errorf("%w: %d", ErrDuplicateID, e.ID)
		}
		if _, ok := st.tombstones[e.ID]; ok {
			return fmt.Errorf("%w: %d (tombstoned)", ErrDuplicateID, e.ID)
		}
		if _, ok := seen[e.ID]; ok {
			return fmt.Errorf("%w: %d (twice in batch)", ErrDuplicateID, e.ID)
		}
		seen[e.ID] = struct{}{}
	}
	cells := make([]cell, len(st.cells))
	copy(cells, st.cells)
	var bytes uint64
	for i := range entries {
		e := &entries[i]
		j := e.Perm[0]
		if err := ix.store.Append(cells[j].bucket, *e); err != nil {
			// Abandon the batch: the new cell counts are never published and
			// no ID was admitted to live (that happens only below, after
			// every append succeeded), so the partially appended entries stay
			// invisible forever and their IDs remain insertable. Their bucket
			// bytes leak until restart — the failure mode the M-Index also
			// accepts mid-batch.
			return err
		}
		c := &cells[j]
		c.count++
		d := e.Dists[j]
		if d < c.rmin {
			c.rmin = d
		}
		if d > c.rmax {
			c.rmax = d
		}
		bytes += uint64(mindex.EncodedEntrySize(*e))
	}
	for i := range entries {
		ix.live[entries[i].ID] = entries[i].Perm[0]
	}
	ix.ingestEntries.Add(uint64(len(entries)))
	ix.ingestBytes.Add(bytes)
	ix.st.Store(&state{
		cells:      cells,
		size:       st.size + len(entries),
		dead:       st.dead,
		tombstones: st.tombstones,
	})
	return nil
}

// Delete tombstones the referenced entries (matched by ID — the routing
// prefix in a reference is ignored, a flat cell table needs no tree
// address). Unknown or already-deleted IDs are skipped; the count of entries
// actually deleted is returned.
func (ix *Index) Delete(refs []mindex.Entry) (int, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	st := ix.st.Load()
	deleted := 0
	var tombstones map[uint64]struct{}
	for i := range refs {
		id := refs[i].ID
		if _, ok := ix.live[id]; !ok {
			continue
		}
		if tombstones == nil {
			tombstones = make(map[uint64]struct{}, len(st.tombstones)+len(refs))
			for t := range st.tombstones {
				tombstones[t] = struct{}{}
			}
		}
		tombstones[id] = struct{}{}
		delete(ix.live, id)
		deleted++
	}
	if deleted == 0 {
		return 0, nil
	}
	ix.st.Store(&state{
		cells:      st.cells,
		size:       st.size - deleted,
		dead:       st.dead + deleted,
		tombstones: tombstones,
	})
	return deleted, nil
}

// cellView returns the snapshot's immutable prefix of cell j's bucket.
func (ix *Index) cellView(st *state, j int) ([]mindex.Entry, error) {
	c := &st.cells[j]
	if c.count == 0 {
		return nil, nil
	}
	v, err := ix.store.View(c.bucket)
	if err != nil {
		return nil, err
	}
	return v[:c.count], nil
}

// validateDists checks a query's transformed centroid-distance vector.
func (ix *Index) validateDists(qDists []float64) error {
	if len(qDists) != ix.cfg.NumCentroids {
		return fmt.Errorf("kmeans: query has %d centroid distances, want %d", len(qDists), ix.cfg.NumCentroids)
	}
	return nil
}

// RangeByDists evaluates the server side of a precise range query: cells
// whose covering-radius ball bound exceeds the radius are skipped whole,
// surviving entries are pivot-filtered with the triangle-inequality lower
// bound over all centroids. Both bounds stay conservative under the key's
// monotone transform (the radius arrives scaled by the Lipschitz constant),
// so no true result is ever dismissed; the client refines to exactness.
// Candidates are returned in (cell, insertion) order — fully deterministic.
func (ix *Index) RangeByDists(qDists []float64, r float64) ([]mindex.Entry, error) {
	if err := ix.validateDists(qDists); err != nil {
		return nil, err
	}
	if r < 0 {
		return nil, fmt.Errorf("kmeans: negative query radius %g", r)
	}
	st := ix.st.Load()
	var out []mindex.Entry
	for j := range st.cells {
		c := &st.cells[j]
		if c.count == 0 {
			continue
		}
		// Ball bounds on the cell: every stored o has
		// rmin ≤ T(d(o,c_j)) ≤ rmax, so T-space distance to q is at least
		// qDists[j]−rmax and rmin−qDists[j].
		if qDists[j]-c.rmax > r || c.rmin-qDists[j] > r {
			continue
		}
		entries, err := ix.cellView(st, j)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if _, gone := st.tombstones[e.ID]; gone {
				continue
			}
			if pivot.LowerBound(qDists, e.Dists) > r {
				continue
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// rankedCells returns cell indices ordered by ascending promise (the
// transformed query–centroid distance), ties broken by the smaller cell
// index — the flat-table analogue of the M-Index promise queue's
// deterministic (promise, prefix) order.
func rankedCells(qDists []float64) []int32 {
	order := make([]int32, len(qDists))
	for j := range order {
		order[j] = int32(j)
	}
	sort.Slice(order, func(a, b int) bool {
		if qDists[order[a]] != qDists[order[b]] {
			return qDists[order[a]] < qDists[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// ApproxRanked visits cells in promise order — at most Config.Fanout of
// them when bounded — and emits their live entries as RankedCandidates
// (promise: the cell's transformed centroid distance; prefix: the
// one-element cell path) until at least candSize have been emitted; the
// list is then trimmed to exactly candSize. The ordering is exactly what
// internal/merge expects, so a fan-out engine can merge these streams with
// M-Index shard streams' discipline unchanged.
func (ix *Index) ApproxRanked(qDists []float64, candSize int) ([]mindex.RankedCandidate, error) {
	if err := ix.validateDists(qDists); err != nil {
		return nil, err
	}
	if candSize <= 0 {
		return nil, fmt.Errorf("kmeans: candidate size must be positive, got %d", candSize)
	}
	st := ix.st.Load()
	// candSize is caller-supplied (ultimately a gateway's cand_size); the
	// index cannot return more than it holds, so that bounds the allocation.
	out := make([]mindex.RankedCandidate, 0, min(candSize, st.size))
	visited := 0
	for _, j := range rankedCells(qDists) {
		if len(out) >= candSize {
			break
		}
		if ix.cfg.Fanout > 0 && visited >= ix.cfg.Fanout {
			break
		}
		visited++
		entries, err := ix.cellView(st, int(j))
		if err != nil {
			return nil, err
		}
		prefix := []int32{j}
		for _, e := range entries {
			if _, gone := st.tombstones[e.ID]; gone {
				continue
			}
			out = append(out, mindex.RankedCandidate{Entry: e, Promise: qDists[j], Prefix: prefix})
		}
	}
	if len(out) > candSize {
		out = out[:candSize]
	}
	return out, nil
}

// ApproxCandidates is ApproxRanked stripped to bare entries.
func (ix *Index) ApproxCandidates(qDists []float64, candSize int) ([]mindex.Entry, error) {
	rcs, err := ix.ApproxRanked(qDists, candSize)
	if err != nil {
		return nil, err
	}
	out := make([]mindex.Entry, len(rcs))
	for i := range rcs {
		out[i] = rcs[i].Entry
	}
	return out, nil
}

// FirstCellRanked returns the live entries of the single most promising
// non-empty cell together with its promise and one-element prefix — the
// analogue of the M-Index 1-cell restricted strategy. An empty index yields
// nil entries.
func (ix *Index) FirstCellRanked(qDists []float64) ([]mindex.Entry, float64, []int32, error) {
	if err := ix.validateDists(qDists); err != nil {
		return nil, 0, nil, err
	}
	st := ix.st.Load()
	for _, j := range rankedCells(qDists) {
		entries, err := ix.cellView(st, int(j))
		if err != nil {
			return nil, 0, nil, err
		}
		out := make([]mindex.Entry, 0, len(entries))
		for _, e := range entries {
			if _, gone := st.tombstones[e.ID]; gone {
				continue
			}
			out = append(out, e)
		}
		if len(out) > 0 {
			return out, qDists[j], []int32{j}, nil
		}
	}
	return nil, 0, nil, nil
}

// Stats summarizes the cell population, read from one snapshot.
type Stats struct {
	Cells       int
	EmptyCells  int
	Live        int
	Dead        int
	MaxCell     int
	TotalStored int
}

// Stats reports the cell-table shape. Lock-free, like every read.
func (ix *Index) Stats() Stats {
	st := ix.st.Load()
	s := Stats{Cells: len(st.cells), Live: st.size, Dead: st.dead}
	for j := range st.cells {
		n := st.cells[j].count
		s.TotalStored += n
		if n == 0 {
			s.EmptyCells++
		}
		if n > s.MaxCell {
			s.MaxCell = n
		}
	}
	return s
}

// IngestStats reports entries and encoded bytes accepted since the index
// opened (mirror of mindex.IngestStats, without a bulk-builder path).
func (ix *Index) IngestStats() (entries, bytes uint64) {
	return ix.ingestEntries.Load(), ix.ingestBytes.Load()
}

// CacheStats reports the disk store's read-through cache counters (ok is
// false for memory storage).
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
