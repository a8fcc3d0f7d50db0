package mindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"simcloud/internal/pivot"
)

// Snapshot support: a disk-backed M-Index can persist its cell tree to a
// small metadata file and reattach to its bucket directory after a restart,
// so an outsourced deployment does not re-ingest the collection. Bucket
// payloads already live in the DiskStore directory; the snapshot holds the
// tree shape, per-node bounds, per-bucket entry counts, and — since
// version 2 — the tombstone set of deleted-but-not-compacted entries.
//
// Snapshot file format (little endian):
//
//	magic    [8]byte "SIMCSNAP"
//	version  uint8 (1, 2 or 3; 3 is written)
//	numPivots, maxLevel, bucketCapacity uint32
//	ranking  uint8
//	size     uint64  (live entries)
//	nextBkt  uint64  (DiskStore allocation cursor)
//	v2 on:   dirty uint8 | deadCount uint64 | tombstoned IDs uint64 × deadCount
//	tree     preorder node records (see writeNode)
//
// Version 1 files (written before the index became mutable) load as
// tombstone-free indexes. Versions 1 and 2 recorded one interval per node —
// the distances to the cell's defining pivot — where version 3 records the
// whole box: their nodes load with that one dimension bounded and the rest
// unbounded, prune as they did when they were written, and get full boxes
// from the next Compact.

var snapMagic = [8]byte{'S', 'I', 'M', 'C', 'S', 'N', 'A', 'P'}

// snapVersion is the codec version SaveSnapshot writes.
const snapVersion = 3

// ErrSnapshot reports a malformed or mismatched snapshot file.
var ErrSnapshot = errors.New("mindex: invalid snapshot")

// SaveSnapshot writes the index metadata to path. Only disk-backed indexes
// can be snapshotted — a memory store loses its buckets with the process.
// The file is written to a temporary sibling and renamed into place, so an
// interrupted save never truncates an existing snapshot, which stays
// loadable until this one is in place (see DiskStore.snapNext).
func (ix *Index) SaveSnapshot(path string) error {
	// Serialize with mutators: the writer-private dirty flag must describe
	// the snapshot being persisted, and no mutation may allocate or free
	// buckets between reading the tree and syncing the store.
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	st := ix.state.Load()
	ds, ok := ix.store.(*DiskStore)
	if !ok {
		return errors.New("mindex: only disk-backed indexes support snapshots")
	}
	if err := ds.Sync(); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := ix.writeSnapshot(tmp, ds, st); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself: without the directory fsync a crash can
	// still forget that the new file replaced the old one.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		syncErr := dir.Sync()
		dir.Close()
		if syncErr != nil {
			return syncErr
		}
	}
	ds.snapshotSaved(ds.NextID())
	return nil
}

func (ix *Index) writeSnapshot(path string, ds *DiskStore, st *readState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(snapMagic[:]); err != nil {
		f.Close()
		return err
	}
	dead := st.tombs.ids() // ascending: a deterministic tombstone order
	hdr := make([]byte, 0, 64+8*len(dead))
	hdr = append(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(ix.cfg.NumPivots))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(ix.cfg.MaxLevel))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(ix.cfg.BucketCapacity))
	hdr = append(hdr, byte(ix.cfg.Ranking))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(st.size))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(ds.NextID()))
	dirty := byte(0)
	if ix.dirty {
		dirty = 1
	}
	hdr = append(hdr, dirty)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(dead)))
	for _, id := range dead {
		hdr = binary.LittleEndian.AppendUint64(hdr, id)
	}
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := writeNode(w, st.root); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// The data must be on stable storage before the caller renames this
	// file over the previous snapshot — otherwise a power cut can replace
	// the only good snapshot with a truncated one.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Node record:
//
//	prefixLen uint16 | prefix int32s
//	kind      uint8  (0 internal, 1 leaf)
//	count     uint32
//	dead      uint32 (version 2 on)
//	v1, v2:   rmin, rmax float64 | boundsValid uint8
//	v3:       hasBox uint8 | lo float64 × numPivots | hi float64 × numPivots
//	          (the two runs only when hasBox is 1)
//	leaf:     bucket uint64
//	internal: childCount uint16 | children...
func writeNode(w io.Writer, n *node) error {
	buf := make([]byte, 0, 64+8*len(n.box))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.prefix)))
	for _, p := range n.prefix {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	kind := byte(0)
	if n.isLeaf() {
		kind = 1
	}
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.dead))
	hasBox := byte(0)
	if n.box != nil {
		hasBox = 1
	}
	buf = append(buf, hasBox)
	for _, v := range n.box {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	if n.isLeaf() {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n.bucket))
		_, err := w.Write(buf)
		return err
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.kids)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	// The child table is sorted by key, so the file order is deterministic.
	for i := range n.kids {
		if err := writeNode(w, n.kids[i].n); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot reopens a disk-backed index from its snapshot file and
// bucket directory. cfg must match the snapshotted configuration (pivot
// count, max level, bucket capacity, ranking) and carry the DiskPath.
func LoadSnapshot(cfg Config, path string) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Storage != StorageDisk {
		return nil, errors.New("mindex: snapshots require disk storage")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &snapReader{buf: raw}
	var magic [8]byte
	copy(magic[:], r.take(8))
	if magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshot)
	}
	version := r.u8()
	if version < 1 || version > snapVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSnapshot, version)
	}
	numPivots := int(r.u32())
	maxLevel := int(r.u32())
	bucketCap := int(r.u32())
	ranking := RankStrategy(r.u8())
	size := int(r.u64())
	next := BucketID(r.u64())
	dirty := false
	var tombs tombSet
	if version >= 2 {
		dirty = r.u8() == 1
		deadCount := int(r.u64())
		if r.err != nil || deadCount < 0 || deadCount > len(r.buf)/8 {
			return nil, fmt.Errorf("%w: implausible tombstone count", ErrSnapshot)
		}
		for range deadCount {
			if !tombs.add(r.u64(), 0) {
				return nil, fmt.Errorf("%w: duplicate tombstone IDs", ErrSnapshot)
			}
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshot)
	}
	if numPivots != cfg.NumPivots || maxLevel != cfg.MaxLevel ||
		bucketCap != cfg.BucketCapacity || ranking != cfg.Ranking {
		return nil, fmt.Errorf("%w: snapshot parameters (pivots=%d level=%d bucket=%d ranking=%v) do not match config",
			ErrSnapshot, numPivots, maxLevel, bucketCap, ranking)
	}
	root, counts, err := readNode(r, int(version), cfg)
	if err != nil {
		return nil, err
	}
	if len(root.prefix) != 0 {
		return nil, fmt.Errorf("%w: root cell with prefix %v", ErrSnapshot, root.prefix)
	}
	if r.err != nil || len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: trailing or missing bytes", ErrSnapshot)
	}
	if root.dead != tombs.n || root.count != size+root.dead {
		return nil, fmt.Errorf("%w: entry counts disagree (tree %d/%d dead, header %d live + %d tombstones)",
			ErrSnapshot, root.count, root.dead, size, tombs.n)
	}
	store, err := ReopenDiskStore(cfg.DiskPath, counts, next)
	if err != nil {
		return nil, err
	}
	store.SetCacheBudget(cfg.DiskCacheBytes)
	ix := &Index{
		cfg:     cfg,
		store:   store,
		weights: pivot.FootruleWeights(cfg.MaxLevel),
		dirty:   dirty,
	}
	ix.state.Store(&readState{
		root:  root,
		size:  size,
		dead:  tombs.n,
		tombs: tombs,
	})
	// Pre-warm the entry-location map now, while the index is still
	// private to this goroutine: ensureLoc walks every bucket, and paying
	// that walk here keeps the first post-restore mutation as cheap as a
	// steady-state one (it also primes the disk store's bucket cache for
	// early queries). Before this ran eagerly, the first mutation after a
	// restore stalled for the whole rebuild. The same read cuts each bucket
	// file back to the count the snapshot names (see diskBucket.loose).
	if err := ix.ensureLoc(); err != nil {
		store.Close()
		return nil, err
	}
	return ix, nil
}

type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = ErrSnapshot
		return make([]byte, n)
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *snapReader) u8() uint8   { return r.take(1)[0] }
func (r *snapReader) u16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *snapReader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *snapReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *snapReader) f64() float64 {
	return math.Float64frombits(r.u64())
}

// ballBox is the box of a version-1 or -2 snapshot node holding entries:
// those versions recorded the interval of distances to the cell's defining
// pivot only, so that dimension is bounded and every other is not.
func ballBox(numPivots int, key int32, rmin, rmax float64) box {
	b := make(box, 2*numPivots)
	lo, hi := b.lo(), b.hi()
	for p := range lo {
		lo[p], hi[p] = math.Inf(-1), math.Inf(1)
	}
	lo[key], hi[key] = rmin, rmax
	return b
}

// readNode decodes one subtree. Traversals index per-pivot and per-level
// tables with what it reads, so it holds the tree to the shape the writer
// produces: every prefix element a pivot, a child one level below its parent
// and inside it, no cell deeper than MaxLevel (which also bounds the
// recursion).
func readNode(r *snapReader, version int, cfg Config) (*node, map[BucketID]int, error) {
	numPivots := cfg.NumPivots
	prefixLen := int(r.u16())
	if r.err != nil || prefixLen > cfg.MaxLevel {
		return nil, nil, fmt.Errorf("%w: implausible prefix length", ErrSnapshot)
	}
	prefix := make([]int32, prefixLen)
	for i := range prefix {
		prefix[i] = int32(r.u32())
		if r.err == nil && (prefix[i] < 0 || int(prefix[i]) >= numPivots) {
			return nil, nil, fmt.Errorf("%w: prefix element %d out of range", ErrSnapshot, prefix[i])
		}
	}
	kind := r.u8()
	count := int(r.u32())
	dead := 0
	if version >= 2 {
		dead = int(r.u32())
	}
	n := &node{prefix: prefix, count: count, dead: dead}
	if version >= 3 {
		if r.u8() == 1 {
			raw := r.take(16 * numPivots)
			n.box = make(box, 2*numPivots)
			for i := range n.box {
				n.box[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	} else {
		rmin, rmax := r.f64(), r.f64()
		if key := n.lastPivot(); r.u8() == 1 && key >= 0 {
			n.box = emptyBox(numPivots) // an empty cell's interval meant nothing
			if count > 0 {
				n.box = ballBox(numPivots, key, rmin, rmax)
			}
		}
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("%w: truncated node", ErrSnapshot)
	}
	if dead > count {
		return nil, nil, fmt.Errorf("%w: node with %d dead of %d entries", ErrSnapshot, dead, count)
	}
	counts := make(map[BucketID]int)
	switch kind {
	case 1:
		n.bucket = BucketID(r.u64())
		n.pin = &pinCell{}
		if r.err != nil {
			return nil, nil, fmt.Errorf("%w: truncated leaf", ErrSnapshot)
		}
		counts[n.bucket] = count
		return n, counts, nil
	case 0:
		childCount := int(r.u16())
		// Children carry distinct pivot keys.
		if r.err != nil || childCount > numPivots {
			return nil, nil, fmt.Errorf("%w: implausible child count", ErrSnapshot)
		}
		if childCount == 0 {
			// A childless internal node would be indistinguishable from a
			// leaf (kids == nil) and the writer never produces one.
			return nil, nil, fmt.Errorf("%w: internal node without children", ErrSnapshot)
		}
		n.kids = make([]child, 0, childCount)
		for range childCount {
			c, childCounts, err := readNode(r, version, cfg)
			if err != nil {
				return nil, nil, err
			}
			if len(c.prefix) != len(prefix)+1 || !slices.Equal(c.prefix[:len(prefix)], prefix) {
				return nil, nil, fmt.Errorf("%w: cell %v is not a child of cell %v", ErrSnapshot, c.prefix, prefix)
			}
			// Children are written in strictly ascending key order; appending
			// under that check rebuilds the sorted child table in O(1) each.
			key := c.lastPivot()
			if len(n.kids) > 0 && key <= n.kids[len(n.kids)-1].key {
				return nil, nil, fmt.Errorf("%w: duplicate or misordered child key %d", ErrSnapshot, key)
			}
			n.kids = append(n.kids, child{key: key, n: c})
			for id, cnt := range childCounts {
				counts[id] = cnt
			}
		}
		return n, counts, nil
	}
	return nil, nil, fmt.Errorf("%w: unknown node kind %d", ErrSnapshot, kind)
}
