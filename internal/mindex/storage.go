package mindex

import (
	"bufio"
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"simcloud/internal/simd"
)

// BucketID identifies a bucket within a BucketStore.
type BucketID uint64

// BucketStore abstracts the leaf-bucket backend of the M-Index. The paper's
// Table 2 uses memory storage for the small gene-expression sets and disk
// storage for CoPhIR; both are provided.
//
// Implementations must be safe for concurrent use — lock-free searches View
// buckets while mutators append, replace and free others (see
// Index.leafView for the read protocol layered on top).
type BucketStore interface {
	// Create allocates a new empty bucket.
	Create() (BucketID, error)
	// Append adds an entry to a bucket.
	Append(id BucketID, e Entry) error
	// View returns all entries of a bucket without copying. The returned
	// slice is a read-only snapshot owned by the store: callers must not
	// modify it (in particular not compact it in place; one that wants to
	// reorder or truncate clones it first), but may hold it across later
	// store mutations — an Append never rewrites the elements a previously
	// returned snapshot covers, and a Replace or Free swaps the backing
	// rather than mutating it. The entries' field slices (Perm, Dists,
	// Payload, Vec) are read-only too: a disk bucket's fields are windows
	// into a few per-bucket blocks.
	View(id BucketID) ([]Entry, error)
	// Replace overwrites a bucket's contents (compaction and update purges
	// rewrite buckets after dropping dead entries).
	Replace(id BucketID, entries []Entry) error
	// Free releases a bucket (after a split has redistributed it).
	Free(id BucketID) error
	// Close releases all resources.
	Close() error
}

// MemStore keeps buckets as in-memory slices.
type MemStore struct {
	mu      sync.RWMutex
	buckets map[BucketID][]Entry
	next    BucketID
}

// NewMemStore creates an empty in-memory bucket store.
func NewMemStore() *MemStore {
	return &MemStore{buckets: make(map[BucketID][]Entry)}
}

// Create implements BucketStore.
func (s *MemStore) Create() (BucketID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := s.next
	s.buckets[id] = nil
	return id, nil
}

// Append implements BucketStore. Appending writes only at the end of the
// backing array (or relocates it), so snapshots previously handed out by
// View stay valid: they cover a prefix the append never touches.
func (s *MemStore) Append(id BucketID, e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[id]; !ok {
		return fmt.Errorf("mindex: append to unknown bucket %d", id)
	}
	s.buckets[id] = append(s.buckets[id], e)
	return nil
}

// createGhost burns one bucket ID without materializing a bucket — the
// bulk builder's allocation replay for buckets the incremental insert path
// would have created and later freed (see bulk.go).
func (s *MemStore) createGhost() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return nil
}

// appendBatch appends a batch of entries under one lock acquisition.
// All-or-nothing: a MemStore append cannot fail partway.
func (s *MemStore) appendBatch(id BucketID, entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[id]
	if !ok {
		return fmt.Errorf("mindex: append to unknown bucket %d", id)
	}
	s.buckets[id] = append(b, entries...)
	return nil
}

// appendIndexed appends arena[idx[0]], arena[idx[1]], ... without the
// caller materializing a contiguous batch first — the bulk builder's leaf
// content goes arena→bucket in one copy.
func (s *MemStore) appendIndexed(id BucketID, arena []Entry, idx []int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[id]
	if !ok {
		return fmt.Errorf("mindex: append to unknown bucket %d", id)
	}
	if cap(b)-len(b) < len(idx) {
		nb := make([]Entry, len(b), len(b)+len(idx))
		copy(nb, b)
		b = nb
	}
	for _, i := range idx {
		b = append(b, arena[i])
	}
	s.buckets[id] = b
	return nil
}

// View implements BucketStore: the bucket slice itself, zero-copy.
func (s *MemStore) View(id BucketID) ([]Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, ok := s.buckets[id]
	if !ok {
		return nil, fmt.Errorf("mindex: view of unknown bucket %d", id)
	}
	return entries, nil
}

// Replace implements BucketStore. The replacement is copied into a fresh
// backing array, so outstanding View snapshots keep the old contents.
func (s *MemStore) Replace(id BucketID, entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[id]; !ok {
		return fmt.Errorf("mindex: replace of unknown bucket %d", id)
	}
	out := make([]Entry, len(entries))
	copy(out, entries)
	s.buckets[id] = out
	return nil
}

// Free implements BucketStore.
func (s *MemStore) Free(id BucketID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[id]; !ok {
		return fmt.Errorf("mindex: free of unknown bucket %d", id)
	}
	delete(s.buckets, id)
	return nil
}

// Close implements BucketStore.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buckets = nil
	return nil
}

// DefaultDiskCacheBytes is the DiskStore entry-cache budget applied when
// Config.DiskCacheBytes is 0.
const DefaultDiskCacheBytes = 32 << 20

// cachedBucketOverhead approximates the per-bucket bookkeeping cost charged
// against the cache budget on top of the memory the decoded bucket retains
// (map entry, LRU element, allocation headers).
const cachedBucketOverhead = 128

// DiskStore keeps each bucket as an append-only file of encoded entries in
// a directory, with two bounded caches in front of the file system:
//
//   - a cache of open append handles (bufio.Writer over an O_APPEND file),
//     so bulk loading does not pay an open/close syscall pair per insert;
//   - a byte-budget LRU cache of decoded buckets, read-through on View and
//     invalidated by Append/Replace/Free, so a repeated-query workload
//     against a static-or-slowly-churning index stops re-reading and
//     re-decoding the same bucket files (the dominant cost of the paper's
//     Tables 5–9 workload shape on disk storage).
//
// mu guards the maps, the caches and every write to a bucket file. A read
// that misses the cache holds it only for the map work on either side of
// the file read and the decode (see ViewVersioned).
type DiskStore struct {
	mu  sync.Mutex
	dir string
	// filePrefix is dir + "/bucket-": path builds a name with one
	// concatenation, a miss's only allocation before the open.
	filePrefix string
	next       BucketID
	counts     map[BucketID]int
	// virgin tracks allocated buckets whose file does not exist yet: Create
	// only reserves the ID and the count, and the file materializes on the
	// first write (an open/close syscall pair per bucket saved — the
	// dominant cost of a bulk build's allocation replay). A virgin bucket
	// reads as empty, frees without touching the file system, and loses its
	// virginity on the first Append/Replace. Whatever file a previous store
	// on the same directory left under a virgin ID is not this bucket's
	// content: the first write truncates it.
	virgin map[BucketID]struct{}
	// eras counts content-destroying rewrites (Replace) per bucket. Bucket
	// IDs are never reused, so a (bucket, era) pair names one content
	// lineage that only ever grows by appends; ViewVersioned hands the era
	// out with the view so snapshot readers can detect a replacement that
	// happened after their tree version was published (Index.leafView).
	eras   map[BucketID]uint64
	closed bool

	// Append-handle cache. handleLRU is ordered least → most recently
	// used; each element's Value is the BucketID, and the handle keeps a
	// pointer to its element so a touch is O(1) instead of the former
	// linear scan over a slice.
	open      map[BucketID]*appendHandle
	handleLRU *list.List
	maxFDs    int

	// Decoded-bucket cache, same LRU discipline with a byte budget.
	cache       map[BucketID]*cachedBucket
	cacheLRU    *list.List
	cacheBytes  int
	cacheBudget int
	hits        uint64
	misses      uint64

	// scratch is the entry-encoding buffer reused across Append/Replace so
	// writes stop allocating one encoded blob per entry.
	scratch []byte
	// wfree recycles bufio.Writers between append handles: a bulk build
	// opens and retires hundreds of handles, and re-allocating each 16 KiB
	// buffer is pure GC pressure.
	wfree []*bufio.Writer
}

type appendHandle struct {
	w *bufio.Writer
	f *os.File
	// dirty marks buffered bytes not yet flushed to the OS. A View only
	// needs a Flush (not a close-and-reopen) to observe them, and a clean
	// handle needs nothing at all.
	dirty bool
	elem  *list.Element
}

type cachedBucket struct {
	entries []Entry
	bytes   int
	elem    *list.Element
}

// NewDiskStore creates a bucket store rooted at dir (created if missing)
// with the default entry-cache budget. Temporary files a crash left between
// Replace's create and its rename are removed: nothing else ever names them.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mindex: creating bucket directory: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mindex: scanning bucket directory: %w", err)
	}
	for _, f := range files {
		if name := f.Name(); strings.HasPrefix(name, bucketPrefix) && strings.HasSuffix(name, bucketExt+tmpExt) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("mindex: removing interrupted bucket rewrite: %w", err)
			}
		}
	}
	return &DiskStore{
		dir:         dir,
		filePrefix:  filepath.Join(dir, bucketPrefix),
		counts:      make(map[BucketID]int),
		virgin:      make(map[BucketID]struct{}),
		eras:        make(map[BucketID]uint64),
		open:        make(map[BucketID]*appendHandle),
		handleLRU:   list.New(),
		cache:       make(map[BucketID]*cachedBucket),
		cacheLRU:    list.New(),
		cacheBudget: DefaultDiskCacheBytes,
		maxFDs:      128,
	}, nil
}

// ReopenDiskStore reattaches to an existing bucket directory after a
// restart, using the per-bucket entry counts and allocation cursor recorded
// in an index snapshot. Every non-empty bucket's file must exist; an empty
// bucket may legitimately have none (Create is lazy — the file materializes
// on the first write), in which case it reattaches as virgin.
func ReopenDiskStore(dir string, counts map[BucketID]int, next BucketID) (*DiskStore, error) {
	s, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	for id := range counts {
		if id > next {
			s.Close()
			return nil, fmt.Errorf("mindex: bucket %d beyond allocation cursor %d", id, next)
		}
		if _, err := os.Stat(s.path(id)); err != nil {
			if !(os.IsNotExist(err) && counts[id] == 0) {
				s.Close()
				return nil, fmt.Errorf("mindex: reattaching bucket %d: %w", id, err)
			}
			s.virgin[id] = struct{}{}
		}
		s.counts[id] = counts[id]
	}
	s.next = next
	return s, nil
}

// SetCacheBudget bounds the decoded-bucket cache: n > 0 sets the budget in
// bytes, n == 0 restores the default, n < 0 disables the cache entirely.
// Shrinking evicts immediately.
func (s *DiskStore) SetCacheBudget(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case n == 0:
		s.cacheBudget = DefaultDiskCacheBytes
	case n < 0:
		s.cacheBudget = 0
	default:
		s.cacheBudget = n
	}
	for s.cacheBytes > s.cacheBudget && s.cacheLRU.Len() > 0 {
		s.evictOneLocked()
	}
}

// CacheStats reports the decoded-bucket cache counters: read-through hits
// and misses since creation, and the bytes currently charged against the
// budget. Cache-disabled stores report every read as a miss.
func (s *DiskStore) CacheStats() (hits, misses uint64, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.cacheBytes
}

// Sync flushes all buffered appends to disk.
func (s *DiskStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.open {
		if err := s.closeHandleLocked(id); err != nil {
			return err
		}
	}
	return nil
}

// NextID returns the bucket allocation cursor (for snapshots).
func (s *DiskStore) NextID() BucketID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

const (
	bucketPrefix = "bucket-"
	bucketExt    = ".bin"
	tmpExt       = ".tmp" // Replace writes path(id)+tmpExt and renames it into place
)

// path names a bucket's file: bucket-<id, zero-padded to nine digits>.bin.
func (s *DiskStore) path(id BucketID) string {
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], uint64(id), 10)
	return s.filePrefix + "000000000"[min(len(digits), 9):] + string(digits) + bucketExt
}

// Create implements BucketStore. Allocation is lazy: no file is created
// until the bucket's first write, so a build that allocates hundreds of
// buckets pays no per-bucket syscalls up front.
func (s *DiskStore) Create() (BucketID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("mindex: disk store closed")
	}
	s.next++
	id := s.next
	s.counts[id] = 0
	s.virgin[id] = struct{}{}
	return id, nil
}

// createGhost burns one bucket ID without creating a bucket file — the
// bulk builder's allocation replay for buckets the incremental insert path
// would have created and later freed (see bulk.go).
func (s *DiskStore) createGhost() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mindex: disk store closed")
	}
	s.next++
	return nil
}

// appendBatch appends a batch of entries under one lock acquisition and one
// buffered write sequence. All-or-nothing: on a write failure the bucket
// file is truncated back to its pre-batch length and the count stays
// untouched, so a failed batch leaves the bucket exactly as it was.
func (s *DiskStore) appendBatch(id BucketID, entries []Entry) error {
	return s.appendSeq(id, len(entries), func(i int) *Entry { return &entries[i] })
}

// appendIndexed encodes arena[idx[0]], arena[idx[1]], ... straight into the
// bucket writer — no contiguous batch materialization on the caller's side.
func (s *DiskStore) appendIndexed(id BucketID, arena []Entry, idx []int32) error {
	return s.appendSeq(id, len(idx), func(i int) *Entry { return &arena[idx[i]] })
}

func (s *DiskStore) appendSeq(id BucketID, n int, at func(int) *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mindex: disk store closed")
	}
	if _, ok := s.counts[id]; !ok {
		return fmt.Errorf("mindex: append to unknown bucket %d", id)
	}
	_, isVirgin := s.virgin[id]
	h, err := s.writer(id)
	if err != nil {
		return err
	}
	// The rollback point is the file length before this batch. A virgin
	// bucket's file was just created empty, so the Stat (and the flush of
	// buffered earlier appends it would have to see) is skipped.
	var base int64
	if !isVirgin {
		// Earlier appends may still sit in the bufio buffer; flush them so
		// the file length below is the true rollback point for this batch.
		if h.dirty {
			if err := h.w.Flush(); err != nil {
				return err
			}
			h.dirty = false
		}
		fi, err := h.f.Stat()
		if err != nil {
			return err
		}
		base = fi.Size()
	}
	for i := 0; i < n; i++ {
		s.scratch = AppendEntry(s.scratch[:0], *at(i))
		if _, err := h.w.Write(s.scratch); err != nil {
			s.rollbackAppendLocked(id, base)
			return err
		}
	}
	if err := h.w.Flush(); err != nil {
		s.rollbackAppendLocked(id, base)
		return err
	}
	s.counts[id] += n
	s.dropCacheLocked(id)
	return nil
}

// rollbackAppendLocked undoes a failed appendBatch: the handle is retired
// without flushing (its buffered bytes are part of the failed batch) and the
// file cut back to the pre-batch length.
func (s *DiskStore) rollbackAppendLocked(id BucketID, base int64) {
	if h, ok := s.open[id]; ok {
		h.f.Close()
		s.handleLRU.Remove(h.elem)
		delete(s.open, id)
	}
	os.Truncate(s.path(id), base)
}

// writer returns a buffered append handle for the bucket, evicting the
// least recently used handle when the cache is full.
func (s *DiskStore) writer(id BucketID) (*appendHandle, error) {
	if h, ok := s.open[id]; ok {
		s.handleLRU.MoveToBack(h.elem)
		return h, nil
	}
	if len(s.open) >= s.maxFDs {
		victim := s.handleLRU.Front().Value.(BucketID)
		if err := s.closeHandleLocked(victim); err != nil {
			return nil, err
		}
	}
	flags := os.O_WRONLY | os.O_APPEND | os.O_CREATE
	if _, ok := s.virgin[id]; ok {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(s.path(id), flags, 0o644)
	if err != nil {
		return nil, err
	}
	delete(s.virgin, id)
	var w *bufio.Writer
	if n := len(s.wfree); n > 0 {
		w = s.wfree[n-1]
		s.wfree = s.wfree[:n-1]
		w.Reset(f)
	} else {
		w = bufio.NewWriterSize(f, 1<<14)
	}
	h := &appendHandle{w: w, f: f}
	h.elem = s.handleLRU.PushBack(id)
	s.open[id] = h
	return h, nil
}

func (s *DiskStore) closeHandleLocked(id BucketID) error {
	h, ok := s.open[id]
	if !ok {
		return nil
	}
	flushErr := h.w.Flush()
	closeErr := h.f.Close()
	s.handleLRU.Remove(h.elem)
	delete(s.open, id)
	if len(s.wfree) < 16 {
		h.w.Reset(nil)
		s.wfree = append(s.wfree, h.w)
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// flushHandleLocked makes buffered appends visible to readers of the bucket
// file without retiring the handle, so the next Append reuses it instead of
// paying an open syscall. A clean handle (or no handle) is a no-op.
func (s *DiskStore) flushHandleLocked(id BucketID) error {
	h, ok := s.open[id]
	if !ok || !h.dirty {
		return nil
	}
	if err := h.w.Flush(); err != nil {
		return err
	}
	h.dirty = false
	return nil
}

// Append implements BucketStore.
func (s *DiskStore) Append(id BucketID, e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mindex: disk store closed")
	}
	if _, ok := s.counts[id]; !ok {
		return fmt.Errorf("mindex: append to unknown bucket %d", id)
	}
	h, err := s.writer(id)
	if err != nil {
		return err
	}
	s.scratch = AppendEntry(s.scratch[:0], e)
	if _, err := h.w.Write(s.scratch); err != nil {
		return err
	}
	h.dirty = true
	s.counts[id]++
	s.dropCacheLocked(id)
	return nil
}

// View implements BucketStore (read-through, zero-copy: the returned slice
// is the cached decode itself and must not be modified).
func (s *DiskStore) View(id BucketID) ([]Entry, error) {
	entries, _, err := s.ViewVersioned(id)
	return entries, err
}

// bucketVersion names one state of a bucket's content. Every mutator
// changes it under the mutex — an append raises count, a Replace raises era,
// neither ever falls back within a lineage — so a version that reads the
// same at two lock acquisitions proves no mutation touched the bucket in
// between.
type bucketVersion struct {
	count int
	era   uint64
}

func (s *DiskStore) versionLocked(id BucketID) (bucketVersion, error) {
	if s.closed {
		return bucketVersion{}, errors.New("mindex: disk store closed")
	}
	count, ok := s.counts[id]
	if !ok {
		return bucketVersion{}, fmt.Errorf("mindex: view of unknown bucket %d", id)
	}
	return bucketVersion{count, s.eras[id]}, nil
}

// ViewVersioned is View plus the bucket's content era, the two read
// atomically. Snapshot readers compare the era against the one recorded in
// their node version: a match proves the first n entries of the view are
// exactly that version's content (appends only extend).
//
// A cache miss does its I/O and its decode outside the mutex, so readers of
// one store do not queue behind each other's system calls. Under the mutex:
// the closed / unknown / virgin checks, the cache probe, the flush of
// buffered appends, and a note of the bucket's version. Outside: open, read,
// close, decode. Under it again: the result is admitted only if the store
// is still open and the version unchanged, which makes it the bucket's
// content as of that second acquisition. Anything else — an append, a
// Replace, a Free, a tail torn by a concurrent append's buffer spilling, a
// decode error — is settled by readLocked, where an error is final.
func (s *DiskStore) ViewVersioned(id BucketID) ([]Entry, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.versionLocked(id)
	if err != nil {
		return nil, 0, err
	}
	if _, ok := s.virgin[id]; ok {
		return nil, v.era, nil // allocated, never written: empty, no file yet
	}
	if entries, ok := s.cachedLocked(id); ok {
		s.hits++
		return entries, v.era, nil
	}
	s.misses++ // one per read, however it ends
	// Any buffered appends must be visible before reading the file back.
	if err := s.flushHandleLocked(id); err != nil {
		return nil, 0, err
	}
	path := s.path(id)
	s.mu.Unlock()
	entries, size, err := readBucketFile(path, v.count)
	s.mu.Lock()
	if now, verr := s.versionLocked(id); err != nil || verr != nil || now != v {
		return s.readLocked(id)
	}
	// Another reader may have missed on the same bucket and got here first:
	// its slice is the cached one, ours is dropped, the charge made once.
	if winner, ok := s.cachedLocked(id); ok {
		return winner, v.era, nil
	}
	s.insertCacheLocked(id, entries, size, true)
	return entries, v.era, nil
}

// readLocked is the read with the mutex held throughout: the retry of a
// ViewVersioned whose unlocked read could not be admitted. Nothing can move
// under it, so what it finds is the bucket, and an error is the bucket's.
func (s *DiskStore) readLocked(id BucketID) ([]Entry, uint64, error) {
	v, err := s.versionLocked(id)
	if err != nil {
		return nil, 0, err
	}
	if entries, ok := s.cachedLocked(id); ok {
		return entries, v.era, nil
	}
	if err := s.flushHandleLocked(id); err != nil {
		return nil, 0, err
	}
	entries, size, err := readBucketFile(s.path(id), v.count)
	if err != nil {
		return nil, 0, err
	}
	s.insertCacheLocked(id, entries, size, true)
	return entries, v.era, nil
}

// cachedLocked probes the decoded-bucket cache. The returned slice is shared
// with the cache — callers copy if they need ownership.
func (s *DiskStore) cachedLocked(id BucketID) ([]Entry, bool) {
	cb, ok := s.cache[id]
	if !ok {
		return nil, false
	}
	s.cacheLRU.MoveToBack(cb.elem)
	return cb.entries, true
}

// readBufs recycles the buffers bucket files are read into, sized so a
// bucket of a few hundred entries is one read. decodeBucket copies everything
// out, so a buffer is back here before its reader returns.
var readBufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 32<<10)) }}

// readBucketFile reads and decodes the bucket file at path, which must hold
// exactly count entries. It touches no store state and runs without the
// store mutex: open, read to end of file, close — no stat, and no buffer
// allocated once the pool is warm. size is what the cache charges for the
// result (see decodeBucket).
func readBucketFile(path string, count int) (entries []Entry, size int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(f)
	f.Close()
	if err != nil {
		return nil, 0, err
	}
	if entries, size, err = decodeBucket(buf.Bytes()); err != nil {
		return nil, 0, fmt.Errorf("mindex: bucket file %s corrupted: %w", path, err)
	}
	if len(entries) != count {
		return nil, 0, fmt.Errorf("mindex: bucket file %s holds %d entries, expected %d", path, len(entries), count)
	}
	return entries, size, nil
}

// decodeBucket decodes a bucket file into one block per field kind instead
// of three allocations per entry: a first ScanEntry pass sizes the blocks, a
// second fills them. Nothing in the result aliases raw — payloads are copied
// into a block of their own — so the caller may reuse raw at once, and size,
// the memory the result occupies, is all the cache has to charge for it:
// the payload bytes plus decodedSize. The result is read-only. (DecodeEntry
// remains the decoder of everything that is stored: its entries own their
// bytes one by one.)
func decodeBucket(raw []byte) (entries []Entry, size int, err error) {
	var n, perms, dists, payloads, vecs int
	for rest := raw; len(rest) > 0; n++ {
		var v EntryView
		if v, rest, err = ScanEntry(rest); err != nil {
			return nil, 0, err
		}
		perms += len(v.Perm()) / 4
		dists += len(v.Dists()) / 8
		payloads += len(v.Payload())
		vecs += len(v.Vec()) / 4
	}
	entries = make([]Entry, n)
	permBlock := make([]int32, perms)
	distBlock := make([]float64, dists)
	payloadBlock := make([]byte, payloads)
	var vecBlock []float32
	if vecs > 0 {
		vecBlock = make([]float32, vecs)
	}
	rest := raw
	for i := range entries {
		var v EntryView
		v, rest, _ = ScanEntry(rest)
		e := &entries[i]
		e.ID = v.ID
		// An empty field decodes to nil, as DecodeEntry has it: searches
		// read "Dists == nil" as "stored without distances".
		if b := v.Perm(); len(b) > 0 {
			e.Perm, permBlock = permBlock[:len(b)/4:len(b)/4], permBlock[len(b)/4:]
			simd.DecodeI32LE(e.Perm, b)
		}
		if b := v.Dists(); len(b) > 0 {
			e.Dists, distBlock = distBlock[:len(b)/8:len(b)/8], distBlock[len(b)/8:]
			simd.DecodeF64LE(e.Dists, b)
		}
		if b := v.Payload(); len(b) > 0 {
			e.Payload, payloadBlock = payloadBlock[:len(b):len(b)], payloadBlock[len(b):]
			copy(e.Payload, b)
		}
		if b := v.Vec(); len(b) > 0 {
			e.Vec, vecBlock = vecBlock[:len(b)/4:len(b)/4], vecBlock[len(b)/4:]
			simd.DecodeF32LE(e.Vec, b)
		}
	}
	return entries, payloads + decodedSize(n, perms, dists, vecs), nil
}

// decodedSize is the memory the decoded form of n entries occupies beside
// their payloads: the Entry headers and the perm, dists and vec blocks.
func decodedSize(n, perms, dists, vecs int) int {
	return n*int(unsafe.Sizeof(Entry{})) + 4*perms + 8*dists + 4*vecs
}

// insertCacheLocked admits a decoded bucket to the cache, evicting least
// recently used buckets until the byte budget holds. retained is the memory
// the entries occupy; buckets larger than the whole budget are served but
// never cached. owned marks a slice the store may keep as-is; a caller-owned
// slice is cloned, and only once the bucket has actually been admitted.
func (s *DiskStore) insertCacheLocked(id BucketID, entries []Entry, retained int, owned bool) {
	if s.cacheBudget <= 0 {
		return
	}
	size := cachedBucketOverhead + retained
	if size > s.cacheBudget {
		return
	}
	if !owned {
		entries = slices.Clone(entries)
	}
	for s.cacheBytes+size > s.cacheBudget && s.cacheLRU.Len() > 0 {
		s.evictOneLocked()
	}
	cb := &cachedBucket{entries: entries, bytes: size}
	cb.elem = s.cacheLRU.PushBack(id)
	s.cache[id] = cb
	s.cacheBytes += size
}

func (s *DiskStore) evictOneLocked() {
	victim := s.cacheLRU.Front().Value.(BucketID)
	s.dropCacheLocked(victim)
}

func (s *DiskStore) dropCacheLocked(id BucketID) {
	cb, ok := s.cache[id]
	if !ok {
		return
	}
	s.cacheLRU.Remove(cb.elem)
	s.cacheBytes -= cb.bytes
	delete(s.cache, id)
}

// Replace implements BucketStore. The bucket file is rewritten through a
// temporary file and renamed into place, so a crash mid-rewrite leaves the
// previous contents intact. The cache is refreshed write-through: the next
// read of a just-compacted bucket should not pay a disk round trip.
func (s *DiskStore) Replace(id BucketID, entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mindex: disk store closed")
	}
	if _, ok := s.counts[id]; !ok {
		return fmt.Errorf("mindex: replace of unknown bucket %d", id)
	}
	// Retire the append handle entirely; its descriptor points at the old
	// inode the rename below replaces.
	if err := s.closeHandleLocked(id); err != nil {
		return err
	}
	s.dropCacheLocked(id)
	tmp := s.path(id) + tmpExt
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<14)
	// Cached write-through, the entries are charged what a decode of the
	// new file would be charged.
	retained := 0
	for i := range entries {
		e := &entries[i]
		s.scratch = AppendEntry(s.scratch[:0], *e)
		retained += len(e.Payload) + decodedSize(1, len(e.Perm), len(e.Dists), len(e.Vec))
		if _, err := w.Write(s.scratch); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Reach stable storage before the rename replaces the old contents —
	// a power cut must never swap a good bucket for a truncated one.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		os.Remove(tmp)
		return err
	}
	delete(s.virgin, id)
	// Make the rename itself durable: a purge that later stops being
	// reflected in the tombstone set (snapshots persist after this) must
	// not be undone by a power cut resurrecting the old bucket contents.
	dir, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	syncErr := dir.Sync()
	dir.Close()
	if syncErr != nil {
		return syncErr
	}
	s.counts[id] = len(entries)
	s.eras[id]++
	s.insertCacheLocked(id, entries, retained, false)
	return nil
}

// Free implements BucketStore.
func (s *DiskStore) Free(id BucketID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mindex: disk store closed")
	}
	if _, ok := s.counts[id]; !ok {
		return fmt.Errorf("mindex: free of unknown bucket %d", id)
	}
	if err := s.closeHandleLocked(id); err != nil {
		return err
	}
	s.dropCacheLocked(id)
	delete(s.counts, id)
	delete(s.eras, id)
	if _, ok := s.virgin[id]; ok {
		delete(s.virgin, id)
		return nil // never materialized; nothing on disk to remove
	}
	return os.Remove(s.path(id))
}

// Close implements BucketStore.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for id := range s.open {
		if err := s.closeHandleLocked(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.cache = nil
	s.cacheLRU = list.New()
	s.cacheBytes = 0
	return firstErr
}
