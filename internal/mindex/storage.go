package mindex

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// BucketID identifies a bucket within a BucketStore.
type BucketID uint64

// BucketStore abstracts the leaf-bucket backend of the M-Index. The paper's
// Table 2 uses memory storage for the small gene-expression sets and disk
// storage for CoPhIR; both are provided, and both hold a bucket in the one
// form it has everywhere, its image (see Bucket).
//
// Implementations must be safe for concurrent use — lock-free searches View
// buckets while mutators append, replace and free others (see
// Index.leafView for the read protocol layered on top).
type BucketStore interface {
	// Create allocates a new empty bucket.
	Create() (BucketID, error)
	// Append adds the records of recs to the end of a bucket, all or none.
	// The store copies what it keeps; recs stays the caller's.
	Append(id BucketID, recs Bucket) error
	// View returns a bucket's content without copying: a read-only snapshot
	// owned by the store, which callers may hold across later store
	// mutations — an Append never rewrites the records a previously returned
	// snapshot covers, and a Replace or Free swaps the image rather than
	// mutating it.
	View(id BucketID) (Bucket, error)
	// Replace overwrites a bucket's content with recs (compaction and update
	// purges rewrite buckets after dropping dead entries).
	Replace(id BucketID, recs Bucket) error
	// Free releases a bucket (after a split has redistributed it).
	Free(id BucketID) error
	// Close releases all resources.
	Close() error
}

// MemStore keeps each bucket as a growing image in memory. A bucket holds
// no pointers but its two slices, so the collector has nothing to scan in
// it however many entries it stores.
type MemStore struct {
	mu      sync.RWMutex
	buckets map[BucketID]Bucket
	next    BucketID
}

// NewMemStore creates an empty in-memory bucket store.
func NewMemStore() *MemStore {
	return &MemStore{buckets: make(map[BucketID]Bucket)}
}

// Create implements BucketStore.
func (s *MemStore) Create() (BucketID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := s.next
	s.buckets[id] = Bucket{}
	return id, nil
}

// createGhost burns one bucket ID without materializing a bucket — the
// write planner's allocation replay for buckets the entry-at-a-time insert
// would have created and later freed (see bulk.go).
func (s *MemStore) createGhost() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return nil
}

// Append implements BucketStore. Appending writes only past the end of the
// image and the offset table (or relocates them), so snapshots previously
// handed out by View stay valid: they cover a prefix the append never
// touches.
func (s *MemStore) Append(id BucketID, recs Bucket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[id]
	if !ok {
		return fmt.Errorf("mindex: append to unknown bucket %d", id)
	}
	s.buckets[id] = b.appendBucket(recs)
	return nil
}

// View implements BucketStore: the bucket itself, zero-copy, capped at its
// current length.
func (s *MemStore) View(id BucketID) (Bucket, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[id]
	if !ok {
		return Bucket{}, fmt.Errorf("mindex: view of unknown bucket %d", id)
	}
	return b.prefix(b.Len()), nil
}

// Replace implements BucketStore. The replacement is copied into a fresh
// image, so outstanding View snapshots keep the old contents.
func (s *MemStore) Replace(id BucketID, recs Bucket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[id]; !ok {
		return fmt.Errorf("mindex: replace of unknown bucket %d", id)
	}
	s.buckets[id] = recs.clone()
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

// DefaultDiskCacheBytes is the DiskStore bucket-cache budget applied when
// Config.DiskCacheBytes is 0.
const DefaultDiskCacheBytes = 32 << 20

// cacheEntryOverhead approximates the per-bucket bookkeeping cost charged
// against the cache budget on top of the image and offset table (map entry,
// allocation headers).
const cacheEntryOverhead = 128

// DiskStore keeps each bucket as a file holding its image — the records,
// appended as they arrive — in a directory, with two bounded caches in front
// of the file system:
//
//   - a cache of open append handles (O_APPEND files), so bulk loading does
//     not pay an open/close syscall pair per insert;
//   - a byte-budget cache of bucket images: a read that misses is admitted
//     only if it fits the free budget, and an image leaves only when Append,
//     Replace or Free changes its bucket, SetCacheBudget empties the cache,
//     or the store closes. Nothing is evicted to make room, so a
//     repeated-query workload against a static-or-slowly-churning index
//     keeps the buckets it filled the budget with and stops re-reading those
//     files (the dominant cost of the paper's Tables 5–9 workload shape on
//     disk storage), and a mutator's read-back never displaces them.
//
// An append of several records, such as a built leaf's content, is one
// write of their bytes, all or nothing. A one-record append, a write that files one entry
// into a leaf, waits in its handle's write-behind buffer for the bucket's
// next read, append, rewrite or free, or for the buffer to fill:
// a run of inserts costs one write, not one each. mu guards the
// bookkeeping, the caches and every write to a bucket file. A read that
// misses the cache holds it only for the map work on either side of the
// file read (see ViewScratch).
type DiskStore struct {
	mu  sync.Mutex
	dir string
	// filePrefix is dir + "/bucket-": path builds a name with one
	// concatenation, a miss's only allocation before the open.
	filePrefix string
	next       BucketID
	buckets    map[BucketID]*diskBucket
	closed     bool

	// Append-handle cache. handleLRU is ordered least → most recently
	// used; each element's Value is the BucketID, and the handle keeps a
	// pointer to its element so a touch is O(1) instead of the former
	// linear scan over a slice.
	open      map[BucketID]*appendHandle
	handleLRU *list.List
	maxFDs    int

	// Bucket-image cache: cacheBytes is the sum of the cached buckets'
	// cacheCharge, never above cacheBudget.
	cache       map[BucketID]Bucket
	cacheBytes  int
	cacheBudget int
	hits        uint64
	misses      uint64
}

// diskBucket is the store's record of one allocated bucket.
type diskBucket struct {
	count int // records in the file
	size  int // bytes in the file: a miss reads exactly this many
	// era counts content-destroying rewrites (Replace). Bucket IDs are never
	// reused, so a (bucket, era) pair names one content lineage that only
	// ever grows by appends; ViewScratch hands the era out with the view
	// so snapshot readers can detect a replacement that happened after their
	// tree version was published (Index.leafView).
	era uint64
	// virgin marks a bucket whose file does not exist yet: Create only
	// reserves the ID, and the file materializes on the first write (an
	// open/close syscall pair per bucket saved — the dominant cost of a bulk
	// build's allocation replay). A virgin bucket reads as empty, frees
	// without touching the file system, and loses its virginity on the first
	// Append/Replace. Whatever file a previous store on the same directory
	// left under a virgin ID is not this bucket's content: the first write
	// truncates it.
	virgin bool
}

type appendHandle struct {
	f *os.File
	// pending is the write-behind buffer of one-record appends, counted in
	// the bucket's count and size already.
	pending []byte
	elem    *list.Element
}

// writeBehind bounds an append handle's write-behind buffer.
const writeBehind = 16 << 10

// NewDiskStore creates a bucket store rooted at dir (created if missing)
// with the default cache budget. Temporary files a crash left between
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
		buckets:     make(map[BucketID]*diskBucket),
		open:        make(map[BucketID]*appendHandle),
		handleLRU:   list.New(),
		cache:       make(map[BucketID]Bucket),
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
	for id, count := range counts {
		if id > next {
			s.Close()
			return nil, fmt.Errorf("mindex: bucket %d beyond allocation cursor %d", id, next)
		}
		d := &diskBucket{count: count}
		fi, err := os.Stat(s.path(id))
		switch {
		case err == nil:
			d.size = int(fi.Size())
		case os.IsNotExist(err) && count == 0:
			d.virgin = true
		default:
			s.Close()
			return nil, fmt.Errorf("mindex: reattaching bucket %d: %w", id, err)
		}
		s.buckets[id] = d
	}
	s.next = next
	return s, nil
}

// SetCacheBudget empties the bucket-image cache and bounds it anew: n > 0
// sets the budget in bytes, n == 0 restores the default, n < 0 disables the
// cache entirely.
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
	clear(s.cache)
	s.cacheBytes = 0
}

// CacheStats reports the bucket-image cache counters: read-through hits and
// misses since creation, and the bytes currently charged against the
// budget. Cache-disabled stores report every read as a miss.
func (s *DiskStore) CacheStats() (hits, misses uint64, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.cacheBytes
}

// Sync writes every bucket's buffered appends out, so the files hold what
// the store has counted (snapshots are taken after it).
func (s *DiskStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.open {
		if err := h.flush(); err != nil {
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

// bucketLocked returns the record of a live bucket of an open store.
func (s *DiskStore) bucketLocked(id BucketID, op string) (*diskBucket, error) {
	if s.closed {
		return nil, errors.New("mindex: disk store closed")
	}
	d, ok := s.buckets[id]
	if !ok {
		return nil, fmt.Errorf("mindex: %s unknown bucket %d", op, id)
	}
	return d, nil
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
	s.buckets[s.next] = &diskBucket{virgin: true}
	return s.next, nil
}

// createGhost burns one bucket ID without creating a bucket file — the
// write planner's allocation replay for buckets the entry-at-a-time insert
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

// Append implements BucketStore. One record joins the handle's write-behind
// buffer while it fits; anything else is written after the buffer, in one
// write, all or nothing: a failed write cuts the file back to its recorded
// length and leaves the record untouched, so the bucket is exactly as it
// was.
func (s *DiskStore) Append(id BucketID, recs Bucket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.bucketLocked(id, "append to")
	if err != nil || recs.Len() == 0 {
		return err
	}
	h, err := s.writer(id, d)
	if err != nil {
		return err
	}
	if recs.Len() == 1 && len(h.pending)+len(recs.img) <= writeBehind {
		h.pending = append(h.pending, recs.img...)
	} else {
		if err := h.flush(); err != nil {
			return err
		}
		if _, err := h.f.Write(recs.img); err != nil {
			s.closeHandleLocked(id)
			os.Truncate(s.path(id), int64(d.size))
			return err
		}
	}
	d.count += recs.Len()
	d.size += len(recs.img)
	s.dropCacheLocked(id)
	return nil
}

// writer returns an append handle for the bucket, evicting the least
// recently used handle when the cache is full.
func (s *DiskStore) writer(id BucketID, d *diskBucket) (*appendHandle, error) {
	if h, ok := s.open[id]; ok {
		s.handleLRU.MoveToBack(h.elem)
		return h, nil
	}
	if len(s.open) >= s.maxFDs {
		if err := s.closeHandleLocked(s.handleLRU.Front().Value.(BucketID)); err != nil {
			return nil, err
		}
	}
	flags := os.O_WRONLY | os.O_APPEND | os.O_CREATE
	if d.virgin {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(s.path(id), flags, 0o644)
	if err != nil {
		return nil, err
	}
	d.virgin = false
	h := &appendHandle{f: f}
	h.elem = s.handleLRU.PushBack(id)
	s.open[id] = h
	return h, nil
}

// flush writes the handle's write-behind buffer out.
func (h *appendHandle) flush() error {
	if len(h.pending) == 0 {
		return nil
	}
	_, err := h.f.Write(h.pending)
	h.pending = h.pending[:0]
	return err
}

// flushLocked makes the bucket's buffered appends visible to a read of its
// file, keeping the handle for the next append.
func (s *DiskStore) flushLocked(id BucketID) error {
	if h, ok := s.open[id]; ok {
		return h.flush()
	}
	return nil
}

func (s *DiskStore) closeHandleLocked(id BucketID) error {
	h, ok := s.open[id]
	if !ok {
		return nil
	}
	s.handleLRU.Remove(h.elem)
	delete(s.open, id)
	err := h.flush()
	if cerr := h.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// View implements BucketStore (read-through, zero-copy: the returned bucket
// is the cached image itself when the bucket is cached).
func (s *DiskStore) View(id BucketID) (Bucket, error) {
	b, _, _, err := s.ViewScratch(id, nil)
	return b, err
}

// bucketVersion names one state of a bucket's content. Every mutator
// changes it under the mutex — an append raises count and size, a Replace
// raises era, neither ever falls back within a lineage — so a version that
// reads the same at two lock acquisitions proves no mutation touched the
// bucket in between.
type bucketVersion struct {
	count, size int
	era         uint64
}

func (s *DiskStore) versionLocked(id BucketID) (bucketVersion, error) {
	d, err := s.bucketLocked(id, "view of")
	if err != nil {
		return bucketVersion{}, err
	}
	return bucketVersion{d.count, d.size, d.era}, nil
}

// ViewScratch is View plus the bucket's content era, the two read
// atomically, for a caller that may bring a scratch bucket of its own (a
// search). Snapshot readers compare the era against the one recorded in
// their node version: a match proves the first n entries of the view are
// exactly that version's content (appends only extend).
//
// A hit returns the cached image. A miss does its I/O outside the mutex, so
// readers of one store do not queue behind each other's system calls. Under
// the mutex: the closed / unknown / virgin checks, the cache probe, the
// write of the bucket's buffered appends, and a note of the bucket's
// version. Outside: the three system calls and the one ScanEntry pass of
// readBucketFile — the buffer is the image, nothing is decoded. Under it
// again: the result stands only if the store is still open and the version
// unchanged, which makes it the bucket's content as of that second
// acquisition. Anything else — an append, a Replace, a Free, a failed read
// or parse — is settled by readLocked, where an error is final.
//
// A miss is read into a new image and admitted if it fits the free budget;
// nothing cached leaves to make room. Without a scratch, a miss that does
// not fit is served as an image of the caller's own. With one, a miss that
// does not fit is read into scratch's arrays instead — grown when short, and
// left in *scratch for the search's next read — and reported transient: the
// view is valid until the next ViewScratch on the same scratch, and the
// caller keeps an entry past that only by copying it.
func (s *DiskStore) ViewScratch(id BucketID, scratch *Bucket) (Bucket, uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.bucketLocked(id, "view of")
	if err != nil {
		return Bucket{}, 0, false, err
	}
	if d.virgin {
		return Bucket{}, d.era, false, nil // allocated, never written: empty, no file yet
	}
	if b, ok := s.cache[id]; ok {
		s.hits++
		return b, d.era, false, nil
	}
	s.misses++ // one per read, however it ends
	// Buffered appends must be in the file before it is read back.
	if err := s.flushLocked(id); err != nil {
		return Bucket{}, 0, false, err
	}
	v := bucketVersion{d.count, d.size, d.era}
	transient := scratch != nil && s.cacheBytes+cacheCharge(v.count, v.size) > s.cacheBudget
	var into Bucket
	if transient {
		into = *scratch
	}
	path := s.path(id)
	s.mu.Unlock()
	b, err := readBucketFile(path, v.count, v.size, into)
	s.mu.Lock()
	if transient && err == nil {
		*scratch = b // the arrays, grown or not, serve the search's next read
	}
	if now, verr := s.versionLocked(id); err != nil || verr != nil || now != v {
		b, era, err := s.readLocked(id)
		return b, era, false, err
	}
	// Another reader may have missed on the same bucket and got here first:
	// its image is the cached one, ours is dropped, the charge made once.
	if winner, ok := s.cache[id]; ok {
		return winner, v.era, false, nil
	}
	if transient {
		return b, v.era, true, nil
	}
	s.admitLocked(id, b)
	return b, v.era, false, nil
}

// readLocked is the read with the mutex held throughout: the retry of a
// ViewScratch whose unlocked read could not be admitted. Nothing can move
// under it, so what it finds is the bucket, and an error is the bucket's.
func (s *DiskStore) readLocked(id BucketID) (Bucket, uint64, error) {
	d, err := s.bucketLocked(id, "view of")
	if err != nil {
		return Bucket{}, 0, err
	}
	if d.virgin {
		return Bucket{}, d.era, nil
	}
	if b, ok := s.cache[id]; ok {
		return b, d.era, nil
	}
	if err := s.flushLocked(id); err != nil {
		return Bucket{}, 0, err
	}
	b, err := readBucketFile(s.path(id), d.count, d.size, Bucket{})
	if err != nil {
		return Bucket{}, 0, err
	}
	s.admitLocked(id, b)
	return b, d.era, nil
}

// readBucketFile reads the bucket file at path, which must hold exactly
// count records in size bytes, into into's arrays when they have room and
// into new ones otherwise. It touches no store state and runs without the
// store mutex: three system calls — open, a read loop of exactly size bytes,
// close — and the ScanEntry pass of parseBucket; the buffer becomes the
// image. The raw calls skip what os.Open adds to a one-shot read: two fcntl,
// a poller registration, the File and its finalizer. fd's type is whatever
// syscall.Open returns, so the one source builds on every GOOS.
func readBucketFile(path string, count, size int, into Bucket) (Bucket, error) {
	img := into.img
	if cap(img) < size {
		img = make([]byte, size)
	}
	img = img[:size]
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return Bucket{}, &os.PathError{Op: "open", Path: path, Err: err}
	}
	for n := 0; n < size; {
		m, err := syscall.Read(fd, img[n:])
		if err == syscall.EINTR {
			continue
		}
		if err == nil && m == 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			syscall.Close(fd)
			return Bucket{}, fmt.Errorf("mindex: reading bucket file %s: %w", path, err)
		}
		n += m
	}
	syscall.Close(fd)
	b, err := parseBucket(img, count, into.offs)
	if err != nil {
		return Bucket{}, fmt.Errorf("mindex: bucket file %s corrupted: %w", path, err)
	}
	return b, nil
}

// cacheCharge is what a bucket of count records in size bytes costs the
// cache budget: its image, its offset table and the bookkeeping.
func cacheCharge(count, size int) int { return cacheEntryOverhead + size + 4*count }

// admitLocked caches b, an image the store owns, if its charge fits the
// free budget. A bucket that does not fit is served uncached: nothing already
// cached leaves to make room.
func (s *DiskStore) admitLocked(id BucketID, b Bucket) {
	if c := cacheCharge(b.Len(), len(b.img)); s.cacheBytes+c <= s.cacheBudget {
		s.cache[id] = b
		s.cacheBytes += c
	}
}

func (s *DiskStore) dropCacheLocked(id BucketID) {
	if b, ok := s.cache[id]; ok {
		s.cacheBytes -= cacheCharge(b.Len(), len(b.img))
		delete(s.cache, id)
	}
}

// Replace implements BucketStore. The bucket file is rewritten through a
// temporary file and renamed into place, so a crash mid-rewrite leaves the
// previous contents intact. The bucket leaves the cache; its next read is a
// miss.
func (s *DiskStore) Replace(id BucketID, recs Bucket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.bucketLocked(id, "replace of")
	if err != nil {
		return err
	}
	// Retire the append handle; its descriptor points at the old inode the
	// rename below replaces.
	if err := s.closeHandleLocked(id); err != nil {
		return err
	}
	s.dropCacheLocked(id)
	tmp := s.path(id) + tmpExt
	if err := writeFileSynced(tmp, recs.img); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		os.Remove(tmp)
		return err
	}
	d.virgin = false
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
	d.count, d.size = recs.Len(), len(recs.img)
	d.era++
	return nil
}

// writeFileSynced creates path holding data and syncs it: the data reaches
// stable storage before Replace's rename swaps it in — a power cut must
// never swap a good bucket for a truncated one.
func writeFileSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Free implements BucketStore.
func (s *DiskStore) Free(id BucketID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.bucketLocked(id, "free of")
	if err != nil {
		return err
	}
	if err := s.closeHandleLocked(id); err != nil {
		return err
	}
	s.dropCacheLocked(id)
	delete(s.buckets, id)
	if d.virgin {
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
	s.cacheBytes = 0
	return firstErr
}
