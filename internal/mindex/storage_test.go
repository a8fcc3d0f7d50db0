package mindex

import (
	"bytes"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

func randomEntry(rng *rand.Rand, id uint64) Entry {
	perm := pivot.Permutation([]float64{
		rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
	})
	e := Entry{ID: id, Perm: perm}
	if rng.IntN(2) == 0 {
		e.Dists = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	e.Payload = make([]byte, rng.IntN(64))
	for i := range e.Payload {
		e.Payload[i] = byte(rng.IntN(256))
	}
	return e
}

func entriesEqual(a, b Entry) bool {
	if a.ID != b.ID || len(a.Perm) != len(b.Perm) || len(a.Dists) != len(b.Dists) ||
		len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	for i := range a.Dists {
		if a.Dists[i] != b.Dists[i] {
			return false
		}
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	return true
}

// sameRecord reports whether two candidates carry the same stored record:
// ID, payload and index metadata alike.
func sameRecord(a, b EntryView) bool { return a.ID == b.ID && bytes.Equal(a.Record, b.Record) }

// bucketOf is the bucket holding entries, in order.
func bucketOf(entries ...Entry) Bucket {
	var b Bucket
	for i := range entries {
		b = b.appendEntry(&entries[i])
	}
	return b
}

// entriesOf decodes every record of b.
func entriesOf(b Bucket) []Entry {
	out := make([]Entry, b.Len())
	for i := range out {
		v := b.At(i)
		out[i] = v.Decode()
	}
	return out
}

// viewEntries is entriesOf for a store read, passing its error through.
func viewEntries(b Bucket, err error) ([]Entry, error) { return entriesOf(b), err }

func TestEntryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range 200 {
		e := randomEntry(rng, uint64(i))
		buf := EncodeEntry(e)
		if len(buf) != EncodedEntrySize(e) {
			t.Fatalf("encoded size %d, predicted %d", len(buf), EncodedEntrySize(e))
		}
		got, rest, err := DecodeEntry(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !entriesEqual(e, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", e, got)
		}
	}
}

func TestEntryCodecStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	var buf []byte
	var want []Entry
	for i := range 50 {
		e := randomEntry(rng, uint64(i))
		want = append(want, e)
		buf = AppendEntry(buf, e)
	}
	var got []Entry
	for len(buf) > 0 {
		e, rest, err := DecodeEntry(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
		buf = rest
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !entriesEqual(want[i], got[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(buf []byte) bool {
		if len(buf) > 4096 {
			buf = buf[:4096]
		}
		// Must return an error or an entry, never panic or over-read.
		_, _, _ = DecodeEntry(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEntryRejectsTruncations(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	e := randomEntry(rng, 9)
	e.Payload = []byte{1, 2, 3, 4}
	e.Dists = []float64{1, 2, 3, 4}
	buf := EncodeEntry(e)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeEntry(buf[:cut]); err == nil {
			// A truncation may still parse if it lands exactly on a field
			// boundary AND the remaining lengths happen to be consistent —
			// impossible here because the total length is checked per field.
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestScanEntryRejectsVector: a record's trailing vector count is always
// zero — codec v3 keeps the field until a format bump drops it — and a
// record claiming a vector is malformed, not a vector to skip.
func TestScanEntryRejectsVector(t *testing.T) {
	buf := EncodeEntry(Entry{ID: 7, Perm: []int32{0, 1}, Payload: []byte{1, 2}})
	if tail := buf[len(buf)-4:]; !bytes.Equal(tail, []byte{0, 0, 0, 0}) {
		t.Fatalf("record ends in % x, want an empty vector count", tail)
	}
	withVec := append(buf[:len(buf)-4:len(buf)-4], 1, 0, 0, 0, 0, 0, 0x80, 0x3f) // one float32 1.0
	if _, _, err := ScanEntry(withVec); err == nil {
		t.Fatal("record with a vector accepted")
	}
}

func storeSuite(t *testing.T, mk func(t *testing.T) BucketStore) {
	t.Run("create-append-load", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		id, err := s.Create()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(4, 4))
		var want []Entry
		for i := range 25 {
			e := randomEntry(rng, uint64(i))
			want = append(want, e)
			if err := s.Append(id, bucketOf(e)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := viewEntries(s.View(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("viewed %d, want %d", len(got), len(want))
		}
		for i := range want {
			if !entriesEqual(want[i], got[i]) {
				t.Fatalf("entry %d mismatch", i)
			}
		}
	})
	t.Run("interleaved-append-load", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		id, _ := s.Create()
		rng := rand.New(rand.NewPCG(5, 5))
		for i := range 10 {
			if err := s.Append(id, bucketOf(randomEntry(rng, uint64(i)))); err != nil {
				t.Fatal(err)
			}
			got, err := s.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != i+1 {
				t.Fatalf("after %d appends viewed %d", i+1, got.Len())
			}
		}
	})
	t.Run("free", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		id, _ := s.Create()
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
		if _, err := s.View(id); err == nil {
			t.Fatal("view of freed bucket succeeded")
		}
		if err := s.Append(id, bucketOf(Entry{})); err == nil {
			t.Fatal("append to freed bucket succeeded")
		}
		if err := s.Free(id); err == nil {
			t.Fatal("double free succeeded")
		}
	})
	t.Run("cut", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		id, _ := s.Create()
		rng := rand.New(rand.NewPCG(8, 8))
		var want []Entry
		for i := range 5 {
			want = append(want, randomEntry(rng, uint64(i)))
		}
		if err := s.Append(id, bucketOf(want...)); err != nil {
			t.Fatal(err)
		}
		held, err := s.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Cut(id, 6); err == nil {
			t.Fatal("cut past the bucket's end succeeded")
		}
		if err := s.Cut(id, 2); err != nil {
			t.Fatal(err)
		}
		want = append(want[:2:2], randomEntry(rng, 9))
		if err := s.Append(id, bucketOf(want[2])); err != nil {
			t.Fatal(err)
		}
		got, err := viewEntries(s.View(id))
		if err != nil || len(got) != len(want) {
			t.Fatalf("after cut and append: %d entries (%v), want %d", len(got), err, len(want))
		}
		for i := range want {
			if !entriesEqual(got[i], want[i]) {
				t.Fatalf("entry %d is not what was kept or appended", i)
			}
		}
		// The cut dropped records no view may lose: one taken before still
		// holds them.
		if held.Len() != 5 || held.At(4).ID != 4 || held.At(2).ID != 2 {
			t.Fatal("a view taken before the cut changed under it")
		}
		if err := s.Cut(12345, 0); err == nil {
			t.Fatal("cut of an unknown bucket succeeded")
		}
	})
	t.Run("unknown-bucket", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		if _, err := s.View(12345); err == nil {
			t.Fatal("view of unknown bucket succeeded")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		ids := make([]BucketID, 8)
		for i := range ids {
			id, err := s.Create()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		var wg sync.WaitGroup
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(w), 6))
				for i := range 50 {
					id := ids[rng.IntN(len(ids))]
					if err := s.Append(id, bucketOf(randomEntry(rng, uint64(i)))); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.View(id); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

func TestMemStore(t *testing.T) {
	storeSuite(t, func(t *testing.T) BucketStore { return NewMemStore() })
}

func TestDiskStore(t *testing.T) {
	storeSuite(t, func(t *testing.T) BucketStore {
		s, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestDiskStoreManyBucketsExceedFDCache(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.maxFDs = 4 // force eviction churn
	rng := rand.New(rand.NewPCG(7, 7))
	ids := make([]BucketID, 20)
	for i := range ids {
		ids[i], err = s.Create()
		if err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[BucketID]int)
	for i := range 300 {
		id := ids[rng.IntN(len(ids))]
		if err := s.Append(id, bucketOf(randomEntry(rng, uint64(i)))); err != nil {
			t.Fatal(err)
		}
		counts[id]++
	}
	for _, id := range ids {
		got, err := s.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != counts[id] {
			t.Fatalf("bucket %d holds %d, want %d", id, got.Len(), counts[id])
		}
	}
}

func TestDiskStoreClosedOps(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(); err == nil {
		t.Error("create after close succeeded")
	}
	if err := s.Append(id, bucketOf(Entry{})); err == nil {
		t.Error("append after close succeeded")
	}
	if _, err := s.View(id); err == nil {
		t.Error("view after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// A disk-backed index must behave identically to the memory-backed one
// (core's TestExactKNNEqualsBruteForce runs the precise k-NN over both).
func TestDiskIndexEqualsMemoryIndex(t *testing.T) {
	ds := dataset.Clustered(20, 800, 5, 6, metric.L2{})
	rng := rand.New(rand.NewPCG(20, 20))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 8)

	memCfg := testConfig(8)
	diskCfg := testConfig(8)
	diskCfg.Storage = StorageDisk
	diskCfg.DiskPath = t.TempDir()

	mem, err := newTestIndex(memCfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.idx.Close()
	disk, err := newTestIndex(diskCfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.idx.Close()

	if err := mem.insert(ds.Objects...); err != nil {
		t.Fatal(err)
	}
	if err := disk.insert(ds.Objects...); err != nil {
		t.Fatal(err)
	}

	for trial := range 10 {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		r := []float64{1, 5, 15}[trial%3]
		a, err := mem.rangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := disk.rangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("range results differ: %v vs %v", a, b)
		}
	}
}

// TestDiskStoreFreshOnUsedDirectory is the restart-before-first-snapshot
// bug: a new store on a directory a previous one populated hands out the same
// IDs, and a virgin bucket's first write must not append to the file the
// earlier incarnation left under that ID (it used to: the next read failed
// with "holds 4 entries, expected 1").
func TestDiskStoreFreshOnUsedDirectory(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(31, 31))
	old, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := range 3 {
		id, _ := old.Create()
		for i := range 3 + b {
			if err := old.Append(id, bucketOf(randomEntry(rng, uint64(100*b+i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	single, _ := s.Create()  // first write: one record
	batch, _ := s.Create()   // first write: three records
	untouch, _ := s.Create() // never written: reads empty beside the old file
	want := []Entry{randomEntry(rng, 1), randomEntry(rng, 2), randomEntry(rng, 3)}
	if err := s.Append(single, bucketOf(want[0])); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch, bucketOf(want...)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batch, bucketOf(want[0])); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   BucketID
		want []Entry
	}{{single, want[:1]}, {batch, append(slices.Clone(want), want[0])}, {untouch, nil}} {
		got, err := viewEntries(s.View(tc.id))
		if err != nil {
			t.Fatalf("bucket %d: %v", tc.id, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("bucket %d holds %d entries, want %d", tc.id, len(got), len(tc.want))
		}
		for i := range got {
			if !entriesEqual(got[i], tc.want[i]) {
				t.Fatalf("bucket %d entry %d is not what was appended", tc.id, i)
			}
		}
	}
}

// TestDiskStoreReopenKeepsSnapshot: a store reattached with a snapshot's
// counts and cursor holds exactly what the snapshot names. A file grown
// past its count since — whole records, then half of one, as a crash leaves
// it — is cut back on its first read, and the next append follows the
// counted records. A freed bucket the snapshot names keeps its file until
// the next snapshot is saved; one allocated after it goes at once.
func TestDiskStoreReopenKeepsSnapshot(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(32, 32))
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	grown, _ := s.Create()
	freed, _ := s.Create()
	var want []Entry
	for i := range 5 {
		e := randomEntry(rng, uint64(i))
		want = append(want, e)
		if err := s.Append(grown, bucketOf(e)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(freed, bucketOf(e)); err != nil {
			t.Fatal(err)
		}
	}
	next := s.NextID()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.path(grown), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := EncodeEntry(randomEntry(rng, 99))
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := ReopenDiskStore(dir, map[BucketID]int{grown: 3, freed: 5}, next)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := viewEntries(re.View(grown))
	if err != nil || len(got) != 3 {
		t.Fatalf("reattached bucket: %d entries (%v), want the 3 counted", len(got), err)
	}
	if fi, err := os.Stat(re.path(grown)); err != nil || int(fi.Size()) != len(bucketOf(want[:3]...).img) {
		t.Fatalf("reattached bucket file not cut back to its counted records (stat: %v)", err)
	}
	want = append(want[:3], randomEntry(rng, 7))
	if err := re.Append(grown, bucketOf(want[3])); err != nil {
		t.Fatal(err)
	}
	re.SetCacheBudget(-1) // read the file, not the cache
	if got, err = viewEntries(re.View(grown)); err != nil || len(got) != len(want) {
		t.Fatalf("after an append: %d entries (%v), want %d", len(got), err, len(want))
	}
	for i := range want {
		if !entriesEqual(got[i], want[i]) {
			t.Fatalf("entry %d is not what was counted or appended", i)
		}
	}

	after, _ := re.Create()
	if err := re.Append(after, bucketOf(want[0])); err != nil {
		t.Fatal(err)
	}
	for _, id := range []BucketID{freed, after} {
		if err := re.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(re.path(after)); !os.IsNotExist(err) {
		t.Fatalf("bucket %d, allocated after the snapshot, kept its file past its Free (stat: %v)", after, err)
	}
	if _, err := os.Stat(re.path(freed)); err != nil {
		t.Fatalf("bucket %d, named by the snapshot, lost its file before the next one: %v", freed, err)
	}
	re.snapshotSaved(re.NextID())
	if _, err := os.Stat(re.path(freed)); !os.IsNotExist(err) {
		t.Fatalf("bucket %d kept its file past the next snapshot (stat: %v)", freed, err)
	}
}

// TestDiskStoreDamagedFile: a bucket file that does not hold what the store
// recorded is an error of the View — reported by the retry under the mutex,
// the unlocked read's own failure being no verdict — and stays one.
func TestDiskStoreDamagedFile(t *testing.T) {
	for name, damage := range map[string]func(path string, size int64) error{
		"truncated": func(path string, size int64) error { return os.Truncate(path, size-3) },
		"missing":   func(path string, _ int64) error { return os.Remove(path) },
		"short": func(path string, _ int64) error { // whole entries, one too few
			return os.WriteFile(path, EncodeEntry(versionedEntry(1, 0, 0)), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, _ := s.Create()
			for pos := range 2 {
				if err := s.Append(id, bucketOf(versionedEntry(id, 0, pos))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(s.path(id))
			if err != nil {
				t.Fatal(err)
			}
			if err := damage(s.path(id), fi.Size()); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if v, err := s.View(id); err == nil {
					t.Fatalf("view of a damaged bucket file returned %d entries", v.Len())
				}
			}
			if _, misses, bytes := s.CacheStats(); misses != 2 || bytes != 0 {
				t.Fatalf("two failed reads: %d misses, %d bytes cached", misses, bytes)
			}
		})
	}
}

// versionedEntry is entry pos of bucket's content as written in era, the
// number of cuts before the write, in TestDiskStoreViewsBesideMutation:
// every field is a function of the three, and the three are in the ID, so a
// reader can check a view without sharing any state with the writer. Field
// sizes vary with pos, so a view assembled from a torn read cannot pass;
// every seventh payload is large enough to spill the 16 KiB append buffer
// mid-entry, which is what tears the tail of a file under an unlocked
// reader.
func versionedEntry(bucket BucketID, era uint64, pos int) Entry {
	id := uint64(bucket)<<40 | era<<20 | uint64(pos)
	rng := rand.New(rand.NewPCG(id, 33))
	e := Entry{ID: id, Perm: []int32{int32(pos % 4), int32(era % 4), int32(bucket % 4)}}
	if pos%2 == 0 {
		e.Dists = []float64{rng.Float64(), float64(pos), float64(era)}
	}
	n := rng.IntN(120)
	if pos%7 == 3 {
		n += 6000
	}
	if n > 0 {
		e.Payload = make([]byte, n)
		for i := range e.Payload {
			e.Payload[i] = byte(id>>(i%8*8)) ^ byte(i)
		}
	}
	return e
}

// TestDiskStoreViewsBesideMutation is the store-level test of the read
// protocol: readers loop ViewScratch over a few buckets while one writer
// appends (one record or several), cuts, frees and resizes the cache. Every
// view must be whole entries of its bucket, each written at its position
// and none written before an entry it follows was — never torn — and
// as long as the bucket was at some moment of the read. At the end every
// bucket must hold what was written to it, and the cache's byte count must
// equal the charges of what it holds. Run under -race.
func TestDiskStoreViewsBesideMutation(t *testing.T) {
	const ops = 1200
	for _, tc := range []struct {
		name    string
		budgets []int // the writer cycles through them; one entry = never resized
	}{
		{"cached", []int{0}},
		{"uncached", []int{-1}},
		{"resized", []int{0, -1, 3 << 10, 0, 1 << 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetCacheBudget(tc.budgets[0])

			// What the writer publishes about a slot: counts[k] is the
			// slot's entry count after its k-th mutation, stored before
			// begun moves to k, and done moves to k after it. A view of
			// the slot holds as many entries as one of counts[done before
			// the read .. begun after it].
			type slot struct {
				id          atomic.Uint64
				begun, done atomic.Int64
				counts      [ops + 1]atomic.Int64
			}
			slots := make([]slot, 4)
			type content struct {
				id      BucketID
				era     uint64
				entries []Entry
				muts    int64
			}
			state := make([]content, len(slots))
			for i := range slots {
				id, err := s.Create()
				if err != nil {
					t.Fatal(err)
				}
				state[i] = content{id: id}
				slots[i].id.Store(uint64(id))
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var views atomic.Int64
			for r := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sl := &slots[i%len(slots)]
						id := BucketID(sl.id.Load())
						lo := sl.done.Load()
						v, _, err := s.ViewScratch(id, nil)
						hi := sl.begun.Load()
						if BucketID(sl.id.Load()) != id {
							continue // freed around the read: an error or a last view, both fine
						}
						if err != nil {
							t.Errorf("view of live bucket %d: %v", id, err)
							return
						}
						era := uint64(0)
						for pos, e := range entriesOf(v) {
							if e.ID>>20&(1<<20-1) < era || !entriesEqual(e, versionedEntry(id, e.ID>>20&(1<<20-1), pos)) {
								t.Errorf("bucket %d: entry %d of a %d-entry view is not one written there", id, pos, v.Len())
								return
							}
							era = e.ID >> 20 & (1<<20 - 1)
						}
						fits := false
						for k := lo; k <= hi; k++ {
							fits = fits || int64(v.Len()) == sl.counts[k].Load()
						}
						if !fits {
							t.Errorf("bucket %d: view of %d entries, a count it never had between mutations %d and %d", id, v.Len(), lo, hi)
							return
						}
						views.Add(1)
					}
				}()
			}

			rng := rand.New(rand.NewPCG(34, 34))
			for op := 0; op < ops && !t.Failed(); op++ {
				i := rng.IntN(len(slots))
				c, sl := &state[i], &slots[i]
				// mutate publishes the count the slot will have, runs the
				// mutation and publishes that it is done.
				mutate := func(count int, write func() error) {
					c.muts++
					sl.counts[c.muts].Store(int64(count))
					sl.begun.Store(c.muts)
					if err := write(); err != nil {
						t.Fatal(err)
					}
					sl.done.Store(c.muts)
				}
				grow := func(n int, write func([]Entry) error) {
					batch := make([]Entry, n)
					for j := range batch {
						batch[j] = versionedEntry(c.id, c.era, len(c.entries)+j)
					}
					mutate(len(c.entries)+n, func() error { return write(batch) })
					c.entries = append(c.entries, batch...)
				}
				switch k := rng.IntN(100); {
				case k < 50:
					grow(1, func(b []Entry) error { return s.Append(c.id, bucketOf(b[0])) })
				case k < 80:
					grow(1+rng.IntN(6), func(b []Entry) error { return s.Append(c.id, bucketOf(b...)) })
				case k < 88:
					n := rng.IntN(len(c.entries) + 1)
					mutate(n, func() error { return s.Cut(c.id, n) })
					c.entries = c.entries[:n]
					c.era++
				case k < 94:
					// The successor is published before the old bucket goes,
					// so a reader that still holds the old ID can tell; its
					// count of 0 is true of the new bucket from the start.
					id, err := s.Create()
					if err != nil {
						t.Fatal(err)
					}
					old := c.id
					mutate(0, func() error {
						sl.id.Store(uint64(id))
						return nil
					})
					c.id, c.era, c.entries = id, 0, nil
					if err := s.Free(old); err != nil {
						t.Fatal(err)
					}
				default:
					s.SetCacheBudget(tc.budgets[op%len(tc.budgets)])
				}
			}
			close(stop)
			wg.Wait()
			if views.Load() == 0 {
				t.Fatal("no reader finished a view")
			}

			for i, c := range state {
				got, err := viewEntries(s.View(c.id))
				if err != nil || len(got) != len(c.entries) {
					t.Fatalf("slot %d at rest: %d entries (%v), want %d", i, len(got), err, len(c.entries))
				}
				for j := range got {
					if !entriesEqual(got[j], c.entries[j]) {
						t.Fatalf("slot %d at rest: entry %d is not the one written", i, j)
					}
				}
			}
			checkCacheCharges(t, s)
		})
	}
}

// checkCacheCharges verifies the cache's books: every cached bucket is
// charged the overhead plus its image plus four bytes an offset — exactly
// the memory it holds, its slices being exactly sized — and the charges add
// up to the byte count the budget is held against, which they never exceed.
func checkCacheCharges(t *testing.T, s *DiskStore) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := 0
	for id, b := range s.cache {
		if cap(b.img) != len(b.img) || cap(b.offs) != len(b.offs) {
			t.Fatalf("cached bucket %d holds %d+%d bytes of capacity beyond its image and offsets", id, cap(b.img)-len(b.img), 4*(cap(b.offs)-len(b.offs)))
		}
		sum += cacheEntryOverhead + len(b.img) + 4*len(b.offs)
	}
	if sum != s.cacheBytes {
		t.Fatalf("cache charges add up to %d bytes, cacheBytes is %d", sum, s.cacheBytes)
	}
	if s.cacheBytes > s.cacheBudget {
		t.Fatalf("cache charged %d bytes, budget %d", s.cacheBytes, s.cacheBudget)
	}
}

// TestDiskStoreConcurrentColdViews: several goroutines View one cold bucket
// at once. However their reads interleave, each is a hit or a miss, all get
// the same content, and the bucket ends up cached once and charged once (the
// loser of a double miss returns the winner's image and drops its own).
func TestDiskStoreConcurrentColdViews(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _ := s.Create()
	const entries, readers = 40, 8
	want := make([]Entry, entries)
	for pos := range want {
		want[pos] = versionedEntry(id, 0, pos)
		if err := s.Append(id, bucketOf(want[pos])); err != nil {
			t.Fatal(err)
		}
	}
	doubleMisses := 0
	for round := range 200 {
		s.SetCacheBudget(-1) // cold again
		s.SetCacheBudget(0)
		hits0, misses0, _ := s.CacheStats()
		start := make(chan struct{})
		got := make([][]Entry, readers)
		var wg sync.WaitGroup
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, err := viewEntries(s.View(id))
				if err != nil {
					t.Error(err)
				}
				got[r] = v
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		hits, misses, _ := s.CacheStats()
		if hits-hits0+misses-misses0 != readers || misses == misses0 {
			t.Fatalf("round %d: %d hits + %d misses for %d reads of a cold bucket", round, hits-hits0, misses-misses0, readers)
		}
		if misses-misses0 > 1 {
			doubleMisses++
		}
		for r, v := range got {
			if len(v) != entries {
				t.Fatalf("round %d reader %d: %d entries, want %d", round, r, len(v), entries)
			}
			for pos := range v {
				if !entriesEqual(v[pos], want[pos]) {
					t.Fatalf("round %d reader %d: entry %d differs", round, r, pos)
				}
			}
		}
		s.mu.Lock()
		cached := len(s.cache)
		s.mu.Unlock()
		if cached != 1 {
			t.Fatalf("round %d: %d cache entries for one bucket", round, cached)
		}
		checkCacheCharges(t, s)
	}
	t.Logf("%d of 200 rounds had more than one reader miss", doubleMisses)
}

// openDescriptors counts this process's open file descriptors (linux only).
func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestDiskStoreCloseRacingViews closes the store under readers whose every
// View is a file read. A read that overlaps the Close returns an error or a
// complete view, never a torn one and never a panic, and no descriptor —
// append handle or read — outlives the store.
func TestDiskStoreCloseRacingViews(t *testing.T) {
	countFDs := runtime.GOOS == "linux"
	before := 0
	if countFDs {
		before = openDescriptors(t)
	}
	for round := range 20 {
		s, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheBudget(-1)
		ids := make([]BucketID, 6)
		want := make([][]Entry, len(ids))
		for i := range ids {
			ids[i], _ = s.Create()
			for pos := range 30 {
				want[i] = append(want[i], versionedEntry(ids[i], 0, pos))
			}
			if err := s.Append(ids[i], bucketOf(want[i]...)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		var complete, refused atomic.Int64
		for r := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := r; ; i++ {
					b := i % len(ids)
					v, err := viewEntries(s.View(ids[b]))
					if err != nil {
						refused.Add(1)
						return // closed: every later read fails the same way
					}
					if len(v) != 30 {
						t.Errorf("round %d: view of %d entries beside Close, want 30", round, len(v))
						return
					}
					for pos := range v {
						if !entriesEqual(v[pos], want[b][pos]) {
							t.Errorf("round %d: entry %d torn beside Close", round, pos)
							return
						}
					}
					complete.Add(1)
				}
			}()
		}
		for complete.Load() < int64(10*(round+1)) && !t.Failed() {
			runtime.Gosched()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if refused.Load() != 4 && !t.Failed() {
			t.Fatalf("round %d: %d of 4 readers saw the store closed", round, refused.Load())
		}
	}
	if countFDs {
		if after := openDescriptors(t); after != before {
			t.Fatalf("%d descriptors open before, %d after", before, after)
		}
	}
}
