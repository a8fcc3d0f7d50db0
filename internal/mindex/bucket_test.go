package mindex

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzBucketImage is the fuzz target of the bucket image validator behind
// every disk read: parseBucket must accept exactly the images a ScanEntry
// loop reads to the end, and only with the count that loop finds; index them
// at the offsets the loop visits; and hand out, at every index, the record
// the loop scanned there.
func FuzzBucketImage(f *testing.F) {
	rng := rand.New(rand.NewPCG(35, 35))
	var entries []Entry
	for i := range 6 {
		entries = append(entries, randomEntry(rng, uint64(i)))
	}
	img := bucketOf(entries...).Bytes()
	f.Add(img)
	f.Add(img[:len(img)-1])
	f.Add(img[:len(img)/2])
	f.Add([]byte{})
	f.Add(make([]byte, 20)) // the smallest record: an ID and four zero lengths
	f.Fuzz(func(t *testing.T, img []byte) {
		var offs []uint32
		whole := true
		for rest := img; len(rest) > 0; {
			offs = append(offs, uint32(len(img)-len(rest)))
			var err error
			if _, rest, err = ScanEntry(rest); err != nil {
				whole = false
				break
			}
		}
		n := len(offs)
		// A search's scratch table: stale offsets, room for any count.
		stale := make([]uint32, n+1, n+8)
		for i := range stale {
			stale[i] = 0xdead
		}
		for _, count := range []int{n - 1, n, n + 1} {
			b, err := parseBucket(img, count, nil)
			if want := whole && count == n; (err == nil) != want {
				t.Fatalf("count %d of a %d-record image (whole %v): err %v", count, n, whole, err)
			}
			if r, rerr := parseBucket(img, count, stale); (rerr == nil) != (err == nil) ||
				(err == nil && (!slices.Equal(r.offs, offs) || &r.offs[:1][0] != &stale[0])) {
				t.Fatalf("count %d: parsing into a used table differs: err %v", count, rerr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(b.offs, offs) || !bytes.Equal(b.Bytes(), img) {
				t.Fatalf("offsets %v, the scan visits %v", b.offs, offs)
			}
			for i := range b.Len() {
				v := b.At(i)
				w, _, _ := ScanEntry(img[offs[i]:])
				if v.ID != w.ID || !bytes.Equal(v.Record, w.Record) || !bytes.Equal(v.Payload(), w.Payload()) {
					t.Fatalf("record %d: the view is not the record the scan found", i)
				}
				if id, dists := b.filterFields(i); id != w.ID || !bytes.Equal(dists, w.Dists()) {
					t.Fatalf("record %d: the filter reads ID %d and %d distance bytes, the record holds %d and %d",
						i, id, len(dists), w.ID, len(w.Dists()))
				}
			}
			if p := b.prefix(n / 2); p.Len() != n/2 || (n/2 < n && len(p.Bytes()) != int(offs[n/2])) {
				t.Fatalf("prefix of %d records: %d records in %d bytes", n/2, p.Len(), len(p.Bytes()))
			}
		}
	})
}

// TestMemDiskImagesEqual builds one history into a memory index and a disk
// index and compares every leaf's view: the two stores hold a bucket in the
// same form, so the images are byte for byte equal and index the same
// records.
func TestMemDiskImagesEqual(t *testing.T) {
	entries, _, _ := perfEntries(1500, 10)
	mem := mustIndex(t, perfConfig(10))
	diskCfg := perfConfig(10)
	diskCfg.Storage, diskCfg.DiskPath, diskCfg.DiskCacheBytes = StorageDisk, t.TempDir(), 16<<10
	disk := mustIndex(t, diskCfg)
	var dead []uint64
	for i := 0; i < 900; i += 7 {
		dead = append(dead, entries[i].ID)
	}
	for _, ix := range []*Index{mem, disk} {
		if err := ix.InsertBulk(entries[:900]); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[900:1000] {
			if err := ix.InsertBulk([]Entry{e}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.Delete(dead); err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertBulk([]Entry{entries[0]}); err != nil { // purges its tombstoned twin
			t.Fatal(err)
		}
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertBulk(entries[1000:]); err != nil {
			t.Fatal(err)
		}
	}
	leaves := 0
	var walk func(m, d *node)
	walk = func(m, d *node) {
		if m.isLeaf() != d.isLeaf() || !slices.Equal(m.prefix, d.prefix) || len(m.kids) != len(d.kids) {
			t.Fatalf("cell %v: the two trees differ in shape", m.prefix)
		}
		if !m.isLeaf() {
			for i := range m.kids {
				walk(m.kids[i].n, d.kids[i].n)
			}
			return
		}
		mv, err := mem.leafView(m)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := disk.leafView(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mv.Bytes(), dv.Bytes()) || !slices.Equal(mv.offs, dv.offs) {
			t.Fatalf("leaf %v: memory image of %d records in %d bytes, disk image of %d in %d",
				m.prefix, mv.Len(), len(mv.Bytes()), dv.Len(), len(dv.Bytes()))
		}
		leaves++
	}
	walk(mem.state.Load().root, disk.state.Load().root)
	if leaves < 10 {
		t.Fatalf("compared %d leaves: the history built no tree", leaves)
	}
}
