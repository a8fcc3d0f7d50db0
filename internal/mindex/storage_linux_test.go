package mindex

import (
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDiskStoreDoubleMiss parks N readers inside one cold bucket's file read
// — the file is swapped for a FIFO, whose open blocks until a writer comes —
// and checks what only holds if that read runs outside the store mutex: all
// N get as far as the open (misses == N while they are parked, read through
// the same mutex), and once released they leave the bucket cached once and
// charged once, with the miss count still N. (Released with nothing to read,
// they take the retry under the mutex; readers whose unlocked reads both
// succeed are TestDiskStoreConcurrentColdViews.)
func TestDiskStoreDoubleMiss(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _ := s.Create()
	const entries, readers = 12, 6
	for pos := range entries {
		if err := s.Append(id, bucketOf(versionedEntry(id, 0, pos))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	path := s.path(id)
	if err := os.Rename(path, path+".real"); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("no FIFO in the test directory: %v", err)
	}

	views := make([]Bucket, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.View(id)
			if err != nil {
				t.Error(err)
			}
			views[r] = v
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if s.mu.TryLock() { // not Lock: a read that held the mutex would hang the test
			misses := s.misses
			s.mu.Unlock()
			if misses == readers {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the readers did not all reach the file read: it holds the store mutex")
		}
	}
	// A writer's open releases the parked opens; the real file goes back
	// before the writer's close ends their reads with nothing.
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".real", path); err != nil {
		t.Fatal(err)
	}
	w.Close()
	wg.Wait()

	for r, v := range views {
		if v.Len() != entries {
			t.Fatalf("reader %d: %d entries, want %d", r, v.Len(), entries)
		}
		if &v.img[0] != &views[0].img[0] {
			t.Fatalf("reader %d holds an image of its own, not the cached one", r)
		}
	}
	if hits, misses, _ := s.CacheStats(); hits != 0 || misses != readers {
		t.Fatalf("%d hits, %d misses for %d reads that all missed", hits, misses, readers)
	}
	if len(s.cache) != 1 {
		t.Fatalf("%d cache entries for one bucket", len(s.cache))
	}
	checkCacheCharges(t, s)
}
