package mindex

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// buildDisk creates a disk-backed index over a clustered collection.
func buildDisk(t *testing.T, dir string, seed uint64, n int) (*testIndex, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(seed, n, 5, 6, metric.L2{})
	rng := rand.New(rand.NewPCG(seed, 9))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 8)
	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	p, err := newTestIndex(cfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.insert(ds.Objects...); err != nil {
		t.Fatal(err)
	}
	return p, ds
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	p, ds := buildDisk(t, dir, 61, 900)
	origStats := p.idx.TreeStats()

	// Reference answers before shutdown.
	q := ds.Objects[17].Vec
	wantRange, err := p.idx.RangeByDists(p.pivots.Distances(q), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.idx.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := p.idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reattach from the snapshot.
	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	idx, err := LoadSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Size() != 900 {
		t.Fatalf("restored size = %d", idx.Size())
	}
	st := idx.TreeStats()
	if st != origStats {
		t.Fatalf("restored stats %+v != original %+v", st, origStats)
	}
	gotRange, err := idx.RangeByDists(p.pivots.Distances(q), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRange) != len(wantRange) {
		t.Fatalf("restored range: %d candidates, want %d", len(gotRange), len(wantRange))
	}
	wantIDs := map[uint64]bool{}
	for _, e := range wantRange {
		wantIDs[e.ID] = true
	}
	for _, e := range gotRange {
		if !wantIDs[e.ID] {
			t.Fatalf("restored range returned unexpected entry %d", e.ID)
		}
	}
}

func TestSnapshotSupportsFurtherInserts(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	p, ds := buildDisk(t, dir, 62, 400)
	if err := p.idx.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := p.idx.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	idx, err := LoadSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	// Insert more objects through the restored index; splits must work
	// (fresh bucket IDs must not collide with pre-restart buckets).
	pv := p.pivots
	more := dataset.Clustered(63, 400, 5, 6, metric.L2{})
	for _, o := range more.Objects {
		dists := pv.Distances(o.Vec)
		if err := idx.InsertBulk([]Entry{{
			ID:    o.ID + 10000,
			Perm:  pivot.Permutation(dists),
			Dists: dists,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Size() != 800 {
		t.Fatalf("size after further inserts = %d", idx.Size())
	}
	all, err := idx.AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 800 {
		t.Fatalf("AllEntries after restore+insert = %d", len(all))
	}
	seen := map[uint64]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate entry %d after restore", e.ID)
		}
		seen[e.ID] = true
	}
	_ = ds
}

// TestSnapshotTombstoneRoundTrip: a snapshot taken after deletions must
// carry the tombstone set — the restored index keeps hiding the deleted
// entries, keeps refusing duplicate IDs, and still compacts.
func TestSnapshotTombstoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	p, ds := buildDisk(t, dir, 68, 700)
	pv := p.pivots

	gone := map[uint64]bool{}
	var victims []uint64
	for i := 0; i < 700; i += 4 {
		victims = append(victims, ds.Objects[i].ID)
		gone[ds.Objects[i].ID] = true
	}
	if _, err := p.idx.Delete(victims); err != nil {
		t.Fatal(err)
	}
	origStats := p.idx.TreeStats()
	if err := p.idx.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := p.idx.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	idx, err := LoadSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Size() != 700-len(victims) || idx.Dead() != len(victims) {
		t.Fatalf("restored size/dead = %d/%d, want %d/%d",
			idx.Size(), idx.Dead(), 700-len(victims), len(victims))
	}
	if st := idx.TreeStats(); st != origStats {
		t.Fatalf("restored stats %+v != original %+v", st, origStats)
	}

	// Tombstoned entries stay invisible after the restart.
	cands, err := idx.RangeByDists(pv.Distances(ds.Objects[2].Vec), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != idx.Size() {
		t.Fatalf("restored range returned %d candidates, want %d", len(cands), idx.Size())
	}
	for _, e := range cands {
		if gone[e.ID] {
			t.Fatalf("restored index surfaced deleted entry %d", e.ID)
		}
	}

	// Mutations after restore rebuild the location map from the buckets:
	// live duplicates are still rejected, tombstoned IDs re-insert, and
	// further deletes work.
	liveID := ds.Objects[1].ID
	dists := pv.Distances(ds.Objects[1].Vec)
	dup := Entry{ID: liveID, Perm: pivot.Permutation(dists), Dists: dists}
	if err := idx.InsertBulk([]Entry{dup}); err == nil {
		t.Fatal("restored index accepted a live duplicate ID")
	}
	reDists := pv.Distances(ds.Objects[0].Vec)
	re := Entry{ID: ds.Objects[0].ID, Perm: pivot.Permutation(reDists), Dists: reDists}
	if err := idx.InsertBulk([]Entry{re}); err != nil {
		t.Fatalf("re-insert of tombstoned ID after restore: %v", err)
	}
	if n, err := idx.Delete([]uint64{liveID}); err != nil || n != 1 {
		t.Fatalf("delete after restore = %d, %v", n, err)
	}

	// Compaction after restore drops every tombstone.
	if err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	if idx.Dead() != 0 {
		t.Fatalf("dead = %d after post-restore compact", idx.Dead())
	}
	want := 700 - len(victims) + 1 - 1 // re-inserted one victim, deleted one live
	if idx.Size() != want {
		t.Fatalf("size after compact = %d, want %d", idx.Size(), want)
	}
	all, err := idx.AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != want {
		t.Fatalf("AllEntries after compact = %d, want %d", len(all), want)
	}

	// And the compacted state snapshots and restores again (version 2
	// with an empty tombstone set).
	snap2 := filepath.Join(t.TempDir(), "index2.snap")
	if err := idx.SaveSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	idx2, err := LoadSnapshot(cfg, snap2)
	if err != nil {
		t.Fatal(err)
	}
	defer idx2.Close()
	if idx2.Size() != want || idx2.Dead() != 0 {
		t.Fatalf("second restore size/dead = %d/%d, want %d/0", idx2.Size(), idx2.Dead(), want)
	}
}

func TestSnapshotRejectsMemoryStore(t *testing.T) {
	idx, err := New(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.SaveSnapshot(filepath.Join(t.TempDir(), "x.snap")); err == nil {
		t.Fatal("memory-store snapshot accepted")
	}
	cfg := testConfig(6)
	if _, err := LoadSnapshot(cfg, "nonexistent"); err == nil {
		t.Fatal("memory-store load accepted")
	}
}

func TestSnapshotRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	p, _ := buildDisk(t, dir, 64, 200)
	if err := p.idx.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.idx.Close()

	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	cfg.BucketCapacity = 999 // mismatch
	if _, err := LoadSnapshot(cfg, snap); err == nil {
		t.Fatal("mismatched config accepted")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	p, _ := buildDisk(t, dir, 65, 300)
	if err := p.idx.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.idx.Close()

	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir

	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at various points must all be rejected.
	for _, cut := range []int{3, 9, 20, len(raw) / 2, len(raw) - 1} {
		bad := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(bad, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(cfg, bad); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	mangled := append([]byte{}, raw...)
	mangled[0] = 'X'
	bad := filepath.Join(t.TempDir(), "badmagic.snap")
	os.WriteFile(bad, mangled, 0o644)
	if _, err := LoadSnapshot(cfg, bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSnapshotRejectsMissingBucketFiles(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	p, _ := buildDisk(t, dir, 66, 300)
	if err := p.idx.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.idx.Close()

	// Delete one bucket file behind the snapshot's back.
	files, err := filepath.Glob(filepath.Join(dir, "bucket-*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bucket files: %v", err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	if _, err := LoadSnapshot(cfg, snap); err == nil {
		t.Fatal("missing bucket file not detected")
	}
}

// TestRestorePrewarmsLocMap pins the eager loc-map rebuild during restore:
// LoadSnapshot walks the buckets up front, so the first post-restore
// mutation pays a steady-state insert, not a whole-index rebuild. The
// structural half asserts the map exists (covering live and tombstoned
// entries) before any mutation; the latency half asserts the first
// mutation after restore is within noise of the steady-state median, with
// a generous multiplier so scheduler jitter cannot fail it.
func TestRestorePrewarmsLocMap(t *testing.T) {
	const n = 4000
	entries, _, _ := testEntries(t, 71, n+64, 8)
	batch, extra := entries[:n], entries[n:]
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "index.snap")
	cfg := testConfig(8)
	cfg.Storage = StorageDisk
	cfg.DiskPath = dir
	ix := mustIndex(t, cfg)
	if err := ix.InsertBulk(batch); err != nil {
		t.Fatal(err)
	}
	victims := []uint64{batch[3].ID, batch[77].ID, batch[1234].ID}
	if _, err := ix.Delete(victims); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := LoadSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.loc == nil {
		t.Fatal("loc map not pre-warmed by LoadSnapshot")
	}
	if got := len(ix2.loc); got != n {
		t.Fatalf("pre-warmed loc holds %d entries, want %d (live+tombstoned)", got, n)
	}

	// First mutation after restore vs steady state: insert the reserved
	// entries one at a time and compare the first latency against the
	// median of the rest.
	lat := make([]time.Duration, len(extra))
	for i, e := range extra {
		start := time.Now()
		if err := ix2.InsertBulk([]Entry{e}); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	first := lat[0]
	rest := append([]time.Duration(nil), lat[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	median := rest[len(rest)/2]
	if limit := max(20*median, 5*time.Millisecond); first > limit {
		t.Errorf("first post-restore mutation took %v, steady-state median %v (limit %v)", first, median, limit)
	}
}
