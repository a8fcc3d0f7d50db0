package kmeans

import (
	"os"
	"path/filepath"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/engine"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

// The family snapshots through the engine's (mindex codec v3) snapshot of
// its index configuration; these tests pin that the round trip carries the
// family's cells.

func buildDisk(t *testing.T, d *dataset.Dataset, k int) (*engine.ShardedIndex, *Model, Config) {
	t.Helper()
	cfg := Config{NumCentroids: k, Storage: mindex.StorageDisk, DiskPath: filepath.Join(t.TempDir(), "cells")}
	eng, m := buildPlain(t, d, cfg)
	return eng, m, cfg
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := dataset.Clustered(31, 180, 6, 4, metric.L2{})
	eng, m, cfg := buildDisk(t, d, 4)
	refs := familyEntries(m, []metric.Object{d.Objects[3], d.Objects[44]})
	if n, err := eng.Delete(refs); err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	snap := filepath.Join(filepath.Dir(cfg.DiskPath), "kmeans.snap")
	if err := eng.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	qDists := m.PivotSet().Distances(d.Objects[9].Vec)
	wantRange, err := eng.RangeByDists(qDists, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantApprox, err := eng.ApproxCandidatesRanked(mindex.ApproxQuery{Dists: qDists}, 60)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := eng.TreeStats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := engine.LoadSnapshot(cfg.IndexConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if s := got.TreeStats(); s != wantStats {
		t.Fatalf("stats after restore = %+v, want %+v", s, wantStats)
	}
	gotRange, err := got.RangeByDists(qDists, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRange) != len(wantRange) {
		t.Fatalf("range returned %d entries after restore, want %d", len(gotRange), len(wantRange))
	}
	for i := range wantRange {
		if gotRange[i].ID != wantRange[i].ID {
			t.Fatalf("range order diverged at %d", i)
		}
	}
	gotApprox, err := got.ApproxCandidatesRanked(mindex.ApproxQuery{Dists: qDists}, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantApprox {
		if gotApprox[i].Entry.ID != wantApprox[i].Entry.ID || gotApprox[i].Promise != wantApprox[i].Promise {
			t.Fatalf("approx order diverged at %d", i)
		}
	}

	// The restored index keeps working: a deleted ID re-inserts (purging its
	// dead twin), fresh inserts and deletes proceed.
	if err := got.InsertBulk(refs[:1]); err != nil {
		t.Fatalf("re-insert of a deleted ID after restore: %v", err)
	}
	fresh := mindex.Entry{ID: 100000, Perm: []int32{1}, Dists: make([]float64, 4)}
	if err := got.InsertBulk([]mindex.Entry{fresh}); err != nil {
		t.Fatal(err)
	}
	if n, err := got.Delete([]mindex.Entry{fresh}); err != nil || n != 1 {
		t.Fatalf("post-restore delete = %d, %v", n, err)
	}
}

func TestSnapshotRequiresDisk(t *testing.T) {
	eng, err := engine.New(memConfig(2).IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.SaveSnapshot(filepath.Join(t.TempDir(), "x.snap")); err == nil {
		t.Fatal("memory index snapshotted")
	}
	if _, err := engine.LoadSnapshot(memConfig(2).IndexConfig(), "nope"); err == nil {
		t.Fatal("memory config loaded a snapshot")
	}
}

func TestSnapshotRejectsMismatchAndCorruption(t *testing.T) {
	d := dataset.Clustered(32, 90, 5, 3, metric.L2{})
	eng, _, cfg := buildDisk(t, d, 3)
	snap := filepath.Join(filepath.Dir(cfg.DiskPath), "kmeans.snap")
	if err := eng.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wrongK := cfg
	wrongK.NumCentroids = 4
	if _, err := engine.LoadSnapshot(wrongK.IndexConfig(), snap); err == nil {
		t.Fatal("centroid-count mismatch accepted")
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func([]byte) []byte{
		"bad magic": func(b []byte) []byte { b[0] ^= 0xff; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-4] },
		"trailing":  func(b []byte) []byte { return append(b, 0) },
	} {
		bad := snap + ".bad"
		if err := os.WriteFile(bad, mut(append([]byte{}, raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.LoadSnapshot(cfg.IndexConfig(), bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
