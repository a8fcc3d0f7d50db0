package kmeans

import (
	"fmt"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

// buildPlain trains a model on the collection and loads an in-memory index
// with untransformed centroid distances — the plain-space fixture every
// correctness test here shares. The entries keep their plaintext vectors so
// tests can refine candidate sets to exact answers.
func buildPlain(t *testing.T, d *dataset.Dataset, k, fanout int) (*Index, *Model) {
	t.Helper()
	m, err := Train(TrainConfig{K: k, Seed: 77, Dist: d.Dist}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(Config{NumCentroids: k, Storage: mindex.StorageMemory, Fanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ps := m.PivotSet()
	entries := make([]mindex.Entry, len(d.Objects))
	for i, o := range d.Objects {
		dists := ps.Distances(o.Vec)
		j, _ := nearest(m.Dist, m.Centroids, o.Vec)
		entries[i] = mindex.Entry{ID: o.ID, Perm: []int32{int32(j)}, Dists: dists, Vec: o.Vec.Clone()}
	}
	if err := ix.Insert(entries); err != nil {
		t.Fatal(err)
	}
	return ix, m
}

func bruteRange(d *dataset.Dataset, q metric.Vector, r float64) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, o := range d.Objects {
		if d.Dist.Dist(q, o.Vec) <= r {
			out[o.ID] = true
		}
	}
	return out
}

func TestNewValidatesConfig(t *testing.T) {
	bad := []Config{
		{NumCentroids: 0, Storage: mindex.StorageMemory},
		{NumCentroids: 4, Storage: mindex.StorageDisk}, // no path
		{NumCentroids: 4, Storage: mindex.StorageKind(99)},
		{NumCentroids: 4, Storage: mindex.StorageMemory, Fanout: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	ix, err := New(Config{NumCentroids: 3, Storage: mindex.StorageMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	good := func(id uint64, cell int32) mindex.Entry {
		return mindex.Entry{ID: id, Perm: []int32{cell}, Dists: []float64{1, 2, 3}}
	}
	if err := ix.Insert([]mindex.Entry{{ID: 1, Dists: []float64{1, 2, 3}}}); err == nil {
		t.Fatal("entry without routing prefix accepted")
	}
	if err := ix.Insert([]mindex.Entry{{ID: 1, Perm: []int32{3}, Dists: []float64{1, 2, 3}}}); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if err := ix.Insert([]mindex.Entry{{ID: 1, Perm: []int32{0}, Dists: []float64{1, 2}}}); err == nil {
		t.Fatal("short distance vector accepted")
	}
	if err := ix.Insert([]mindex.Entry{good(1, 0), good(1, 1)}); err == nil {
		t.Fatal("in-batch duplicate accepted")
	}
	if ix.Size() != 0 {
		t.Fatalf("rejected batches changed size to %d", ix.Size())
	}
	if err := ix.Insert([]mindex.Entry{good(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert([]mindex.Entry{good(1, 2)}); err == nil {
		t.Fatal("live duplicate accepted")
	}
	if n, err := ix.Delete([]mindex.Entry{{ID: 1}}); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := ix.Insert([]mindex.Entry{good(1, 0)}); err == nil {
		t.Fatal("tombstoned duplicate accepted")
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	d := dataset.Clustered(11, 400, 10, 8, metric.L2{})
	ix, m := buildPlain(t, d, 8, 0)
	ps := m.PivotSet()
	for qi := 0; qi < 25; qi++ {
		q := d.Objects[qi*7].Vec
		for _, r := range []float64{0.5, 2, 5, 12} {
			want := bruteRange(d, q, r)
			cands, err := ix.RangeByDists(ps.Distances(q), r)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]bool)
			for _, e := range cands {
				if d.Dist.Dist(q, e.Vec) <= r { // client-side refine
					got[e.ID] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("q=%d r=%g: refined %d results, brute force %d", qi, r, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("q=%d r=%g: true result %d dismissed", qi, r, id)
				}
			}
		}
	}
}

func TestRangeRejectsBadArgs(t *testing.T) {
	d := dataset.Clustered(12, 50, 4, 2, metric.L2{})
	ix, m := buildPlain(t, d, 2, 0)
	if _, err := ix.RangeByDists([]float64{1}, 1); err == nil {
		t.Fatal("short query vector accepted")
	}
	if _, err := ix.RangeByDists(m.PivotSet().Distances(d.Objects[0].Vec), -1); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestApproxRankedOrderAndBudget(t *testing.T) {
	d := dataset.Clustered(13, 300, 8, 6, metric.L2{})
	ix, m := buildPlain(t, d, 6, 0)
	qDists := m.PivotSet().Distances(d.Objects[5].Vec)
	rcs, err := ix.ApproxRanked(qDists, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcs) != 40 {
		t.Fatalf("got %d candidates, want exactly 40", len(rcs))
	}
	for i := 1; i < len(rcs); i++ {
		if rcs[i].Promise < rcs[i-1].Promise {
			t.Fatalf("promise decreased at %d: %g after %g", i, rcs[i].Promise, rcs[i-1].Promise)
		}
	}
	for _, rc := range rcs {
		if len(rc.Prefix) != 1 || rc.Prefix[0] != rc.Entry.Perm[0] {
			t.Fatalf("candidate prefix %v does not name its cell %d", rc.Prefix, rc.Entry.Perm[0])
		}
		if rc.Promise != qDists[rc.Prefix[0]] {
			t.Fatalf("promise %g is not the cell distance %g", rc.Promise, qDists[rc.Prefix[0]])
		}
	}
	// Determinism.
	again, err := ix.ApproxRanked(qDists, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rcs {
		if rcs[i].Entry.ID != again[i].Entry.ID {
			t.Fatalf("candidate order not deterministic at %d", i)
		}
	}
	if _, err := ix.ApproxRanked(qDists, 0); err == nil {
		t.Fatal("zero candidate size accepted")
	}
	// A hostile candidate size (a gateway cand_size reaches this line) must
	// return what the index holds, not size a 2^31-element allocation.
	everything, err := ix.ApproxRanked(qDists, 1<<31)
	if err != nil || len(everything) != len(d.Objects) {
		t.Fatalf("candSize 2^31: got %d candidates, %v; want all %d", len(everything), err, len(d.Objects))
	}
}

func TestApproxFanoutBound(t *testing.T) {
	d := dataset.Clustered(14, 300, 8, 6, metric.L2{})
	ix, m := buildPlain(t, d, 6, 1) // may visit only the single nearest cell
	qDists := m.PivotSet().Distances(d.Objects[0].Vec)
	rcs, err := ix.ApproxRanked(qDists, len(d.Objects))
	if err != nil {
		t.Fatal(err)
	}
	if len(rcs) == 0 {
		t.Fatal("no candidates from the nearest cell")
	}
	first := rcs[0].Prefix[0]
	for _, rc := range rcs {
		if rc.Prefix[0] != first {
			t.Fatalf("fanout 1 visited a second cell %d", rc.Prefix[0])
		}
	}
	got, _, prefix, err := ix.FirstCellRanked(qDists)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 1 || prefix[0] != first {
		t.Fatalf("FirstCellRanked picked cell %v, fanout-1 approx picked %d", prefix, first)
	}
	if len(got) != len(rcs) {
		t.Fatalf("FirstCellRanked returned %d entries, fanout-1 approx %d", len(got), len(rcs))
	}
}

func TestDeleteHidesEverywhere(t *testing.T) {
	d := dataset.Clustered(15, 200, 6, 4, metric.L2{})
	ix, m := buildPlain(t, d, 4, 0)
	ps := m.PivotSet()
	victim := d.Objects[17]
	if n, err := ix.Delete([]mindex.Entry{{ID: victim.ID}}); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if ix.Size() != len(d.Objects)-1 || ix.Dead() != 1 {
		t.Fatalf("size/dead = %d/%d", ix.Size(), ix.Dead())
	}
	// Unknown and repeated deletes are no-ops.
	if n, err := ix.Delete([]mindex.Entry{{ID: victim.ID}, {ID: 999999}}); err != nil || n != 0 {
		t.Fatalf("repeat delete = %d, %v", n, err)
	}
	qDists := ps.Distances(victim.Vec)
	cands, err := ix.RangeByDists(qDists, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cands {
		if e.ID == victim.ID {
			t.Fatal("tombstoned entry surfaced in range search")
		}
	}
	rcs, err := ix.ApproxRanked(qDists, len(d.Objects))
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range rcs {
		if rc.Entry.ID == victim.ID {
			t.Fatal("tombstoned entry surfaced in approx search")
		}
	}
	entries, _, _, err := ix.FirstCellRanked(qDists)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.ID == victim.ID {
			t.Fatal("tombstoned entry surfaced in first-cell search")
		}
	}
}

func TestStatsShape(t *testing.T) {
	d := dataset.Clustered(16, 120, 6, 3, metric.L2{})
	ix, _ := buildPlain(t, d, 3, 0)
	s := ix.Stats()
	if s.Cells != 3 || s.Live != 120 || s.Dead != 0 || s.TotalStored != 120 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxCell < (120+2)/3 {
		t.Fatalf("max cell %d below the pigeonhole floor", s.MaxCell)
	}
	entries, bytes := ix.IngestStats()
	if entries != 120 || bytes == 0 {
		t.Fatalf("ingest stats = %d entries, %d bytes", entries, bytes)
	}
	if _, _, ok := ix.CacheStats(); ok {
		t.Fatal("memory store reported a disk cache")
	}
}

func TestConcurrentInsertSearch(t *testing.T) {
	d := dataset.Clustered(17, 600, 8, 5, metric.L2{})
	m, err := Train(TrainConfig{K: 5, Seed: 77, Dist: d.Dist}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(Config{NumCentroids: 5, Storage: mindex.StorageMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ps := m.PivotSet()
	mkEntry := func(o metric.Object) mindex.Entry {
		j, _ := nearest(m.Dist, m.Centroids, o.Vec)
		return mindex.Entry{ID: o.ID, Perm: []int32{int32(j)}, Dists: ps.Distances(o.Vec), Vec: o.Vec.Clone()}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 150; i < (w+1)*150; i += 10 {
				batch := make([]mindex.Entry, 0, 10)
				for _, o := range d.Objects[i : i+10] {
					batch = append(batch, mkEntry(o))
				}
				if err := ix.Insert(batch); err != nil {
					panic(fmt.Sprintf("insert: %v", err))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qDists := ps.Distances(d.Objects[r].Vec)
			for i := 0; i < 50; i++ {
				if _, err := ix.RangeByDists(qDists, 3); err != nil {
					panic(fmt.Sprintf("range: %v", err))
				}
				if _, err := ix.ApproxRanked(qDists, 64); err != nil {
					panic(fmt.Sprintf("approx: %v", err))
				}
				ix.Stats()
			}
		}(r)
	}
	wg.Wait()
	if ix.Size() != 600 {
		t.Fatalf("size = %d after concurrent load", ix.Size())
	}
}
