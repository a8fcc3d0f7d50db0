package kmeans

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/engine"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
)

// The family has no index of its own: these tests pin the contract of the
// M-Index configuration Config.IndexConfig returns — one level of centroid
// cells — over entries shaped like the client coder ships them.

// familyEntries shapes the collection the way the family's coder does: the
// one-element prefix names the nearest centroid, the distance vector holds
// every centroid distance. The payloads are the objects' plaintext
// encodings, so tests can refine candidate sets to exact answers.
func familyEntries(m *Model, objs []metric.Object) []mindex.Entry {
	ps := m.PivotSet()
	entries := make([]mindex.Entry, len(objs))
	for i, o := range objs {
		j, _ := nearest(m.Dist, m.Centroids, o.Vec)
		entries[i] = mindex.Entry{ID: o.ID, Perm: []int32{int32(j)}, Dists: ps.Distances(o.Vec), Payload: secret.EncodeObject(o)}
	}
	return entries
}

// buildPlain trains a model on the collection and loads the family's index
// with untransformed centroid distances — the plain-space fixture every
// correctness test here shares.
func buildPlain(t *testing.T, d *dataset.Dataset, cfg Config) (*engine.ShardedIndex, *Model) {
	t.Helper()
	m, err := Train(TrainConfig{K: cfg.NumCentroids, Seed: 77, Dist: d.Dist}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg.IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.InsertBulk(familyEntries(m, d.Objects)); err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func memConfig(k int) Config { return Config{NumCentroids: k, Storage: mindex.StorageMemory} }

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
	}
	for i, cfg := range bad {
		if eng, err := engine.New(cfg.IndexConfig()); err == nil {
			eng.Close()
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestInsertValidation: the family's index enforces the M-Index entry rules
// — a routing prefix naming a cell, a full distance vector, no live
// duplicate — and re-inserting a deleted ID purges its dead twin.
func TestInsertValidation(t *testing.T) {
	eng, err := engine.New(memConfig(3).IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	good := func(id uint64, cell int32) mindex.Entry {
		return mindex.Entry{ID: id, Perm: []int32{cell}, Dists: []float64{1, 2, 3}}
	}
	for name, e := range map[string]mindex.Entry{
		"no routing prefix":     {ID: 1, Dists: []float64{1, 2, 3}},
		"out-of-range cell":     {ID: 1, Perm: []int32{3}, Dists: []float64{1, 2, 3}},
		"short distance vector": {ID: 1, Perm: []int32{0}, Dists: []float64{1, 2}},
	} {
		if err := eng.InsertBulk([]mindex.Entry{e}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if eng.Size() != 0 {
		t.Fatalf("rejected entries changed size to %d", eng.Size())
	}
	if err := eng.InsertBulk([]mindex.Entry{good(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBulk([]mindex.Entry{good(1, 2)}); !errors.Is(err, mindex.ErrDuplicateID) {
		t.Fatalf("live duplicate: err = %v, want ErrDuplicateID", err)
	}
	if n, err := eng.Delete([]mindex.Entry{good(1, 0)}); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := eng.InsertBulk([]mindex.Entry{good(1, 2)}); err != nil {
		t.Fatalf("re-insert of a deleted ID: %v", err)
	}
	if eng.Size() != 1 || eng.Dead() != 0 {
		t.Fatalf("after purge-and-insert size/dead = %d/%d, want 1/0", eng.Size(), eng.Dead())
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	d := dataset.Clustered(11, 400, 10, 8, metric.L2{})
	eng, m := buildPlain(t, d, memConfig(8))
	ps := m.PivotSet()
	for qi := 0; qi < 25; qi++ {
		q := d.Objects[qi*7].Vec
		for _, r := range []float64{0.5, 2, 5, 12} {
			want := bruteRange(d, q, r)
			cands, err := eng.RangeByDists(ps.Distances(q), r)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]bool)
			for _, e := range cands {
				o, err := secret.DecodeObject(e.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if d.Dist.Dist(q, o.Vec) <= r { // client-side refine
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
	eng, m := buildPlain(t, d, memConfig(2))
	if _, err := eng.RangeByDists([]float64{1}, 1); err == nil {
		t.Fatal("short query vector accepted")
	}
	if _, err := eng.RangeByDists(m.PivotSet().Distances(d.Objects[0].Vec), -1); err == nil {
		t.Fatal("negative radius accepted")
	}
}

// TestApproxRankedOrderAndBudget: the approximate stream is promise-ordered,
// every candidate's promise is its cell's centroid distance and its prefix
// the one-element cell path, and the list is trimmed to the budget.
func TestApproxRankedOrderAndBudget(t *testing.T) {
	d := dataset.Clustered(13, 300, 8, 6, metric.L2{})
	eng, m := buildPlain(t, d, memConfig(6))
	qDists := m.PivotSet().Distances(d.Objects[5].Vec)
	rcs, err := eng.ApproxCandidatesRanked(mindex.ApproxQuery{Dists: qDists}, 40)
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
		if len(rc.Prefix) != 1 || rc.Prefix[0] != rc.Entry.Decode().Perm[0] {
			t.Fatalf("candidate prefix %v does not name its cell %d", rc.Prefix, rc.Entry.Decode().Perm[0])
		}
		if rc.Promise != qDists[rc.Prefix[0]] {
			t.Fatalf("promise %g is not the cell distance %g", rc.Promise, qDists[rc.Prefix[0]])
		}
	}
	// Determinism.
	again, err := eng.ApproxCandidatesRanked(mindex.ApproxQuery{Dists: qDists}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rcs {
		if rcs[i].Entry.ID != again[i].Entry.ID {
			t.Fatalf("candidate order not deterministic at %d", i)
		}
	}
	if _, err := eng.ApproxCandidatesRanked(mindex.ApproxQuery{Dists: qDists}, 0); err == nil {
		t.Fatal("zero candidate size accepted")
	}
}

func TestDeleteHidesEverywhere(t *testing.T) {
	d := dataset.Clustered(15, 200, 6, 4, metric.L2{})
	eng, m := buildPlain(t, d, memConfig(4))
	ref := familyEntries(m, d.Objects[17:18])
	victim := ref[0]
	if n, err := eng.Delete(ref); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if eng.Size() != len(d.Objects)-1 || eng.Dead() != 1 {
		t.Fatalf("size/dead = %d/%d", eng.Size(), eng.Dead())
	}
	// Unknown and repeated deletes are no-ops.
	if n, err := eng.Delete([]mindex.Entry{victim, {ID: 999999, Perm: []int32{0}}}); err != nil || n != 0 {
		t.Fatalf("repeat delete = %d, %v", n, err)
	}
	q := mindex.ApproxQuery{Dists: victim.Dists}
	for _, mq := range []mindex.Query{
		{Kind: mindex.KindRange, ApproxQuery: q, Radius: 0.1},
		{Kind: mindex.KindApprox, ApproxQuery: q, CandSize: len(d.Objects)},
		{Kind: mindex.KindFirstCell, ApproxQuery: q},
	} {
		cands, err := eng.Search(mq)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range cands {
			if rc.Entry.ID == victim.ID {
				t.Fatalf("deleted entry surfaced in kind %d search", mq.Kind)
			}
		}
	}
}

// TestStatsShape: one inner node (the root, split on the first insert)
// over one leaf per centroid cell.
func TestStatsShape(t *testing.T) {
	d := dataset.Clustered(16, 120, 6, 3, metric.L2{})
	eng, _ := buildPlain(t, d, memConfig(3))
	es := eng.Stats()
	s := es.Total
	if s.Leaves != 3 || s.InnerNodes != 1 || s.MaxDepth != 1 || s.Entries != 120 || s.Dead != 0 || s.TotalBucket != 120 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxBucket < (120+2)/3 {
		t.Fatalf("max cell %d below the pigeonhole floor", s.MaxBucket)
	}
	if es.Ingest.Entries != 120 || es.Ingest.Bytes == 0 {
		t.Fatalf("ingest stats = %+v", es.Ingest)
	}
	if es.CacheHits != 0 || es.CacheMisses != 0 {
		t.Fatal("memory store reported a disk cache")
	}
}

func TestConcurrentInsertSearch(t *testing.T) {
	d := dataset.Clustered(17, 600, 8, 5, metric.L2{})
	m, err := Train(TrainConfig{K: 5, Seed: 77, Dist: d.Dist}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(memConfig(5).IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ps := m.PivotSet()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 150; i < (w+1)*150; i += 10 {
				if err := eng.InsertBulk(familyEntries(m, d.Objects[i:i+10])); err != nil {
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
				if _, err := eng.RangeByDists(qDists, 3); err != nil {
					panic(fmt.Sprintf("range: %v", err))
				}
				if _, err := eng.ApproxCandidatesRanked(mindex.ApproxQuery{Dists: qDists}, 64); err != nil {
					panic(fmt.Sprintf("approx: %v", err))
				}
				eng.Stats()
			}
		}(r)
	}
	wg.Wait()
	if eng.Size() != 600 {
		t.Fatalf("size = %d after concurrent load", eng.Size())
	}
}
