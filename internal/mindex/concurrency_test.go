package mindex

import (
	"math/rand/v2"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// Random-config property test: for arbitrary (sane) index parameters, the
// fundamental invariants must hold — range ≡ linear scan, tree bounded by
// MaxLevel. This catches interactions between bucket capacity, pivot count
// and split depth that fixed-config tests would miss. (core's
// TestExactKNNRandomConfigs holds the precise k-NN to brute force over
// configurations drawn the same way.)
func TestQuickRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xC0FFEE, 1))
	for trial := range 12 {
		nPivots := 3 + rng.IntN(14)
		cfg := Config{
			NumPivots:      nPivots,
			MaxLevel:       1 + rng.IntN(nPivots),
			BucketCapacity: 1 + rng.IntN(60),
			Storage:        StorageMemory,
			Ranking:        []RankStrategy{RankFootrule, RankDistSum}[rng.IntN(2)],
		}
		n := 100 + rng.IntN(500)
		dim := 2 + rng.IntN(8)
		ds := dataset.Clustered(uint64(trial)+100, n, dim, 1+rng.IntN(6), metric.L2{})
		pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots)
		p, err := newTestIndex(cfg, pv)
		if err != nil {
			t.Fatalf("trial %d cfg %+v: %v", trial, cfg, err)
		}
		if err := p.insert(ds.Objects...); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		st := p.idx.TreeStats()
		if st.Entries != n || st.TotalBucket != n {
			t.Fatalf("trial %d: stats %+v for %d objects", trial, st, n)
		}
		if st.MaxDepth > cfg.MaxLevel {
			t.Fatalf("trial %d: depth %d > MaxLevel %d", trial, st.MaxDepth, cfg.MaxLevel)
		}

		q := ds.Objects[rng.IntN(n)].Vec
		r := 1 + rng.Float64()*15
		got, err := p.rangeQuery(q, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 0
		for _, o := range ds.Objects {
			if ds.Dist.Dist(q, o.Vec) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d cfg %+v: range %d results, scan %d", trial, cfg, len(got), want)
		}
		p.idx.Close()
	}
}

// Concurrent inserts and searches must not corrupt the index (run under
// -race in CI). Readers may see a prefix of the inserts, never torn state.
// core's TestExactKNNBesideInserts runs the precise k-NN the same way.
func TestConcurrentInsertAndSearch(t *testing.T) {
	ds := dataset.Clustered(321, 2000, 4, 6, metric.L2{})
	rng := rand.New(rand.NewPCG(321, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 8)
	p, err := newTestIndex(testConfig(8), pv)
	if err != nil {
		t.Fatal(err)
	}
	defer p.idx.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: inserts everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, o := range ds.Objects {
			if err := p.insert(o); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: hammer searches while the writer runs.
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qrng := rand.New(rand.NewPCG(uint64(w), 2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := ds.Objects[qrng.IntN(len(ds.Objects))].Vec
				if _, err := p.rangeQuery(q, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.approxKNN(q, 5, 50); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Afterwards the index must hold everything and answer exactly.
	if p.idx.Size() != len(ds.Objects) {
		t.Fatalf("size = %d, want %d", p.idx.Size(), len(ds.Objects))
	}
	q := ds.Objects[0].Vec
	got, err := p.rangeQuery(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, o := range ds.Objects {
		if ds.Dist.Dist(q, o.Vec) <= 5 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("post-concurrency range: %d results, scan %d", len(got), want)
	}
}

// Duplicate objects (identical vectors) must all be indexed and all be
// returned by a radius-0 query — degenerate data is common in real
// collections (the near-duplicate images the paper's CoPhIR holds).
func TestDuplicateObjects(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	vecs := make([]metric.Vector, 5)
	for i := range vecs {
		v := make(metric.Vector, 4)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = v
	}
	var objs []metric.Object
	for i := range 100 {
		objs = append(objs, metric.Object{ID: uint64(i), Vec: vecs[i%len(vecs)].Clone()})
	}
	pv := pivot.NewSet(metric.L2{}, vecs)
	p, err := newTestIndex(Config{
		NumPivots: 5, MaxLevel: 3, BucketCapacity: 4,
		Storage: StorageMemory, Ranking: RankFootrule,
	}, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer p.idx.Close()
	if err := p.insert(objs...); err != nil {
		t.Fatal(err)
	}
	got, err := p.rangeQuery(vecs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("radius-0 over 20 duplicates returned %d", len(got))
	}
}
