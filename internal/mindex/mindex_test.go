package mindex

import (
	"math/rand/v2"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

func testConfig(nPivots int) Config {
	return Config{
		NumPivots:      nPivots,
		MaxLevel:       4,
		BucketCapacity: 20,
		Storage:        StorageMemory,
		Ranking:        RankFootrule,
	}
}

// buildPlain indexes a clustered data set and returns the index plus data.
func buildPlain(t *testing.T, seed uint64, n, dim, nPivots int) (*Plain, []metric.Object) {
	t.Helper()
	ds := dataset.Clustered(seed, n, dim, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(seed, 99))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots)
	p, err := NewPlain(testConfig(nPivots), pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Idx.Close() })
	if err := p.InsertBulk(ds.Objects); err != nil {
		t.Fatal(err)
	}
	return p, ds.Objects
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(8)
	if err := good.validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NumPivots = 0 },
		func(c *Config) { c.MaxLevel = 0 },
		func(c *Config) { c.MaxLevel = c.NumPivots + 1 },
		func(c *Config) { c.BucketCapacity = 0 },
		func(c *Config) { c.Storage = StorageKind(9) },
		func(c *Config) { c.Storage = StorageDisk; c.DiskPath = "" },
		func(c *Config) { c.Ranking = RankStrategy(9) },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	idx, err := New(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Insert(Entry{ID: 1, Perm: []int32{0, 1}}); err == nil {
		t.Error("short permutation accepted")
	}
	if err := idx.Insert(Entry{ID: 1, Perm: []int32{0, 1, 2, 99}}); err == nil {
		t.Error("out-of-range permutation element accepted")
	}
	if err := idx.Insert(Entry{ID: 1, Perm: []int32{0, 1, 2, 3}, Dists: []float64{1}}); err == nil {
		t.Error("wrong-length distance vector accepted")
	}
	if err := idx.Insert(Entry{ID: 1, Perm: []int32{0, 1, 2, 3}}); err != nil {
		t.Errorf("valid entry rejected: %v", err)
	}
	if idx.Size() != 1 {
		t.Errorf("size = %d, want 1", idx.Size())
	}
}

func TestTreeInvariants(t *testing.T) {
	p, objs := buildPlain(t, 1, 2000, 8, 10)
	ix := p.Idx
	st := ix.TreeStats()
	if st.Entries != len(objs) {
		t.Fatalf("stats entries = %d, want %d", st.Entries, len(objs))
	}
	if st.TotalBucket != len(objs) {
		t.Fatalf("bucket total = %d, want %d", st.TotalBucket, len(objs))
	}
	if st.Leaves < 2 {
		t.Fatalf("no splits happened: %d leaves", st.Leaves)
	}
	if st.MaxDepth > ix.cfg.MaxLevel {
		t.Fatalf("depth %d exceeds MaxLevel %d", st.MaxDepth, ix.cfg.MaxLevel)
	}

	// Walk the tree: every entry in every leaf must carry a permutation
	// prefix equal to the leaf's prefix, non-max-level leaves must respect
	// capacity, counts must match bucket sizes, and cell boxes must cover
	// every stored distance.
	seen := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			entries, err := viewEntries(ix.store.View(n.bucket))
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != n.count {
				t.Fatalf("leaf %v count %d, bucket holds %d", n.prefix, n.count, len(entries))
			}
			if n.level() < ix.cfg.MaxLevel && n.count > ix.cfg.BucketCapacity {
				t.Fatalf("leaf %v over capacity: %d > %d", n.prefix, n.count, ix.cfg.BucketCapacity)
			}
			if n.level() > 0 && n.box == nil {
				t.Fatalf("leaf %v lost its box although every entry carries distances", n.prefix)
			}
			for _, e := range entries {
				seen++
				for i, want := range n.prefix {
					if e.Perm[i] != want {
						t.Fatalf("entry %d perm %v does not match leaf prefix %v", e.ID, e.Perm, n.prefix)
					}
				}
				for p := range n.box.lo() {
					if d := e.Dists[p]; d < n.box.lo()[p] || d > n.box.hi()[p] {
						t.Fatalf("entry %d dist %g to pivot %d outside box [%g,%g]",
							e.ID, d, p, n.box.lo()[p], n.box.hi()[p])
					}
				}
			}
			return
		}
		childTotal := 0
		for i := range n.kids {
			key, c := n.kids[i].key, n.kids[i].n
			if i > 0 && key <= n.kids[i-1].key {
				t.Fatalf("node %v child table not strictly sorted at key %d", n.prefix, key)
			}
			if c.lastPivot() != key {
				t.Fatalf("child keyed %d has prefix %v", key, c.prefix)
			}
			if c.level() != n.level()+1 {
				t.Fatalf("child depth %d under parent depth %d", c.level(), n.level())
			}
			childTotal += c.count
			walk(c)
		}
		if childTotal != n.count {
			t.Fatalf("node %v count %d != sum of children %d", n.prefix, n.count, childTotal)
		}
	}
	walk(ix.state.Load().root)
	if seen != len(objs) {
		t.Fatalf("walked %d entries, want %d", seen, len(objs))
	}
}

// Range query must be exactly equivalent to a linear scan — the fundamental
// no-false-dismissal invariant of the metric pruning rules.
func TestRangeEqualsLinearScan(t *testing.T) {
	p, objs := buildPlain(t, 2, 1500, 6, 12)
	rng := rand.New(rand.NewPCG(5, 5))
	d := p.Pivots.Dist
	for trial := range 30 {
		q := objs[rng.IntN(len(objs))].Vec
		// Radii spanning empty to large result sets.
		r := []float64{0.1, 1, 3, 8, 20}[trial%5]
		got, err := p.Range(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]float64{}
		for _, o := range objs {
			if dist := d.Dist(q, o.Vec); dist <= r {
				want[o.ID] = dist
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d r=%g: index returned %d, scan %d", trial, r, len(got), len(want))
		}
		for _, res := range got {
			wd, ok := want[res.ID]
			if !ok {
				t.Fatalf("trial %d: spurious result %d", trial, res.ID)
			}
			if wd != res.Dist {
				t.Fatalf("trial %d: result %d dist %g, want %g", trial, res.ID, res.Dist, wd)
			}
		}
	}
}

func TestRangeValidation(t *testing.T) {
	p, _ := buildPlain(t, 3, 100, 4, 6)
	if _, err := p.Idx.RangeByDists([]float64{1, 2}, 1); err == nil {
		t.Error("wrong-length query distances accepted")
	}
	if _, err := p.Idx.RangeByDists(make([]float64, 6), -1); err == nil {
		t.Error("negative radius accepted")
	}
}

// Precise k-NN (best-first) must equal brute force.
func TestKNNEqualsBruteForce(t *testing.T) {
	p, objs := buildPlain(t, 4, 1200, 5, 10)
	rng := rand.New(rand.NewPCG(6, 6))
	for range 25 {
		q := objs[rng.IntN(len(objs))].Vec
		k := 1 + rng.IntN(20)
		got, err := p.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.BruteForceKNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			// Tied distances may legitimately swap objects; distances must match.
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d rank %d: dist %g, want %g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// The paper's two-phase precise k-NN (approximate then range ρk) must also
// be exact.
func TestKNNApproxRangeEqualsBruteForce(t *testing.T) {
	p, objs := buildPlain(t, 5, 800, 4, 8)
	rng := rand.New(rand.NewPCG(7, 7))
	for range 15 {
		q := objs[rng.IntN(len(objs))].Vec
		k := 1 + rng.IntN(10)
		got, err := p.KNNApproxRange(q, k, 50)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.BruteForceKNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d rank %d: %g vs %g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestKNNValidation(t *testing.T) {
	p, _ := buildPlain(t, 6, 100, 4, 6)
	q := make(metric.Vector, 4)
	if _, err := p.KNN(q, 0); err == nil {
		t.Error("k=0 accepted by KNN")
	}
	if _, err := p.ApproxKNN(q, 0, 10); err == nil {
		t.Error("k=0 accepted by ApproxKNN")
	}
	if _, err := p.KNNApproxRange(q, -1, 10); err == nil {
		t.Error("negative k accepted")
	}
}

// Approximate k-NN recall must grow with the candidate-set size and reach
// 100% when the candidate set covers the whole collection.
func TestApproxRecallMonotoneInCandSize(t *testing.T) {
	p, objs := buildPlain(t, 7, 1000, 6, 10)
	rng := rand.New(rand.NewPCG(8, 8))
	const k = 10
	sizes := []int{25, 100, 400, 1000}
	sumRecall := make([]float64, len(sizes))
	for range 20 {
		q := objs[rng.IntN(len(objs))].Vec
		exact, err := p.BruteForceKNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exactIDs := resultIDs(exact)
		for i, cs := range sizes {
			approx, err := p.ApproxKNN(q, k, cs)
			if err != nil {
				t.Fatal(err)
			}
			sumRecall[i] += recallOf(resultIDs(approx), exactIDs)
		}
	}
	for i := 1; i < len(sizes); i++ {
		if sumRecall[i] < sumRecall[i-1]-1e-9 {
			t.Fatalf("recall not monotone: %v for sizes %v", sumRecall, sizes)
		}
	}
	if sumRecall[len(sizes)-1] != 100*20 {
		t.Fatalf("full-collection candidate set recall = %g, want 100%%", sumRecall[len(sizes)-1]/20)
	}
}

func resultIDs(rs []Result) []uint64 {
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func recallOf(got, want []uint64) float64 {
	in := make(map[uint64]bool, len(got))
	for _, id := range got {
		in[id] = true
	}
	hit := 0
	for _, id := range want {
		if in[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want)) * 100
}

func TestApproxCandidatesExactSizeAndPreRanked(t *testing.T) {
	p, objs := buildPlain(t, 8, 900, 5, 10)
	q := objs[3].Vec
	qd := p.Pivots.Distances(q)
	aq := ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qd)), Dists: qd}
	for _, cs := range []int{1, 10, 150, 899, 5000} {
		cands, err := p.Idx.ApproxCandidates(aq, cs)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(cs, len(objs))
		if len(cands) != wantLen {
			t.Fatalf("candSize %d: got %d candidates, want %d", cs, len(cands), wantLen)
		}
	}
	if _, err := p.Idx.ApproxCandidates(aq, 0); err == nil {
		t.Error("candSize 0 accepted")
	}
	if _, err := p.Idx.ApproxCandidates(ApproxQuery{Ranks: []int32{0}}, 5); err == nil {
		t.Error("short rank vector accepted")
	}
}

func TestApproxDistSumStrategy(t *testing.T) {
	cfg := testConfig(10)
	cfg.Ranking = RankDistSum
	ds := dataset.Clustered(9, 600, 5, 6, metric.L2{})
	rng := rand.New(rand.NewPCG(9, 9))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 10)
	p, err := NewPlain(cfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Idx.Close()
	if err := p.InsertBulk(ds.Objects); err != nil {
		t.Fatal(err)
	}
	q := ds.Objects[0].Vec
	res, err := p.ApproxKNN(q, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	// With a third of the collection as candidates, the query object itself
	// (distance 0) must be found.
	if res[0].Dist != 0 {
		t.Fatalf("query object not found: nearest dist %g", res[0].Dist)
	}
	// Strategy validation: distsum without distances must fail.
	if _, err := p.Idx.ApproxCandidates(ApproxQuery{Ranks: make([]int32, 10)}, 5); err == nil {
		t.Error("distsum ranking accepted a query without distances")
	}
}

func TestFirstCellCandidates(t *testing.T) {
	p, objs := buildPlain(t, 10, 700, 5, 8)
	q := objs[10].Vec
	qd := p.Pivots.Distances(q)
	aq := ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qd)), Dists: qd}
	cands, err := p.Idx.FirstCellCandidates(aq)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates from first cell")
	}
	// A single cell is a small fraction of the collection (cells at depth
	// below MaxLevel respect the bucket capacity; max-depth cells may exceed
	// it but still hold far less than everything).
	if len(cands) >= p.Idx.Size()/2 {
		t.Fatalf("first cell returned %d of %d objects — not a single cell", len(cands), p.Idx.Size())
	}
	// All candidates must share the permutation prefix of one cell.
	first := cands[0].Perm
	for _, e := range cands {
		if e.Perm[0] != first[0] {
			t.Fatalf("candidates from different first-level cells: %v vs %v", e.Perm, first)
		}
	}
}

func TestEmptyIndexSearches(t *testing.T) {
	idx, err := New(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	got, err := idx.RangeByDists(make([]float64, 6), 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty range: %v, %d results", err, len(got))
	}
	cands, err := idx.ApproxCandidates(ApproxQuery{Ranks: make([]int32, 6)}, 5)
	if err != nil || len(cands) != 0 {
		t.Fatalf("empty approx: %v, %d candidates", err, len(cands))
	}
	first, err := idx.FirstCellCandidates(ApproxQuery{Ranks: make([]int32, 6)})
	if err != nil || first != nil {
		t.Fatalf("empty first cell: %v, %v", err, first)
	}
}

func TestPlainPivotMismatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	ds := dataset.Clustered(11, 50, 3, 2, metric.L1{})
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 5)
	if _, err := NewPlain(testConfig(8), pv); err == nil {
		t.Fatal("pivot-count mismatch accepted")
	}
}

// Entries without distance vectors disable ball bounds and pivot filtering
// but must never break correctness of approximate search.
func TestPermOnlyEntries(t *testing.T) {
	idx, err := New(testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewPCG(12, 12))
	for i := range 300 {
		dists := make([]float64, 6)
		for j := range dists {
			dists[j] = rng.Float64() * 100
		}
		perm := pivot.Permutation(dists)
		if err := idx.Insert(Entry{ID: uint64(i), Perm: perm}); err != nil {
			t.Fatal(err)
		}
	}
	qRanks := pivot.Ranks(pivot.Permutation([]float64{1, 2, 3, 4, 5, 6}))
	cands, err := idx.ApproxCandidates(ApproxQuery{Ranks: qRanks}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 50 {
		t.Fatalf("got %d candidates, want 50", len(cands))
	}
}
