package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
)

// The plain deployment's index is a DirectClient over the raw codec. These
// tests hold its precise k-NN — core's one exact k-NN, the bound page then
// the range after it — to brute force, the checks the deleted server-side
// best-first walk had.

// rawDirect is the plain server's backend over cfg and pv with objs indexed,
// as the DirectClient it drives.
func rawDirect(t *testing.T, cfg mindex.Config, pv *pivot.Set, objs []metric.Object) *DirectClient {
	t.Helper()
	b, err := NewPlainBackend(cfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Engine().Close() })
	if _, err := b.Insert(objs); err != nil {
		t.Fatal(err)
	}
	return b.c
}

// bruteForceKNN is the reference answer: every live entry of c's engine (a
// KindAll search) opened and measured one by one, the k nearest by
// (distance, ID).
func bruteForceKNN(t *testing.T, c *DirectClient, q metric.Vector, k int) []Result {
	t.Helper()
	all, err := c.eng.Search(mindex.Query{Kind: mindex.KindAll})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(all))
	for i, rc := range all {
		o, err := secret.DecodeObject(rc.Entry.Payload())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Result{ID: o.ID, Dist: c.key.Pivots().Dist.Dist(q, o.Vec), Object: o}
	}
	slices.SortFunc(out, compareResults)
	return out[:min(k, len(out))]
}

// checkKNN runs a precise k-NN on c and compares it with brute force, ties
// included: both are in (distance, ID) order.
func checkKNN(t *testing.T, c *DirectClient, q metric.Vector, k int, what string) {
	t.Helper()
	got, _, err := c.Search(context.Background(), Query{Kind: KindKNN, Vec: q, K: k})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if d := diffResults(bruteForceKNN(t, c, q, k), got); d != "" {
		t.Fatalf("%s, k=%d: precise k-NN differs from brute force: %s", what, k, d)
	}
}

// TestExactKNNEqualsBruteForce: on memory and disk storage, at one shard and
// at four, the precise k-NN over the raw codec returns exactly the k nearest.
func TestExactKNNEqualsBruteForce(t *testing.T) {
	ds := dataset.Clustered(4, 1200, 5, 8, metric.L2{})
	pv := pivot.SelectRandom(rand.New(rand.NewPCG(4, 99)), ds.Dist, ds.Objects, testPivotCount)
	for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", storage, shards), func(t *testing.T) {
				cfg := testConfig()
				cfg.Storage, cfg.Shards = storage, shards
				if storage == mindex.StorageDisk {
					cfg.DiskPath = t.TempDir()
				}
				c := rawDirect(t, cfg, pv, ds.Objects)
				rng := rand.New(rand.NewPCG(6, 6))
				for qi := range 25 {
					checkKNN(t, c, ds.Objects[rng.IntN(len(ds.Objects))].Vec, 1+rng.IntN(20), fmt.Sprintf("query %d", qi))
				}
			})
		}
	}
}

// TestExactKNNRandomConfigs: the same, for arbitrary (sane) index
// parameters — pivot count, depth, bucket capacity and ranking drawn at
// random.
func TestExactKNNRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xC0FFEE, 1))
	for trial := range 12 {
		nPivots := 3 + rng.IntN(14)
		cfg := mindex.Config{
			NumPivots:      nPivots,
			MaxLevel:       1 + rng.IntN(nPivots),
			BucketCapacity: 1 + rng.IntN(60),
			Storage:        mindex.StorageMemory,
			Ranking:        []mindex.RankStrategy{mindex.RankFootrule, mindex.RankDistSum}[rng.IntN(2)],
		}
		n := 100 + rng.IntN(500)
		ds := dataset.Clustered(uint64(trial)+100, n, 2+rng.IntN(8), 1+rng.IntN(6), metric.L2{})
		c := rawDirect(t, cfg, pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots), ds.Objects)
		checkKNN(t, c, ds.Objects[rng.IntN(n)].Vec, 1+rng.IntN(12), fmt.Sprintf("trial %d cfg %+v", trial, cfg))
	}
}

// TestExactKNNBesideInserts: searches of every kind run while objects are
// inserted one by one (run under -race in CI); afterwards the index holds
// everything and the precise k-NN is exact.
func TestExactKNNBesideInserts(t *testing.T) {
	ds := dataset.Clustered(321, 2000, 4, 6, metric.L2{})
	pv := pivot.SelectRandom(rand.New(rand.NewPCG(321, 1)), ds.Dist, ds.Objects, testPivotCount)
	c := rawDirect(t, testConfig(), pv, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, o := range ds.Objects {
			if _, err := c.Insert([]metric.Object{o}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
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
				v := ds.Objects[qrng.IntN(len(ds.Objects))].Vec
				for _, q := range []Query{
					{Kind: KindRange, Vec: v, Radius: 5},
					{Kind: KindApproxKNN, Vec: v, K: 5, CandSize: 50},
					{Kind: KindKNN, Vec: v, K: 5},
				} {
					if _, _, err := c.Search(context.Background(), q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if c.eng.Size() != len(ds.Objects) {
		t.Fatalf("size = %d, want %d", c.eng.Size(), len(ds.Objects))
	}
	checkKNN(t, c, ds.Objects[0].Vec, 5, "after the inserts")
}

// TestPlainBackendPivotMismatch: a pivot set of another size than the
// configuration's is refused at construction.
func TestPlainBackendPivotMismatch(t *testing.T) {
	ds := dataset.Clustered(11, 50, 3, 2, metric.L1{})
	pv := pivot.SelectRandom(rand.New(rand.NewPCG(11, 11)), ds.Dist, ds.Objects, 5)
	if _, err := NewPlainBackend(testConfig(), pv); err == nil {
		t.Fatal("pivot-count mismatch accepted")
	}
}

// TestPlainServerStoresPlaintext is the positive control of
// TestEncryptedServerSeesNoPlaintext: every payload a plain server stores
// decodes, without any key, to the object inserted.
func TestPlainServerStoresPlaintext(t *testing.T) {
	ds := dataset.Clustered(43, 300, 6, 8, metric.L2{})
	pv := pivot.SelectRandom(rand.New(rand.NewPCG(43, 1)), ds.Dist, ds.Objects, testPivotCount)
	srv := startPlain(t, testConfig(), pv)
	client, err := DialPlain(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	entries, err := srv.Index().AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ds.Objects) {
		t.Fatalf("server holds %d entries, want %d", len(entries), len(ds.Objects))
	}
	for _, e := range entries {
		o, err := secret.DecodeObject(e.Payload)
		if err != nil {
			t.Fatalf("entry %d: payload is not an object's plaintext: %v", e.ID, err)
		}
		if want := ds.Objects[e.ID]; o.ID != want.ID || !o.Vec.Equal(want.Vec) {
			t.Fatalf("entry %d decodes to object %d %v, want %v", e.ID, o.ID, o.Vec, want.Vec)
		}
	}
}
