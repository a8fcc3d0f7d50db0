package baseline

import (
	"context"
	"math/rand/v2"
	"sort"
	"testing"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
)

// testEnv is a running encrypted-deployment server plus the shared key and
// a data set — the substrate all baselines run against.
type testEnv struct {
	addr string
	key  *secret.Key
	ds   *dataset.Dataset
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	ds := dataset.Clustered(77, 600, 5, 6, metric.L2{})
	rng := rand.New(rand.NewPCG(77, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 8)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewEncrypted(mindex.Config{
		NumPivots: 8, MaxLevel: 3, BucketCapacity: 30,
		Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &testEnv{addr: srv.Addr(), key: key, ds: ds}
}

func bruteKNN(ds *dataset.Dataset, q metric.Vector, k int) []core.Result {
	out := make([]core.Result, 0, len(ds.Objects))
	for _, o := range ds.Objects {
		out = append(out, core.Result{ID: o.ID, Dist: ds.Dist.Dist(q, o.Vec), Object: o})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestEHINodeCodecRoundTrip(t *testing.T) {
	leaf := &ehiNode{Leaf: true, Objects: []metric.Object{
		{ID: 1, Vec: metric.Vector{1, 2}}, {ID: 2, Vec: metric.Vector{3, 4}},
	}}
	got, err := decodeEHINode(encodeEHINode(leaf))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Leaf || len(got.Objects) != 2 || got.Objects[1].ID != 2 {
		t.Fatalf("leaf round trip: %+v", got)
	}
	inner := &ehiNode{Routing: []ehiRouting{
		{Center: metric.Vector{1}, Radius: 2.5, Child: 7},
	}}
	got, err = decodeEHINode(encodeEHINode(inner))
	if err != nil {
		t.Fatal(err)
	}
	if got.Leaf || len(got.Routing) != 1 || got.Routing[0].Child != 7 || got.Routing[0].Radius != 2.5 {
		t.Fatalf("inner round trip: %+v", got)
	}
	if _, err := decodeEHINode([]byte{1, 2}); err == nil {
		t.Fatal("garbage node accepted")
	}
}

func TestEHIBuildValidation(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(1, 1))
	if _, _, err := EHIBuild(rng, env.ds.Dist, env.ds.Objects, env.key, 1, 10); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, _, err := EHIBuild(rng, env.ds.Dist, env.ds.Objects, env.key, 4, 0); err == nil {
		t.Fatal("leaf capacity 0 accepted")
	}
}

func TestEHIKNNExact(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(2, 2))
	root, nodes, err := EHIBuild(rng, env.ds.Dist, env.ds.Objects, env.key, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialEHI(env.addr, env.key, env.ds.Dist)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Upload(root, nodes); err != nil {
		t.Fatal(err)
	}
	for trial := range 8 {
		q := env.ds.Objects[rng.IntN(len(env.ds.Objects))].Vec
		k := 1 + trial
		got, costs, err := c.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(env.ds, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d rank %d: %g vs %g", k, i, got[i].Dist, want[i].Dist)
			}
		}
		// EHI pays one round trip per visited node — always more than one.
		if costs.RoundTrips < 2 {
			t.Fatalf("EHI used %d round trips", costs.RoundTrips)
		}
		if costs.DecryptTime <= 0 {
			t.Fatal("no decryption time recorded")
		}
	}
}

func TestEHIRangeExact(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(3, 3))
	root, nodes, err := EHIBuild(rng, env.ds.Dist, env.ds.Objects, env.key, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialEHI(env.addr, env.key, env.ds.Dist)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Upload(root, nodes); err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{1, 5, 12} {
		q := env.ds.Objects[rng.IntN(len(env.ds.Objects))].Vec
		got, _, err := c.Range(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, o := range env.ds.Objects {
			if env.ds.Dist.Dist(q, o.Vec) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("r=%g: got %d results, want %d", r, len(got), want)
		}
	}
}

func TestEHIServerStoresOnlyCiphertext(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(4, 4))
	_, nodes, err := EHIBuild(rng, env.ds.Dist, env.ds.Objects, env.key, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Every node blob must decrypt only under the right key.
	other, err := secret.Generate(env.key.Pivots(), secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if _, err := other.Open(n.Data); err == nil {
			t.Fatal("EHI node decrypts under a foreign key")
		}
		if _, err := env.key.Open(n.Data); err != nil {
			t.Fatalf("EHI node fails under its own key: %v", err)
		}
	}
}

func TestFDHSignatureAndParams(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(5, 5))
	p, err := NewFDHParams(rng, env.ds.Dist, env.ds.Objects, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Anchors) != 12 || len(p.Radii) != 12 {
		t.Fatalf("params: %d anchors, %d radii", len(p.Anchors), len(p.Radii))
	}
	// Median radii should make bits roughly balanced over the collection.
	ones := 0
	for _, o := range env.ds.Objects {
		ones += SignatureBits(p.Signature(o.Vec))
	}
	avg := float64(ones) / float64(len(env.ds.Objects)) / 12
	if avg < 0.2 || avg > 0.8 {
		t.Fatalf("signature bits unbalanced: average fraction %g", avg)
	}
	if _, err := NewFDHParams(rng, env.ds.Dist, env.ds.Objects, 0); err == nil {
		t.Fatal("0 anchors accepted")
	}
	if _, err := NewFDHParams(rng, env.ds.Dist, env.ds.Objects, 65); err == nil {
		t.Fatal("65 anchors accepted")
	}
}

func TestKeysAtHamming(t *testing.T) {
	keys := keysAtHamming(0b1010, 4, 0)
	if len(keys) != 1 || keys[0] != 0b1010 {
		t.Fatalf("h=0: %v", keys)
	}
	keys = keysAtHamming(0b0000, 4, 1)
	if len(keys) != 4 {
		t.Fatalf("h=1 over 4 bits: %d keys", len(keys))
	}
	keys = keysAtHamming(0b0000, 4, 2)
	if len(keys) != 6 { // C(4,2)
		t.Fatalf("h=2 over 4 bits: %d keys", len(keys))
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatal("duplicate key")
		}
		seen[k] = true
		if SignatureBits(k) != 2 {
			t.Fatalf("key %b not at Hamming distance 2", k)
		}
	}
}

func TestFDHKNNApproximate(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(6, 6))
	p, err := NewFDHParams(rng, env.ds.Dist, env.ds.Objects, 10)
	if err != nil {
		t.Fatal(err)
	}
	items, err := FDHBuild(p, env.key, env.ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(env.ds.Objects) {
		t.Fatalf("built %d items", len(items))
	}
	c, err := DialFDH(env.addr, env.key, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Upload(items); err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	const queries = 20
	for range queries {
		q := env.ds.Objects[rng.IntN(len(env.ds.Objects))].Vec
		got, costs, err := c.KNN(q, 1, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("got %d results", len(got))
		}
		want := bruteKNN(env.ds, q, 1)
		if got[0].ID == want[0].ID {
			recallSum += 100
		}
		if costs.Candidates == 0 {
			t.Fatal("no candidates retrieved")
		}
	}
	// The query object itself shares its own bucket (Hamming distance 0), so
	// 1-NN recall on indexed queries must be high.
	if recallSum/queries < 75 {
		t.Fatalf("FDH 1-NN recall %g%% too low", recallSum/queries)
	}
}

func TestTrivialExactAndExpensive(t *testing.T) {
	env := newTestEnv(t)
	// Populate the encrypted store through the regular encrypted client.
	ec, err := core.DialEncrypted(env.addr, env.key, core.Options{MaxLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	if _, err := ec.Insert(env.ds.Objects); err != nil {
		t.Fatal(err)
	}

	tc, err := DialTrivial(env.addr, env.key)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	rng := rand.New(rand.NewPCG(7, 7))
	q := env.ds.Objects[rng.IntN(len(env.ds.Objects))].Vec

	got, costs, err := tc.KNN(q, env.ds.Dist, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(env.ds, q, 5)
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("rank %d: %g vs %g", i, got[i].Dist, want[i].Dist)
		}
	}
	// The whole collection must have crossed the wire.
	if costs.Candidates != int64(len(env.ds.Objects)) {
		t.Fatalf("downloaded %d of %d objects", costs.Candidates, len(env.ds.Objects))
	}

	rres, _, err := tc.Range(q, env.ds.Dist, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, o := range env.ds.Objects {
		if env.ds.Dist.Dist(q, o.Vec) <= 4 {
			wantN++
		}
	}
	if len(rres) != wantN {
		t.Fatalf("range: %d results, want %d", len(rres), wantN)
	}
}

// The headline comparison: the Encrypted M-Index must beat EHI on round
// trips and the trivial scheme on communication cost for the same query.
func TestBaselineCostOrdering(t *testing.T) {
	env := newTestEnv(t)
	rng := rand.New(rand.NewPCG(8, 8))

	ec, err := core.DialEncrypted(env.addr, env.key, core.Options{MaxLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	if _, err := ec.Insert(env.ds.Objects); err != nil {
		t.Fatal(err)
	}

	root, nodes, err := EHIBuild(rng, env.ds.Dist, env.ds.Objects, env.key, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	ehi, err := DialEHI(env.addr, env.key, env.ds.Dist)
	if err != nil {
		t.Fatal(err)
	}
	defer ehi.Close()
	if _, err := ehi.Upload(root, nodes); err != nil {
		t.Fatal(err)
	}

	tc, err := DialTrivial(env.addr, env.key)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	var mindexBytes, ehiTrips, mindexTrips, trivialBytes int64
	const queries = 10
	for range queries {
		q := env.ds.Objects[rng.IntN(len(env.ds.Objects))].Vec
		_, mc, err := ec.Search(context.Background(), core.Query{Kind: core.KindApproxKNN, Vec: q, K: 1, CandSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		_, hc, err := ehi.KNN(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, tcosts, err := tc.KNN(q, env.ds.Dist, 1)
		if err != nil {
			t.Fatal(err)
		}
		mindexBytes += mc.CommBytes()
		mindexTrips += mc.RoundTrips
		ehiTrips += hc.RoundTrips
		trivialBytes += tcosts.CommBytes()
	}
	if mindexTrips != queries {
		t.Fatalf("encrypted M-Index used %d round trips for %d queries", mindexTrips, queries)
	}
	if ehiTrips <= mindexTrips {
		t.Fatalf("EHI round trips (%d) not worse than M-Index (%d)", ehiTrips, mindexTrips)
	}
	if trivialBytes <= mindexBytes {
		t.Fatalf("trivial bytes (%d) not worse than M-Index (%d)", trivialBytes, mindexBytes)
	}
}
