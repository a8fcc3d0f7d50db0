package simcloud

import (
	"context"
	"testing"
)

// search evaluates one query without a deadline — what the tests used the
// removed per-kind convenience methods for.
func search(s Searcher, q Query) ([]Result, Costs, error) {
	return s.Search(context.Background(), q)
}

// TestFacadeEndToEnd exercises the documented public API exactly as the
// package comment advertises it.
func TestFacadeEndToEnd(t *testing.T) {
	ds := ClusteredData(1, 500, 8, 6, L2())
	pivots := SelectPivots(1, ds.Dist, ds.Objects, 12)
	key, err := GenerateKey(pivots)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewEncryptedServer(DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialEncrypted(srv.Addr(), key, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}

	q := ds.Objects[7].Vec
	results, costs, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: 5, CandSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Dist != 0 {
		t.Fatalf("query object not its own nearest neighbor: %g", results[0].Dist)
	}
	if costs.CommBytes() <= 0 || costs.DecryptTime <= 0 {
		t.Fatalf("implausible costs: %+v", costs)
	}

	// Precise search through the facade.
	precise, _, err := search(client, Query{Kind: KindKNN, Vec: q, K: 3, CandSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(precise) != 3 || precise[0].Dist != 0 {
		t.Fatalf("precise kNN: %+v", precise)
	}

	within, _, err := search(client, Query{Kind: KindRange, Vec: q, Radius: precise[2].Dist})
	if err != nil {
		t.Fatal(err)
	}
	if len(within) < 3 {
		t.Fatalf("range under ρ3 returned %d < 3 objects", len(within))
	}
}

func TestFacadeKeyRoundTrip(t *testing.T) {
	ds := ClusteredData(2, 50, 4, 3, L1())
	key, err := GenerateKey(SelectPivots(2, ds.Dist, ds.Objects, 8))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalKey(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pivots().N() != 8 {
		t.Fatalf("pivots = %d", got.Pivots().N())
	}
}

func TestFacadeDistances(t *testing.T) {
	a, b := Vector{0, 0}, Vector{3, 4}
	if got := L2().Dist(a, b); got != 5 {
		t.Fatalf("L2 = %g", got)
	}
	if got := L1().Dist(a, b); got != 7 {
		t.Fatalf("L1 = %g", got)
	}
	if got := Linf().Dist(a, b); got != 4 {
		t.Fatalf("Linf = %g", got)
	}
	if got := Lp(2).Dist(a, b); got != 5 {
		t.Fatalf("Lp(2) = %g", got)
	}
	if CoPhIR().Name() != "cophir" {
		t.Fatal("CoPhIR distance misnamed")
	}
	if _, err := DistanceByName("L1"); err != nil {
		t.Fatal(err)
	}
	if Recall([]uint64{1}, []uint64{1, 2}) != 50 {
		t.Fatal("recall through facade broken")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if Yeast().Size() != 2882 {
		t.Fatal("YEAST size")
	}
	if Human().Size() != 4026 {
		t.Fatal("HUMAN size")
	}
	if CoPhIRData(10).Size() != 10 {
		t.Fatal("CoPhIR size")
	}
}

func TestFacadeEqualizingTransform(t *testing.T) {
	ds := ClusteredData(9, 400, 6, 5, L2())
	key, err := GenerateKey(SelectPivots(9, ds.Dist, ds.Objects, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := FitEqualizingTransform(key, ds.Objects, 100, 16); err != nil {
		t.Fatal(err)
	}
	if key.Transform() == nil {
		t.Fatal("transform not attached")
	}
	// Exactness survives end to end.
	srv, err := NewEncryptedServer(DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialEncrypted(srv.Addr(), key, ClientOptions{StoreDists: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	q := ds.Objects[3].Vec
	got, _, err := search(client, Query{Kind: KindRange, Vec: q, Radius: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, o := range ds.Objects {
		if ds.Dist.Dist(q, o.Vec) <= 6 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("transformed range: %d results, want %d", len(got), want)
	}
}

func TestFacadePlainDeployment(t *testing.T) {
	ds := ClusteredData(3, 300, 6, 4, L2())
	pivots := SelectPivots(3, ds.Dist, ds.Objects, 10)
	srv, err := NewPlainServer(DefaultConfig(10), pivots)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialPlain(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	res, _, err := search(client, Query{Kind: KindKNN, Vec: ds.Objects[0].Vec, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res[0].Dist != 0 {
		t.Fatalf("plain kNN: %+v", res)
	}
}
