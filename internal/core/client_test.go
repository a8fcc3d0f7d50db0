package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

const (
	testPivotCount = 10
	testMaxLevel   = 4
)

func testConfig() mindex.Config {
	return mindex.Config{
		NumPivots:      testPivotCount,
		MaxLevel:       testMaxLevel,
		BucketCapacity: 25,
		Storage:        mindex.StorageMemory,
		Ranking:        mindex.RankFootrule,
	}
}

// search evaluates one query without a deadline — what the tests used the
// removed per-kind convenience methods for.
func search(s Searcher, q Query) ([]Result, stats.Costs, error) {
	return s.Search(context.Background(), q)
}

// approxQueries builds one approximate k-NN query per vector.
func approxQueries(qs []metric.Vector, k, candSize int) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Kind: KindApproxKNN, Vec: q, K: k, CandSize: candSize}
	}
	return out
}

// testCloud spins up an encrypted server + authorized client over loopback
// TCP and indexes the data set.
func testCloud(t *testing.T, opts Options, insert bool) (*EncryptedClient, *dataset.Dataset, *secret.Key) {
	client, ds, key, _ := testCloudSrv(t, opts, insert)
	return client, ds, key
}

func testCloudSrv(t *testing.T, opts Options, insert bool) (*EncryptedClient, *dataset.Dataset, *secret.Key, *server.Server) {
	t.Helper()
	ds := dataset.Clustered(42, 800, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(42, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
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
	opts.MaxLevel = testMaxLevel
	client, err := DialEncrypted(srv.Addr(), key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if insert {
		costs, err := client.Insert(ds.Objects)
		if err != nil {
			t.Fatal(err)
		}
		if costs.EncryptTime <= 0 || costs.DistCompTime <= 0 || costs.BytesSent <= 0 {
			t.Fatalf("implausible insert costs: %+v", costs)
		}
	}
	return client, ds, key, srv
}

// startPlain starts a plain-deployment server over pv on a loopback port.
func startPlain(t *testing.T, cfg mindex.Config, pv *pivot.Set) *server.Server {
	t.Helper()
	b, err := NewPlainBackend(cfg, pv)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewPlain(b)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func bruteKNN(ds *dataset.Dataset, q metric.Vector, k int) []Result {
	out := make([]Result, 0, len(ds.Objects))
	for _, o := range ds.Objects {
		out = append(out, Result{ID: o.ID, Dist: ds.Dist.Dist(q, o.Vec), Object: o})
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

func TestEncryptedRangeMatchesBruteForce(t *testing.T) {
	client, ds, _ := testCloud(t, Options{StoreDists: true}, true)
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := range 10 {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		r := []float64{1, 4, 12}[trial%3]
		got, costs, err := search(client, Query{Kind: KindRange, Vec: q, Radius: r})
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]float64{}
		for _, o := range ds.Objects {
			if d := ds.Dist.Dist(q, o.Vec); d <= r {
				want[o.ID] = d
			}
		}
		if len(got) != len(want) {
			t.Fatalf("r=%g: got %d results, want %d", r, len(got), len(want))
		}
		for _, res := range got {
			if wd, ok := want[res.ID]; !ok || wd != res.Dist {
				t.Fatalf("result %d dist %g, want %g (present=%v)", res.ID, res.Dist, wd, ok)
			}
		}
		if costs.DecryptTime <= 0 || costs.BytesReceived <= 0 {
			t.Fatalf("implausible search costs: %+v", costs)
		}
		if costs.Candidates < int64(len(want)) {
			t.Fatalf("candidate set %d smaller than answer %d", costs.Candidates, len(want))
		}
	}
}

func TestEncryptedPreciseKNNMatchesBruteForce(t *testing.T) {
	client, ds, _ := testCloud(t, Options{StoreDists: true}, true)
	rng := rand.New(rand.NewPCG(8, 8))
	for range 8 {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		k := 1 + rng.IntN(10)
		got, _, err := search(client, Query{Kind: KindKNN, Vec: q, K: k, CandSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(ds, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d rank %d: dist %g, want %g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestEncryptedApproxKNNRecall(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, true)
	rng := rand.New(rand.NewPCG(9, 9))
	const k = 10
	recallAt := func(candSize int) float64 {
		var sum float64
		const queries = 15
		for range queries {
			q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
			got, costs, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: k, CandSize: candSize})
			if err != nil {
				t.Fatal(err)
			}
			if costs.Candidates > int64(candSize) {
				t.Fatalf("candidate set %d exceeds requested %d", costs.Candidates, candSize)
			}
			want := bruteKNN(ds, q, k)
			hit := 0
			wantIDs := map[uint64]bool{}
			for _, w := range want {
				wantIDs[w.ID] = true
			}
			for _, g := range got {
				if wantIDs[g.ID] {
					hit++
				}
			}
			sum += float64(hit) / float64(len(want)) * 100
		}
		return sum / queries
	}
	small := recallAt(40)
	big := recallAt(400)
	full := recallAt(len(ds.Objects))
	if big < small-10 { // allow sampling noise, but the trend must hold
		t.Fatalf("recall did not improve with candidate size: %g%% -> %g%%", small, big)
	}
	if full != 100 {
		t.Fatalf("full candidate set recall = %g%%, want 100%%", full)
	}
}

func TestEncryptedServerSeesNoPlaintext(t *testing.T) {
	_, ds, _, srv := testCloudSrv(t, Options{}, true)
	// White-box check of the server-side index: every entry must hold an
	// opaque payload and no raw vector; with StoreDists=false not even the
	// distance vector is present — only the permutation prefix.
	entries, err := srv.Index().AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ds.Objects) {
		t.Fatalf("server holds %d entries, want %d", len(entries), len(ds.Objects))
	}
	for _, e := range entries {
		if o, err := secret.DecodeObject(e.Payload); err == nil && o.ID == e.ID {
			t.Fatal("server stores an object's plaintext")
		}
		if e.Dists != nil {
			t.Fatal("server stores pivot distances despite approximate strategy")
		}
		if len(e.Payload) == 0 {
			t.Fatal("server entry has no encrypted payload")
		}
		if len(e.Perm) != testMaxLevel {
			t.Fatalf("permutation prefix length %d, want %d", len(e.Perm), testMaxLevel)
		}
	}
}

func TestPlainClientEndToEnd(t *testing.T) {
	ds := dataset.Clustered(43, 600, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(43, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	srv := startPlain(t, testConfig(), pv)
	client, err := DialPlain(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	costs, err := client.Insert(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if costs.ServerTime <= 0 || costs.DistCompTime <= 0 {
		t.Fatalf("implausible plain insert costs: %+v", costs)
	}
	if costs.EncryptTime != 0 {
		t.Fatal("plain insert reported encryption time")
	}

	q := ds.Objects[5].Vec
	// Precise KNN against brute force.
	got, kcosts, err := search(client, Query{Kind: KindKNN, Vec: q, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(ds, q, 7)
	if len(got) != len(want) {
		t.Fatalf("knn: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("knn rank %d: %g vs %g", i, got[i].Dist, want[i].Dist)
		}
	}
	if kcosts.DecryptTime != 0 {
		t.Fatal("plain search reported decryption time")
	}

	// Range.
	rres, _, err := search(client, Query{Kind: KindRange, Vec: q, Radius: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rres {
		if r.Dist > 5 {
			t.Fatalf("range result at %g beyond radius", r.Dist)
		}
	}

	// Approximate: returns k results, comm cost independent of candSize.
	a1, c1, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: 5, CandSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	a2, c2, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: 5, CandSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != 5 || len(a2) != 5 {
		t.Fatalf("approx sizes: %d, %d", len(a1), len(a2))
	}
	if c1.BytesReceived != c2.BytesReceived {
		t.Fatalf("plain approx comm cost varies with candSize: %d vs %d",
			c1.BytesReceived, c2.BytesReceived)
	}
}

func TestWrongKeyCannotDecrypt(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, true)
	// A second "attacker" client with a different cipher key but the same
	// pivots can send well-formed queries yet cannot decrypt candidates.
	otherKey, err := secret.Generate(client.Key().Pivots(), secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := DialEncrypted(client.Addr(), otherKey,
		Options{MaxLevel: testMaxLevel})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	_, _, err = search(attacker, Query{Kind: KindApproxKNN, Vec: ds.Objects[0].Vec, K: 5, CandSize: 50})
	if err == nil {
		t.Fatal("attacker refined candidates without the data key")
	}
	if !errors.Is(err, secret.ErrAuth) {
		t.Fatalf("expected authentication failure, got %v", err)
	}
}

func TestModeMismatchIsRemoteError(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, false)
	_ = ds
	// Speak the plain protocol to the encrypted server.
	// A plain client wired straight onto the encrypted server's address,
	// skipping the dial handshake (which would catch the mismatch early):
	// the link leases raw connections without a hello.
	pc := &PlainClient{addr: client.Addr(), link: wire.NewLink(func(ctx context.Context) (*wire.CountingConn, error) {
		var d net.Dialer
		raw, err := d.DialContext(ctx, "tcp", client.Addr())
		if err != nil {
			return nil, err
		}
		return &wire.CountingConn{Conn: raw}, nil
	})}
	defer pc.Close()
	_, err := pc.Insert([]metric.Object{{ID: 1, Vec: metric.Vector{1, 2, 3, 4, 5, 6}}})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("expected remote error, got %v", err)
	}
}

func TestValidation(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, true)
	q := ds.Objects[0].Vec
	if _, _, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: 0, CandSize: 10}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := search(client, Query{Kind: KindFirstCell, Vec: q, K: 0}); err == nil {
		t.Error("first-cell k=0 accepted")
	}
	if _, err := DialEncrypted("127.0.0.1:1", nil, Options{PrefixLen: 1, MaxLevel: 8}); err == nil {
		t.Error("PrefixLen < MaxLevel accepted")
	}
}

func TestFirstCellKNN(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, true)
	rng := rand.New(rand.NewPCG(10, 10))
	hits := 0
	const queries = 30
	for range queries {
		q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
		got, costs, err := search(client, Query{Kind: KindFirstCell, Vec: q, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("got %d results", len(got))
		}
		if costs.Candidates <= 0 {
			t.Fatal("no candidates transferred")
		}
		want := bruteKNN(ds, q, 1)
		if got[0].ID == want[0].ID {
			hits++
		}
	}
	// The query object itself is indexed, so its own cell is always the
	// most promising one and the 1-NN (the object, distance 0) must be found
	// in the vast majority of cases.
	if hits < queries*3/4 {
		t.Fatalf("1-NN recall %d/%d too low", hits, queries)
	}
}

func TestConcurrentClients(t *testing.T) {
	client, ds, key := testCloud(t, Options{}, true)
	addr := client.Addr()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialEncrypted(addr, key, Options{MaxLevel: testMaxLevel})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewPCG(uint64(w), 77))
			for range 10 {
				q := ds.Objects[rng.IntN(len(ds.Objects))].Vec
				if _, _, err := search(c, Query{Kind: KindApproxKNN, Vec: q, K: 5, CandSize: 60}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestParallelInsertEquivalent(t *testing.T) {
	ds := dataset.Clustered(91, 600, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(91, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) (*server.Server, *EncryptedClient) {
		srv, err := server.NewEncrypted(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := DialEncrypted(srv.Addr(), key, Options{MaxLevel: testMaxLevel, Workers: workers, StoreDists: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		costs, err := c.Insert(ds.Objects)
		if err != nil {
			t.Fatal(err)
		}
		if costs.EncryptTime <= 0 || costs.DistComps != int64(len(ds.Objects)*testPivotCount) {
			t.Fatalf("workers=%d: implausible costs %+v", workers, costs)
		}
		return srv, c
	}
	srv1, c1 := build(1)
	srv4, c4 := build(4)

	// Identical server-side index structure and identical query answers.
	st1, st4 := srv1.Index().TreeStats(), srv4.Index().TreeStats()
	if st1 != st4 {
		t.Fatalf("tree stats differ: %+v vs %+v", st1, st4)
	}
	q := ds.Objects[11].Vec
	r1, _, err := search(c1, Query{Kind: KindRange, Vec: q, Radius: 6})
	if err != nil {
		t.Fatal(err)
	}
	r4, _, err := search(c4, Query{Kind: KindRange, Vec: q, Radius: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r4) {
		t.Fatalf("range results differ: %d vs %d", len(r1), len(r4))
	}
	for i := range r1 {
		if r1[i].ID != r4[i].ID || r1[i].Dist != r4[i].Dist {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestApproxKNNPartialRefinement(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, true)
	q := ds.Objects[21].Vec
	_, fullCosts, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	partial, partCosts, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 400, RefineLimit: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 10 {
		t.Fatalf("partial returned %d results", len(partial))
	}
	// Same bytes cross the wire (same candidate set), but the partial
	// variant decrypts a fifth of it.
	if partCosts.BytesReceived != fullCosts.BytesReceived {
		t.Fatalf("partial transfer %d != full transfer %d",
			partCosts.BytesReceived, fullCosts.BytesReceived)
	}
	if partCosts.DistComps >= fullCosts.DistComps {
		t.Fatalf("partial refinement did not reduce distance computations: %d vs %d",
			partCosts.DistComps, fullCosts.DistComps)
	}
	// The query object itself sits in the most promising cell, so even the
	// partial refinement must find it.
	if partial[0].Dist != 0 {
		t.Fatalf("partial refinement missed the query object: nearest %g", partial[0].Dist)
	}
}
