package core

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
)

// batchCloud builds an encrypted cloud over an explicit server config, so
// batch tests can vary sharding and ranking.
func batchCloud(t *testing.T, cfg mindex.Config, opts Options) (*EncryptedClient, *dataset.Dataset, *server.Server) {
	t.Helper()
	ds := dataset.Clustered(77, 600, 6, 5, metric.L2{})
	rng := rand.New(rand.NewPCG(77, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, cfg.NumPivots)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	opts.MaxLevel = cfg.MaxLevel
	opts.Ranking = cfg.Ranking
	client, err := DialEncrypted(srv.Addr(), key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, ds, srv
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestInsertBatchMatchesInsert: pipelined chunked ingest must leave the
// server in the same state as one monolithic insert.
func TestInsertBatchMatchesInsert(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := testConfig()
		cfg.Shards = shards
		mono, ds, monoSrv := batchCloud(t, cfg, Options{})
		if _, err := mono.Insert(ds.Objects); err != nil {
			t.Fatal(err)
		}
		// Small chunk forces many in-flight frames.
		piped, _, pipedSrv := batchCloud(t, cfg, Options{BatchChunk: 50})
		costs, err := piped.InsertBatch(ds.Objects)
		if err != nil {
			t.Fatal(err)
		}
		if costs.RoundTrips != 1 {
			t.Fatalf("pipelined insert reported %d round trips, want 1", costs.RoundTrips)
		}
		if pipedSrv.Index().Size() != monoSrv.Index().Size() {
			t.Fatalf("shards=%d: batch ingest left %d entries, monolithic %d",
				shards, pipedSrv.Index().Size(), monoSrv.Index().Size())
		}
		q := ds.Objects[3].Vec
		want, _, err := search(mono, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 120})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(piped, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 120})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) {
			t.Fatalf("shards=%d: post-ingest results differ", shards)
		}
	}
}

// TestApproxKNNBatchMatchesSequential: a batched query flight must return,
// per query, exactly what the sequential single-query path returns.
func TestApproxKNNBatchMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ranking mindex.RankStrategy
		shards  int
	}{
		{"footrule", mindex.RankFootrule, 1},
		{"footrule-sharded", mindex.RankFootrule, 4},
		{"distsum", mindex.RankDistSum, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Ranking = tc.ranking
			cfg.Shards = tc.shards
			// Chunk of 3 splits 8 queries across 3 pipelined frames.
			client, ds, _ := batchCloud(t, cfg, Options{BatchChunk: 3})
			if _, err := client.Insert(ds.Objects); err != nil {
				t.Fatal(err)
			}
			qs := make([]metric.Vector, 8)
			for i := range qs {
				qs[i] = ds.Objects[i*31].Vec
			}
			const k, candSize = 10, 100
			batched, costs, err := client.SearchBatch(context.Background(), approxQueries(qs, k, candSize))
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) != len(qs) {
				t.Fatalf("got %d result lists for %d queries", len(batched), len(qs))
			}
			if costs.RoundTrips != 1 {
				t.Fatalf("batch reported %d round trips, want 1", costs.RoundTrips)
			}
			if costs.Candidates != int64(len(qs)*candSize) {
				t.Fatalf("batch refined %d candidates, want %d", costs.Candidates, len(qs)*candSize)
			}
			for i, q := range qs {
				want, _, err := search(client, Query{Kind: KindApproxKNN, Vec: q, K: k, CandSize: candSize})
				if err != nil {
					t.Fatal(err)
				}
				if !sameResults(batched[i], want) {
					t.Fatalf("query %d: batched results differ from sequential", i)
				}
			}
		})
	}
}

// TestBatchErrorCarriesChunkContext: a server error for one chunk must
// name the chunk and its query range — the server's own "batch query N"
// index is frame-local and useless without the offset.
func TestBatchErrorCarriesChunkContext(t *testing.T) {
	cfg := testConfig()
	cfg.Ranking = mindex.RankDistSum
	client, ds, srv := batchCloud(t, cfg, Options{})
	if _, err := client.Insert(ds.Objects[:100]); err != nil {
		t.Fatal(err)
	}
	// A second client that disagrees with the server's ranking sends
	// permutations where distance vectors are expected.
	bad, err := DialEncrypted(srv.Addr(), client.Key(), Options{
		MaxLevel: cfg.MaxLevel, Ranking: mindex.RankFootrule, BatchChunk: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bad.Close() })
	qs := []metric.Vector{ds.Objects[0].Vec, ds.Objects[1].Vec, ds.Objects[2].Vec}
	_, _, err = bad.SearchBatch(context.Background(), approxQueries(qs, 3, 10))
	if err == nil {
		t.Fatal("mismatched ranking accepted")
	}
	if !strings.Contains(err.Error(), "query chunk 0 (queries 0..1)") {
		t.Fatalf("batch error lacks chunk context: %v", err)
	}
}

// TestBatchOnDeadConnection: a pipelined exchange whose writes fail must
// return the error promptly instead of deadlocking on the reader.
func TestBatchOnDeadConnection(t *testing.T) {
	client, ds, _ := batchCloud(t, testConfig(), Options{BatchChunk: 10})
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.InsertBatch(ds.Objects[:100])
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("InsertBatch on closed connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("InsertBatch on closed connection hung")
	}
}

// TestApproxKNNBatchValidation: bad parameters and empty input.
func TestApproxKNNBatchValidation(t *testing.T) {
	client, ds, _ := batchCloud(t, testConfig(), Options{})
	if _, err := client.Insert(ds.Objects[:50]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SearchBatch(context.Background(), approxQueries([]metric.Vector{ds.Objects[0].Vec}, 0, 10)); err == nil {
		t.Fatal("k=0 accepted")
	}
	out, _, err := client.SearchBatch(context.Background(), approxQueries(nil, 5, 10))
	if err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	if costs, err := client.InsertBatch(nil); err != nil || costs.RoundTrips != 0 {
		t.Fatalf("empty insert batch: %+v, %v", costs, err)
	}
}
