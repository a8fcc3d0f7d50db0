package core

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
	"simcloud/internal/wal"
)

// TestInsertStreamMatchesInsert: the streamed ingest must leave the server
// in the same state as an Insert of the same batch, across shard counts and
// with a chunk/window combination small enough to exercise the ack window
// many times over.
func TestInsertStreamMatchesInsert(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := testConfig()
		cfg.Shards = shards
		mono, ds, monoSrv := batchCloud(t, cfg, Options{})
		if _, err := mono.Insert(ds.Objects); err != nil {
			t.Fatal(err)
		}
		streamed, _, streamedSrv := batchCloud(t, cfg, Options{BatchChunk: 32, StreamWindow: 3})
		costs, err := streamed.InsertStream(ds.Objects)
		if err != nil {
			t.Fatal(err)
		}
		if costs.RoundTrips != 1 {
			t.Fatalf("streamed insert reported %d round trips, want 1", costs.RoundTrips)
		}
		if costs.EncryptTime <= 0 || costs.DistCompTime <= 0 || costs.BytesSent <= 0 {
			t.Fatalf("implausible stream costs: %+v", costs)
		}
		if streamedSrv.Index().Size() != monoSrv.Index().Size() {
			t.Fatalf("shards=%d: streamed ingest left %d entries, monolithic %d",
				shards, streamedSrv.Index().Size(), monoSrv.Index().Size())
		}
		q := ds.Objects[3].Vec
		want, _, err := search(mono, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 120})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(streamed, Query{Kind: KindApproxKNN, Vec: q, K: 10, CandSize: 120})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) {
			t.Fatalf("shards=%d: post-ingest results differ", shards)
		}
	}
}

// TestInsertStreamGroupCommitWAL: a streamed ingest against a group-commit
// WAL must log every chunk, and the recovered log must replay to the full
// ingested state — the end-of-stream flush closes the commit window before
// the final ack, so nothing acknowledged is lost to an unflushed tail.
func TestInsertStreamGroupCommitWAL(t *testing.T) {
	ds := dataset.Clustered(42, 500, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(42, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log, recs, err := wal.Open(dir, wal.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	srv, err := server.NewEncrypted(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachWAL(log)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := DialEncrypted(srv.Addr(), key, Options{MaxLevel: testMaxLevel, BatchChunk: 32, StreamWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	if _, err := client.InsertStream(ds.Objects); err != nil {
		t.Fatal(err)
	}
	// Simulate restart: reopen the log and check one record per chunk,
	// covering every object — the end-of-stream flush made the whole
	// group-commit window durable before the final ack.
	client.Close()
	srv.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, recovered, err := wal.Open(dir, wal.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	wantChunks := (len(ds.Objects) + 31) / 32
	if len(recovered) != wantChunks {
		t.Fatalf("log holds %d records, want %d chunks", len(recovered), wantChunks)
	}
	total := 0
	for _, rec := range recovered {
		if rec.Op != wal.OpInsert {
			t.Fatalf("unexpected op %d in ingest log", rec.Op)
		}
		total += len(rec.Entries)
	}
	if total != len(ds.Objects) {
		t.Fatalf("log covers %d entries, want %d", total, len(ds.Objects))
	}
}

// TestInsertStreamDuplicateFails: a server rejection mid-stream must
// surface as an error naming the failing chunk, not hang the window.
func TestInsertStreamDuplicateFails(t *testing.T) {
	client, ds, _, _ := testCloudSrv(t, Options{BatchChunk: 16, StreamWindow: 2}, false)
	if _, err := client.InsertStream(ds.Objects[:100]); err != nil {
		t.Fatal(err)
	}
	_, err := client.InsertStream(ds.Objects[:100])
	if err == nil {
		t.Fatal("re-streaming the same IDs succeeded")
	}
	if !strings.Contains(err.Error(), "ingest chunk 0") {
		t.Fatalf("error does not name the failing chunk: %v", err)
	}
	// The failed flight had up to StreamWindow chunks (plus their error
	// responses) in flight past the first rejection; the client must drain
	// them before re-pooling the connection, so the next exchanges — a
	// query and a fresh stream — see a cleanly framed connection, not a
	// stale ingest ack.
	if _, _, err := search(client, Query{Kind: KindApproxKNN, Vec: ds.Objects[0].Vec, K: 5, CandSize: 60}); err != nil {
		t.Fatalf("query after failed stream: %v", err)
	}
	if _, err := client.InsertStream(ds.Objects[100:200]); err != nil {
		t.Fatalf("fresh stream after failed stream: %v", err)
	}
	if _, _, err := search(client, Query{Kind: KindApproxKNN, Vec: ds.Objects[150].Vec, K: 5, CandSize: 60}); err != nil {
		t.Fatalf("query after recovered stream: %v", err)
	}
}

// TestInsertStreamPlain: the plain deployment's streamed upload must match
// an Insert, and both must report the server's distance time.
func TestInsertStreamPlain(t *testing.T) {
	ds := dataset.Clustered(43, 600, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(43, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	newClient := func() (*PlainClient, *server.Server) {
		srv := startPlain(t, testConfig(), pv)
		client, err := DialPlain(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return client, srv
	}
	mono, monoSrv := newClient()
	monoCosts, err := mono.Insert(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	streamed, streamedSrv := newClient()
	costs, err := streamed.InsertStream(ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	// The plain server computes the pivot distances; both forms report
	// that time, carried on the chunk acks.
	for _, c := range []stats.Costs{monoCosts, costs} {
		if c.RoundTrips != 1 || c.ServerTime <= 0 || c.DistCompTime <= 0 {
			t.Fatalf("implausible plain ingest costs: %+v", c)
		}
	}
	if streamedSrv.Index().Size() != monoSrv.Index().Size() {
		t.Fatalf("streamed plain ingest left %d entries, monolithic %d",
			streamedSrv.Index().Size(), monoSrv.Index().Size())
	}
	q := ds.Objects[5].Vec
	want, _, err := search(mono, Query{Kind: KindKNN, Vec: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := search(streamed, Query{Kind: KindKNN, Vec: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want) {
		t.Fatal("post-ingest plain results differ")
	}
}

// TestInsertStreamDirect: the in-process client's chunked ingest must leave
// the engine identical (stats and reads) to one bulk insert.
func TestInsertStreamDirect(t *testing.T) {
	ds := dataset.Clustered(44, 700, 6, 8, metric.L2{})
	rng := rand.New(rand.NewPCG(44, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	newDirect := func() *DirectClient {
		c, err := NewDirect(testConfig(), key, Options{MaxLevel: testMaxLevel, BatchChunk: 48})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	mono, streamed := newDirect(), newDirect()
	if _, err := mono.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.InsertStream(ds.Objects); err != nil {
		t.Fatal(err)
	}
	if mono.Engine().Size() != streamed.Engine().Size() {
		t.Fatalf("sizes differ: %d vs %d", mono.Engine().Size(), streamed.Engine().Size())
	}
	q := Query{Kind: KindApproxKNN, Vec: ds.Objects[9].Vec, K: 10, CandSize: 120}
	want, _, err := mono.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := streamed.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want) {
		t.Fatal("post-ingest direct results differ")
	}
}
