package core

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
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

// frameCounter is a TCP proxy in front of a server that counts the request
// frames it forwards, by message type. A frame is counted before it is
// forwarded, so once its reply has arrived the count includes it.
type frameCounter struct {
	ln      net.Listener
	backend string
	wg      sync.WaitGroup
	mu      sync.Mutex
	counts  map[wire.MsgType]int
	conns   []net.Conn
}

func countFrames(t *testing.T, backend string) *frameCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{ln: ln, backend: backend, counts: map[wire.MsgType]int{}}
	fc.wg.Add(1)
	go fc.accept()
	t.Cleanup(fc.close)
	return fc
}

func (fc *frameCounter) Addr() string { return fc.ln.Addr().String() }

func (fc *frameCounter) accept() {
	defer fc.wg.Done()
	for {
		client, err := fc.ln.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", fc.backend)
		if err != nil {
			client.Close()
			continue
		}
		fc.mu.Lock()
		fc.conns = append(fc.conns, client, srv)
		fc.mu.Unlock()
		fc.wg.Add(2)
		go func() {
			defer fc.wg.Done()
			io.Copy(client, srv)
			client.Close()
		}()
		go func() {
			defer fc.wg.Done()
			defer srv.Close()
			for {
				typ, payload, err := wire.ReadFrame(client)
				if err != nil {
					return
				}
				fc.mu.Lock()
				fc.counts[typ]++
				fc.mu.Unlock()
				if err := wire.WriteFrame(srv, typ, payload); err != nil {
					return
				}
			}
		}()
	}
}

// take returns the number of typ frames forwarded since the last take.
func (fc *frameCounter) take(typ wire.MsgType) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	n := fc.counts[typ]
	delete(fc.counts, typ)
	return n
}

func (fc *frameCounter) close() {
	fc.ln.Close()
	fc.mu.Lock()
	for _, c := range fc.conns {
		c.Close()
	}
	fc.mu.Unlock()
	fc.wg.Wait()
}

// writer is the write surface every backend shares.
type writer interface {
	Searcher
	Insert(objs []metric.Object) (stats.Costs, error)
	Delete(objs []metric.Object) (int, stats.Costs, error)
}

// TestWriteChunkFrames: on every backend an insert and a delete of n objects
// ship ⌈n/BatchChunk⌉ chunk frames as one pipelined flight, and leave the
// index in the state one in-process InsertBulk / Delete of the batch leaves:
// the same size and the same answers.
func TestWriteChunkFrames(t *testing.T) {
	const chunk = 64 // the BatchChunk default, and the plain client's chunk
	const base = 40  // objects indexed before the measured writes
	ds := dataset.Clustered(78, 3*chunk+1+base, 6, 5, metric.L2{})
	rng := rand.New(rand.NewPCG(78, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxLevel: testMaxLevel}
	rest := ds.Objects[3*chunk+1:]

	type deployment struct {
		client         writer
		size           func() int
		frames         *frameCounter // nil in-process
		insert, delete wire.MsgType
	}
	deploy := func(t *testing.T, kind string, cfg mindex.Config) deployment {
		switch kind {
		case "encrypted":
			srv, err := server.NewEncrypted(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			fc := countFrames(t, srv.Addr())
			c, err := DialEncrypted(fc.Addr(), key, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return deployment{c, srv.Index().Size, fc, wire.MsgIngestChunk, wire.MsgDeleteEntries}
		case "plain":
			srv := startPlain(t, cfg, pv)
			fc := countFrames(t, srv.Addr())
			c, err := DialPlain(fc.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return deployment{c, srv.Index().Size, fc, wire.MsgIngestObjChunk, wire.MsgDeleteObjects}
		}
		c, err := NewDirect(cfg, key, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return deployment{client: c, size: c.Engine().Size}
	}
	sameAnswers := func(t *testing.T, what string, got, want Searcher) {
		t.Helper()
		for _, q := range []Query{
			{Kind: KindApproxKNN, Vec: ds.Objects[3].Vec, K: 10, CandSize: 60},
			{Kind: KindKNN, Vec: ds.Objects[100].Vec, K: 10},
		} {
			w, _, err := search(want, q)
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := search(got, q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(g, w) {
				t.Fatalf("after %s: %v answers %v, reference %v", what, q.Kind, g, w)
			}
		}
	}

	for _, tc := range []struct {
		kind   string
		shards int
	}{{"encrypted", 1}, {"encrypted", 4}, {"plain", 1}, {"direct", 1}} {
		for _, n := range []int{0, 1, chunk, chunk + 1, 3*chunk + 1} {
			t.Run(fmt.Sprintf("%s/shards=%d/n=%d", tc.kind, tc.shards, n), func(t *testing.T) {
				cfg := testConfig()
				cfg.Shards = tc.shards
				d := deploy(t, tc.kind, cfg)
				ref := deploy(t, "direct", cfg)
				objs := ds.Objects[:n]
				for _, c := range []writer{d.client, ref.client} {
					if _, err := c.Insert(rest); err != nil {
						t.Fatal(err)
					}
				}
				wantFrames := (n + chunk - 1) / chunk
				checkFrames := func(what string, typ wire.MsgType, costs stats.Costs) {
					t.Helper()
					if d.frames == nil {
						return
					}
					if got := d.frames.take(typ); got != wantFrames {
						t.Fatalf("%s of %d objects sent %d %v frames, want %d", what, n, got, typ, wantFrames)
					}
					if want := int64(min(n, 1)); costs.RoundTrips != want {
						t.Fatalf("%s of %d objects reported %d round trips, want %d", what, n, costs.RoundTrips, want)
					}
				}
				if d.frames != nil {
					d.frames.take(d.insert)
				}

				costs, err := d.client.Insert(objs)
				if err != nil {
					t.Fatal(err)
				}
				checkFrames("insert", d.insert, costs)
				if _, err := ref.client.Insert(objs); err != nil {
					t.Fatal(err)
				}
				if got := d.size(); got != base+n {
					t.Fatalf("insert of %d objects left %d entries, want %d", n, got, base+n)
				}
				sameAnswers(t, "insert", d.client, ref.client)

				deleted, costs, err := d.client.Delete(objs)
				if err != nil {
					t.Fatal(err)
				}
				checkFrames("delete", d.delete, costs)
				if _, _, err := ref.client.Delete(objs); err != nil {
					t.Fatal(err)
				}
				if deleted != n || d.size() != base {
					t.Fatalf("delete of %d objects deleted %d, left %d entries, want %d", n, deleted, d.size(), base)
				}
				sameAnswers(t, "delete", d.client, ref.client)
			})
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
		_, err := client.Insert(ds.Objects[:100])
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Insert on closed connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Insert on closed connection hung")
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
	if costs, err := client.Insert(nil); err != nil || costs.RoundTrips != 0 {
		t.Fatalf("empty insert: %+v, %v", costs, err)
	}
}
