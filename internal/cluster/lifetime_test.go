package cluster_test

// Tests of the by-reference read path at the coordinator's edges: replies no
// honest node sends, and concurrent reads sharing the pooled frames.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

// scriptedNode listens as a node that answers hellos with the given shape
// and every other request with whatever answer returns for it.
func scriptedNode(t *testing.T, hello wire.HelloResp, answer func(wire.MsgType) (wire.MsgType, []byte)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					typ, _, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					respType, resp := wire.MsgHelloAck, hello.Encode()
					if typ != wire.MsgHello {
						respType, resp = answer(typ)
					}
					if err := wire.WriteFrame(conn, respType, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

// TestHostileNodeReplyIsAnErrorFrame: a node whose candidate replies are
// truncated, or claim more candidates than they carry, costs the client an
// error frame for that request — the coordinator neither panics nor forwards
// a partial answer, and it keeps serving.
func TestHostileNodeReplyIsAnErrorFrame(t *testing.T) {
	good := wire.BatchRankedResp{Results: [][]mindex.RankedCandidate{{
		{Entry: mindex.ViewOf(mindex.Entry{ID: 1, Perm: []int32{0, 1}, Payload: []byte{1, 2, 3}}), Promise: 0.5, Prefix: []int32{0}},
	}}}.Encode()
	var lying wire.Buffer
	lying.U64(0)
	lying.U32(1)
	lying.U32(1 << 30) // a billion candidates in twelve bytes

	replies := map[string][]byte{
		"truncated":   good[:len(good)-2],
		"trailing":    append(bytes.Clone(good), 9),
		"lying-count": lying.B,
		"empty":       nil,
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			hello := wire.HelloResp{
				Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivots,
				MaxLevel: 8, BucketCapacity: testBucket, Ranking: 1, EagerRootSplit: true, Shards: 1,
			}
			ln := scriptedNode(t, hello, func(typ wire.MsgType) (wire.MsgType, []byte) {
				if typ == wire.MsgDownloadAll {
					return wire.MsgCandidates, reply
				}
				return wire.MsgBatchRankedCandidates, reply
			})
			coord, err := cluster.New([]string{ln.Addr().String()}, cluster.Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			conn, err := net.Dial("tcp", coord.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			query := wire.BatchQueryReq{Queries: []wire.BatchQuery{
				{Kind: wire.BatchRange, Dists: make([]float64, testPivots), Radius: 1},
			}}.Encode()
			// Twice each: the connection, and the coordinator, survive.
			for round := range 2 {
				for _, req := range []struct {
					typ     wire.MsgType
					payload []byte
				}{{wire.MsgBatchQuery, query}, {wire.MsgDownloadAll, nil}} {
					if err := wire.WriteFrame(conn, req.typ, req.payload); err != nil {
						t.Fatal(err)
					}
					typ, _, err := wire.ReadFrame(conn)
					if err != nil {
						t.Fatalf("round %d, %v: %v", round, req.typ, err)
					}
					if typ != wire.MsgError {
						t.Fatalf("round %d, %v: hostile node reply answered with %v, want an error frame", round, req.typ, typ)
					}
				}
			}
		})
	}
}

// TestConcurrentSearchesThroughPooledFrames: eight goroutines query a
// 3-node R=2 cluster through one client at once, every kind, with every
// pooled buffer poisoned on release. Frames, decodings and scratch are all
// recycled between the goroutines; each answer must still equal, result for
// result, what a single server returns. Run under -race in CI.
func TestConcurrentSearchesThroughPooledFrames(t *testing.T) {
	wire.PoisonBuffers(t)
	w := newWorld(t, 1200)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	if _, err := refClient.InsertBatch(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = startServer(t, nodeConfig(true)).Addr()
	}
	coord, err := cluster.New(addrs, cluster.Options{Replicas: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	client := dial(t, coord.Addr(), w.key)
	if _, err := client.InsertBatch(w.data.Objects); err != nil {
		t.Fatal(err)
	}

	queries := func(vec []float32) []core.Query {
		return []core.Query{
			{Kind: core.KindApproxKNN, Vec: vec, K: 10, CandSize: 150},
			{Kind: core.KindFirstCell, Vec: vec, K: 5},
			{Kind: core.KindKNN, Vec: vec, K: 5},
			{Kind: core.KindRange, Vec: vec, Radius: 2},
		}
	}
	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for wkr := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := range rounds {
				qs := queries(w.data.Objects[(wkr*97+i*13)%len(w.data.Objects)].Vec)
				// Alternate the single and the pipelined path.
				var got [][]core.Result
				if i%2 == 0 {
					for _, q := range qs {
						res, _, err := client.Search(ctx, q)
						if err != nil {
							errc <- err
							return
						}
						got = append(got, res)
					}
				} else {
					var err error
					if got, _, err = client.SearchBatch(ctx, qs); err != nil {
						errc <- err
						return
					}
				}
				for qi, q := range qs {
					want, _, err := refClient.Search(ctx, q)
					if err != nil {
						errc <- err
						return
					}
					if !resultsEqual(got[qi], want) || !vectorsEqual(got[qi], want) {
						errc <- fmt.Errorf("worker %d round %d %v: cluster answer differs from the single server's", wkr, i, q.Kind)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// vectorsEqual compares the decrypted objects of two result lists: the
// part of an answer a stale view of a released frame would corrupt.
func vectorsEqual(a, b []core.Result) bool {
	for i := range a {
		if a[i].Object.ID != b[i].Object.ID || len(a[i].Object.Vec) != len(b[i].Object.Vec) {
			return false
		}
		for j, f := range a[i].Object.Vec {
			if f != b[i].Object.Vec[j] {
				return false
			}
		}
	}
	return true
}
