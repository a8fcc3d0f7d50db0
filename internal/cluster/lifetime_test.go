package cluster_test

// Tests of the by-reference read path at the coordinator's edges: replies no
// honest node sends, and concurrent reads sharing the pooled frames.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/leaktest"
	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

// frameNode serves handler on a loopback port as a stand-in node, closed
// when the test ends.
func frameNode(t *testing.T, handler wire.Handler) *wire.Server {
	t.Helper()
	srv := &wire.Server{Handler: handler}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// scriptedNode serves as a node that answers hellos with the given shape
// and every other request with whatever answer returns for it.
func scriptedNode(t *testing.T, hello wire.HelloResp, answer func(typ wire.MsgType, payload []byte) (wire.MsgType, []byte)) *wire.Server {
	t.Helper()
	return frameNode(t, func(typ wire.MsgType, payload []byte, _ time.Time, _ *wire.Buffer) (wire.MsgType, []byte, error) {
		if typ == wire.MsgHello {
			return wire.MsgHelloAck, hello.Encode(), nil
		}
		respType, resp := answer(typ, payload)
		return respType, resp, nil
	})
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
			node := scriptedNode(t, hello, func(wire.MsgType, []byte) (wire.MsgType, []byte) {
				return wire.MsgBatchRankedCandidates, reply
			})
			coord, err := cluster.New([]string{node.Addr()}, cluster.Options{Logf: t.Logf})
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
			// A range query and a download of everything, twice each: the
			// connection, and the coordinator, survive.
			for round := range 2 {
				for _, q := range []wire.BatchQuery{
					{Kind: wire.BatchRange, Dists: make([]float64, testPivots), Radius: 1},
					{Kind: wire.BatchAll},
				} {
					query := wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode()
					if err := wire.WriteFrame(conn, wire.MsgBatchQuery, query); err != nil {
						t.Fatal(err)
					}
					typ, _, err := wire.ReadFrame(conn)
					if err != nil {
						t.Fatalf("round %d, kind %d: %v", round, q.Kind, err)
					}
					if typ != wire.MsgError {
						t.Fatalf("round %d, kind %d: hostile node reply answered with %v, want an error frame", round, q.Kind, typ)
					}
				}
			}
		})
	}
}

// TestHostileNodeAckIsAnError: a node whose write acks are cut short — the
// chunk ack of protocol v4, which carried no distance time, or a delete ack
// missing its count — fails the client's write with an error frame, on the
// unreplicated and the replicated path alike: every node-ward write decodes
// its ack.
func TestHostileNodeAckIsAnError(t *testing.T) {
	hello := wire.HelloResp{
		Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivots,
		MaxLevel: 8, BucketCapacity: testBucket, Ranking: 1, EagerRootSplit: true, Shards: 1,
	}
	short := func(typ wire.MsgType, _ []byte) (wire.MsgType, []byte) {
		switch typ {
		case wire.MsgIngestChunk:
			return wire.MsgIngestChunkAck, wire.IngestChunkAckResp{ServerNanos: 1}.Encode()[:12]
		case wire.MsgDeleteEntries:
			return wire.MsgDeleteAck, wire.DeleteAckResp{ServerNanos: 1, Deleted: 1}.Encode()[:8]
		}
		return wire.MsgError, wire.ErrorResp{Msg: "unexpected"}.Encode()
	}
	entries := []mindex.Entry{{ID: 1, Perm: []int32{0, 1}, Payload: []byte{1}}}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			addrs := make([]string, replicas)
			for i := range addrs {
				addrs[i] = scriptedNode(t, hello, short).Addr()
			}
			coord, err := cluster.New(addrs, cluster.Options{Replicas: replicas, Logf: t.Logf})
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
			for _, req := range []struct {
				typ     wire.MsgType
				payload []byte
			}{
				{wire.MsgIngestChunk, wire.IngestChunkReq{Entries: entries}.Encode()},
				{wire.MsgDeleteEntries, wire.DeleteEntriesReq{Refs: entries}.Encode()},
			} {
				if err := wire.WriteFrame(conn, req.typ, req.payload); err != nil {
					t.Fatal(err)
				}
				typ, resp, err := wire.ReadFrame(conn)
				if err != nil {
					t.Fatal(err)
				}
				if typ != wire.MsgError {
					t.Fatalf("%v: a short node ack answered with %v, want an error frame", req.typ, typ)
				}
				if m, _ := wire.DecodeErrorResp(resp); !strings.Contains(m.Msg, "ack") {
					t.Fatalf("%v: error %q does not name the ack", req.typ, m.Msg)
				}
			}
		})
	}
}

// TestHostileNodeTwoWaveRead: in a two-node approximate read, a count reply
// no honest node sends — runs out of (promise, prefix) order, a NaN promise,
// counts past the candidate size or overflowing it, more runs than its bytes
// hold — and a fetch reply with more candidates than the node was asked for
// each cost the client an error frame, and the coordinator keeps serving.
func TestHostileNodeTwoWaveRead(t *testing.T) {
	hello := wire.HelloResp{
		Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivots,
		MaxLevel: 8, BucketCapacity: testBucket, Ranking: 1, EagerRootSplit: true, Shards: 1,
	}
	counts := func(runs ...mindex.CellRun) []byte {
		return wire.BatchCellCountsResp{Results: [][]mindex.CellRun{runs}}.Encode()
	}
	cand := func(id uint64) mindex.RankedCandidate {
		return mindex.RankedCandidate{Entry: mindex.ViewOf(mindex.Entry{ID: id, Perm: []int32{0, 1}, Payload: []byte{1}}), Promise: 0.5, Prefix: []int32{0}}
	}
	honestCounts := counts(mindex.CellRun{Promise: 0.5, Prefix: []int32{0}, Count: 2})
	honestFetch := wire.BatchRankedResp{Results: [][]mindex.RankedCandidate{{cand(1), cand(2)}}}.Encode()
	var lying wire.Buffer // a billion runs in a few bytes
	lying.U64(0)
	lying.U32(1)
	lying.U32(1 << 30)
	lying.F64(0.5)
	for name, tc := range map[string]struct {
		counts, fetch []byte
		want          string // in the error the client gets
	}{
		"runs-out-of-order": {counts(
			mindex.CellRun{Promise: 0.5, Prefix: []int32{1}, Count: 1},
			mindex.CellRun{Promise: 0.25, Prefix: []int32{2}, Count: 1}), honestFetch, "out of (promise, prefix) order"},
		"prefixes-out-of-order": {counts(
			mindex.CellRun{Promise: 0.5, Prefix: []int32{2}, Count: 1},
			mindex.CellRun{Promise: 0.5, Prefix: []int32{1}, Count: 1}), honestFetch, "out of (promise, prefix) order"},
		"nan-promise":     {counts(mindex.CellRun{Promise: math.NaN(), Prefix: []int32{0}, Count: 2}), honestFetch, "NaN"},
		"count-past-cand": {counts(mindex.CellRun{Promise: 0.5, Prefix: []int32{0}, Count: 5}), honestFetch, "over the candidate size"},
		"count-overflow": {counts(
			mindex.CellRun{Promise: 0.5, Prefix: []int32{0}, Count: math.MaxUint32},
			mindex.CellRun{Promise: 0.75, Prefix: []int32{0}, Count: 2}), honestFetch, "over the candidate size"},
		"lying-run-count": {lying.B, honestFetch, "cell counts"},
		"fetch-over-share": {honestCounts,
			wire.BatchRankedResp{Results: [][]mindex.RankedCandidate{{cand(1), cand(2), cand(3)}}}.Encode(), "asked for 2"},
	} {
		t.Run(name, func(t *testing.T) {
			leaktest.Check(t)
			script := func(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
				if req, err := wire.DecodeBatchQueryReq(payload); typ == wire.MsgBatchQuery && err == nil && req.Counts {
					return wire.MsgBatchCellCounts, tc.counts
				}
				return wire.MsgBatchRankedCandidates, tc.fetch
			}
			addrs := []string{scriptedNode(t, hello, script).Addr(), scriptedNode(t, hello, script).Addr()}
			coord, err := cluster.New(addrs, cluster.Options{Logf: t.Logf})
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
			perm := []int32{0, 1, 2, 3, 4, 5, 6, 7}
			query := wire.BatchQueryReq{Queries: []wire.BatchQuery{{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 4}}}.Encode()
			for round := range 2 {
				if err := wire.WriteFrame(conn, wire.MsgBatchQuery, query); err != nil {
					t.Fatal(err)
				}
				typ, resp, err := wire.ReadFrame(conn)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if typ != wire.MsgError {
					t.Fatalf("round %d: hostile node answered with %v, want an error frame", round, typ)
				}
				if m, _ := wire.DecodeErrorResp(resp); !strings.Contains(m.Msg, tc.want) {
					t.Fatalf("round %d: error %q does not say %q", round, m.Msg, tc.want)
				}
			}
			if live := coord.LiveNodes(); len(live) != 2 {
				t.Fatalf("a hostile reply marked a node down: live %v", live)
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
	if _, err := refClient.Insert(w.data.Objects); err != nil {
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
	if _, err := client.Insert(w.data.Objects); err != nil {
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
