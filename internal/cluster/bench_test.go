package cluster_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"simcloud"
	"simcloud/internal/cluster"
	"simcloud/internal/pivot"
	"simcloud/internal/wire"
)

// BenchmarkCoordinatorApproxRead is the coordinator's read path in
// isolation, at the benchmark's chain_refine shape: 3 loopback nodes at R=2
// holding 16 000 CoPhIR objects indexed over 30 pivots, and 2 or 4 senders,
// each on a connection of its own, sending approximate queries for 400
// candidates and reading the flat replies. No client decrypts or refines,
// so ns/op is the time the coordinator and its nodes take per query at that
// concurrency.
func BenchmarkCoordinatorApproxRead(b *testing.B) {
	const (
		objects   = 16000
		numPivots = 30
		numNodes  = 3
		candSize  = 400
	)
	data := simcloud.CoPhIRData(objects)
	pivots := simcloud.SelectPivots(7, data.Dist, data.Objects, numPivots)
	key, err := simcloud.GenerateKey(pivots)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simcloud.DefaultConfig(numPivots)
	cfg.EagerRootSplit = true
	addrs := make([]string, numNodes)
	for i := range addrs {
		srv, err := simcloud.NewEncryptedServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	coord, err := cluster.New(addrs, cluster.Options{Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	client, err := simcloud.DialEncrypted(coord.Addr(), key, simcloud.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Insert(data.Objects); err != nil {
		b.Fatal(err)
	}
	// One request per query object, encoded up front.
	requests := make([][]byte, 64)
	for i := range requests {
		perm := pivot.Permutation(pivots.Distances(data.Objects[i*objects/len(requests)].Vec))
		q := wire.BatchQuery{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: candSize}
		requests[i] = wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode()
	}
	for _, senders := range []int{2, 4} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			conns := make([]net.Conn, senders)
			for i := range conns {
				if conns[i], err = net.Dial("tcp", coord.Addr()); err != nil {
					b.Fatal(err)
				}
				defer conns[i].Close()
			}
			var next atomic.Int64
			var failed atomic.Value
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, conn := range conns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var frame wire.Buffer
					for {
						n := next.Add(1) - 1
						if n >= int64(b.N) {
							return
						}
						if err := wire.WriteFrame(conn, wire.MsgBatchQuery, requests[n%int64(len(requests))]); err != nil {
							failed.Store(err)
							return
						}
						typ, _, err := wire.ReadFrameInto(conn, &frame)
						if err == nil && typ != wire.MsgBatchCandidates {
							err = fmt.Errorf("reply %v", typ)
						}
						if err != nil {
							failed.Store(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if err := failed.Load(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
