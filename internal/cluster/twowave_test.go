package cluster_test

// Tests of the coordinator's two-wave approximate read: each node first
// answers with cell counts, and then ships only the candidates that win the
// merge. A frame-level relay in front of every node counts what crosses the
// node hop and lets a test act between a node's count reply and the fetch.

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"simcloud"
	"simcloud/internal/cluster"
	"simcloud/internal/faultnet"
	"simcloud/internal/leaktest"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/wire"
)

// relay forwards every frame between the coordinator and one node (or a
// client and the coordinator) unchanged. Of the replies it counts the bytes
// (frame headers included), the largest frame and the candidates of ranked
// replies, and it runs onCounts, when set, before it forwards a count reply
// — the point between a node's first wave and the coordinator's second —
// onAck, when set, before it forwards an ingest-chunk ack, and onPage, when
// set, before it forwards a flat candidate reply — the point between two
// pages of a client's read.
type relay struct {
	ln         net.Listener
	backend    string
	replyBytes atomic.Int64
	maxReply   atomic.Int64
	replies    atomic.Int64
	fetched    atomic.Int64
	onCounts   atomic.Pointer[func()]
	onAck      atomic.Pointer[func()]
	onPage     atomic.Pointer[func()]

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startRelay(t *testing.T, backend string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, backend: backend}
	r.wg.Add(1)
	go r.accept()
	t.Cleanup(r.close)
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) reset() {
	r.replyBytes.Store(0)
	r.maxReply.Store(0)
	r.replies.Store(0)
	r.fetched.Store(0)
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		front, err := r.ln.Accept()
		if err != nil {
			return
		}
		back, err := net.Dial("tcp", r.backend)
		if err != nil {
			front.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, front, back)
		r.mu.Unlock()
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			// Plain reads and writes: a TCP-to-TCP io.Copy splices through
			// pooled pipes that outlive the test and read as leaked
			// descriptors.
			io.Copy(struct{ io.Writer }{back}, struct{ io.Reader }{front})
			back.Close()
			front.Close()
		}()
		go func() {
			defer r.wg.Done()
			defer front.Close()
			defer back.Close()
			for {
				typ, payload, err := wire.ReadFrame(back)
				if err != nil {
					return
				}
				size := int64(len(payload) + 5)
				r.replyBytes.Add(size)
				r.replies.Add(1)
				for m := r.maxReply.Load(); size > m && !r.maxReply.CompareAndSwap(m, size); m = r.maxReply.Load() {
				}
				switch typ {
				case wire.MsgBatchRankedCandidates:
					if m, err := wire.DecodeBatchRankedResp(payload); err == nil {
						for _, rcs := range m.Results {
							r.fetched.Add(int64(len(rcs)))
						}
					}
				case wire.MsgBatchCellCounts:
					if hook := r.onCounts.Load(); hook != nil {
						(*hook)()
					}
				case wire.MsgIngestChunkAck:
					if hook := r.onAck.Load(); hook != nil {
						(*hook)()
					}
				case wire.MsgBatchCandidates:
					if hook := r.onPage.Load(); hook != nil {
						(*hook)()
					}
				}
				if err := wire.WriteFrame(front, typ, payload); err != nil {
					return
				}
			}
		}()
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// startRelayedCluster starts a coordinator over the given node addresses,
// each behind a relay.
func startRelayedCluster(t *testing.T, backends []string, replicas int) (*cluster.Coordinator, []*relay) {
	t.Helper()
	relays := make([]*relay, len(backends))
	addrs := make([]string, len(backends))
	for i, b := range backends {
		relays[i] = startRelay(t, b)
		addrs[i] = relays[i].addr()
	}
	coord, err := cluster.New(addrs, cluster.Options{Replicas: replicas, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, relays
}

// cophirWorld is a CoPhIR collection: 1.2 KB ciphertexts, large next to the
// ranking annotations a node adds to each candidate, as in the benchmark's
// chain_refine workload.
func cophirWorld(t *testing.T, n int) *testWorld {
	t.Helper()
	data := simcloud.CoPhIRData(n)
	key, err := simcloud.GenerateKey(simcloud.SelectPivots(11, data.Dist, data.Objects, testPivots))
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{data: data, key: key}
}

// TestApproxReadFetchesWinnersOnly: over 3 nodes, replicated or not, with
// one or two shards a node, an approximate read returns the single
// server's candidate list, the nodes ship exactly min(CandSize, live)
// candidates between them — those that win the merge — and everything the
// nodes send the coordinator, count wave included, is within 1.2× of what
// the coordinator sends the client. A one-wave read, where every node ships
// a full CandSize, sends about three times that.
func TestApproxReadFetchesWinnersOnly(t *testing.T) {
	leaktest.Check(t)
	const live = 3000
	w := cophirWorld(t, live)
	ref := startServer(t, nodeConfig(false))
	if _, err := dial(t, ref.Addr(), w.key).Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 2} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("R=%d/shards=%d", replicas, shards), func(t *testing.T) {
				cfg := nodeConfig(true)
				cfg.Shards = shards
				backends := make([]string, 3)
				for i := range backends {
					backends[i] = startServer(t, cfg).Addr()
				}
				coord, relays := startRelayedCluster(t, backends, replicas)
				if _, err := dial(t, coord.Addr(), w.key).Insert(w.data.Objects); err != nil {
					t.Fatal(err)
				}
				for _, qi := range []int{3, 700, 2999} {
					for _, candSize := range []int{400, live + 100} {
						for _, r := range relays {
							r.reset()
						}
						q := w.data.Objects[qi].Vec
						got, clientBytes := approxRead(t, coord.Addr(), w, q, candSize)
						if want := approxCandidateIDs(t, ref.Addr(), w, q, candSize); !slices.Equal(got, want) {
							t.Fatalf("query %d, CandSize %d: candidate list diverges from the single server", qi, candSize)
						}
						var fetched, nodeBytes int64
						for _, r := range relays {
							fetched += r.fetched.Load()
							nodeBytes += r.replyBytes.Load()
						}
						if want := int64(min(candSize, live)); fetched != want {
							t.Fatalf("query %d, CandSize %d: nodes shipped %d candidates, want %d", qi, candSize, fetched, want)
						}
						ratio := float64(nodeBytes) / float64(clientBytes)
						if ratio > 1.2 {
							t.Fatalf("query %d, CandSize %d: nodes sent %d B for a %d B reply (%.2f×), want ≤ 1.2×",
								qi, candSize, nodeBytes, clientBytes, ratio)
						}
						t.Logf("query %d, CandSize %d: nodes sent %d B for a %d B reply (%.3f×)", qi, candSize, nodeBytes, clientBytes, ratio)
					}
				}
			})
		}
	}
}

// approxRead sends one approximate query to addr and returns its candidate
// IDs and the size of the reply frame.
func approxRead(t *testing.T, addr string, w *testWorld, q metric.Vector, candSize int) ([]uint64, int) {
	t.Helper()
	wq := wire.BatchQuery{Kind: wire.BatchApproxPerm, Perm: pivot.Permutation(w.key.Pivots().Distances(q)), CandSize: uint32(candSize)}
	respType, resp := rawRoundTrip(t, addr, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{wq}}.Encode())
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("unexpected response %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp, []wire.BatchQuery{wq})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(m.Results[0]))
	for i, e := range m.Results[0] {
		ids[i] = e.ID
	}
	return ids, len(resp) + 5
}

// TestApproxReadNodeKilledBetweenWaves: a node partitioned away after it
// sent its counts and before the fetch fails the attempt, and the retry over
// the reassigned owners of an R=2 cluster answers exactly as a healthy
// single server does; once healed and re-admitted the node serves again.
func TestApproxReadNodeKilledBetweenWaves(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 1500)
	ref := startServer(t, nodeConfig(false))
	if _, err := dial(t, ref.Addr(), w.key).Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	proxies := make([]*faultnet.Proxy, 3)
	backends := make([]string, 3)
	for i := range proxies {
		proxies[i] = startFaultProxy(t, startServer(t, nodeConfig(true)).Addr(), faultnet.Clean())
		backends[i] = proxies[i].Addr()
	}
	coord, relays := startRelayedCluster(t, backends, 2)
	if _, err := dial(t, coord.Addr(), w.key).Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	q := w.data.Objects[123].Vec
	want := approxCandidateIDs(t, ref.Addr(), w, q, 200)

	// Kill the node that contributes most, so the fetch wave must reach it.
	for _, r := range relays {
		r.reset()
	}
	if got := approxCandidateIDs(t, coord.Addr(), w, q, 200); !slices.Equal(got, want) {
		t.Fatal("healthy cluster: candidate list diverges from the single server")
	}
	victim := 0
	for i, r := range relays {
		if r.fetched.Load() > relays[victim].fetched.Load() {
			victim = i
		}
	}
	var once sync.Once
	kill := func() { once.Do(func() { proxies[victim].Partition(true) }) }
	relays[victim].onCounts.Store(&kill)
	if got := approxCandidateIDs(t, coord.Addr(), w, q, 200); !slices.Equal(got, want) {
		t.Fatal("node killed between the waves: candidate list diverges from the single server")
	}
	relays[victim].onCounts.Store(nil)
	if live := coord.LiveNodes(); len(live) != 2 || slices.Contains(live, backends[victim]) {
		t.Fatalf("live nodes %v after node %d died in the fetch wave", live, victim)
	}

	proxies[victim].Partition(false)
	if n := coord.ProbeDownNodes(context.Background()); n != 1 {
		t.Fatalf("re-admitted %d nodes, want 1", n)
	}
	if got := approxCandidateIDs(t, coord.Addr(), w, q, 200); !slices.Equal(got, want) {
		t.Fatal("after re-admission: candidate list diverges from the single server")
	}
}

// TestApproxReadDeleteBetweenWaves: a delete that lands between a read's
// count wave and its fetch wave costs the read nothing but the deleted
// entry — no error, and the deleted ID is not in the answer.
func TestApproxReadDeleteBetweenWaves(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 1500)
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			backends := make([]string, 3)
			for i := range backends {
				backends[i] = startServer(t, nodeConfig(true)).Addr()
			}
			coord, relays := startRelayedCluster(t, backends, replicas)
			client := dial(t, coord.Addr(), w.key)
			if _, err := client.Insert(w.data.Objects); err != nil {
				t.Fatal(err)
			}
			q := w.data.Objects[456].Vec
			before := approxCandidateIDs(t, coord.Addr(), w, q, 200)
			victim := before[0]
			i := slices.IndexFunc(w.data.Objects, func(o metric.Object) bool { return o.ID == victim })

			var once sync.Once
			var hookErr error
			del := func() {
				once.Do(func() {
					n, _, err := client.Delete([]metric.Object{w.data.Objects[i]})
					if err == nil && n != 1 {
						err = fmt.Errorf("deleted %d entries, want 1", n)
					}
					hookErr = err
				})
			}
			relays[0].onCounts.Store(&del)
			got := approxCandidateIDs(t, coord.Addr(), w, q, 200)
			relays[0].onCounts.Store(nil)
			if hookErr != nil {
				t.Fatalf("delete between the waves: %v", hookErr)
			}
			if slices.Contains(got, victim) {
				t.Fatalf("deleted entry %d is in the answer", victim)
			}
			if len(got) == 0 || len(got) > 200 {
				t.Fatalf("%d candidates after the delete", len(got))
			}
		})
	}
}
