package cluster_test

// End-to-end tests of the multi-node coordinator, run in-process over
// loopback TCP: equivalence of a federated cluster with a single server,
// and the failure paths the coordinator must handle (node down at connect,
// node death mid-batch refusing the dead node's cells, key-mismatch
// rejection).

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"simcloud"
	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/leaktest"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/server"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

const (
	testPivots = 8
	testBucket = 64
)

// testWorld is a generated collection plus the data owner's secret key.
type testWorld struct {
	data *simcloud.Dataset
	key  *simcloud.Key
}

func newWorld(t *testing.T, n int) *testWorld {
	t.Helper()
	data := simcloud.ClusteredData(7, n, 12, 9, simcloud.L2())
	pivots := simcloud.SelectPivots(7, data.Dist, data.Objects, testPivots)
	key, err := simcloud.GenerateKey(pivots)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{data: data, key: key}
}

func nodeConfig(eager bool) simcloud.Config {
	cfg := simcloud.DefaultConfig(testPivots)
	cfg.BucketCapacity = testBucket
	cfg.EagerRootSplit = eager
	return cfg
}

// startServer starts an encrypted server and registers its teardown.
func startServer(t *testing.T, cfg simcloud.Config) *server.Server {
	t.Helper()
	srv, err := server.NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// startCluster starts n encrypted nodes plus a coordinator fronting them.
func startCluster(t *testing.T, n int, eager bool) ([]*server.Server, *cluster.Coordinator) {
	t.Helper()
	nodes := make([]*server.Server, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startServer(t, nodeConfig(eager))
		addrs[i] = nodes[i].Addr()
	}
	coord, err := cluster.New(addrs, cluster.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return nodes, coord
}

func dial(t *testing.T, addr string, key *simcloud.Key) *core.EncryptedClient {
	t.Helper()
	client, err := core.DialEncrypted(addr, key, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// search evaluates one query without a deadline — what the tests used the
// removed per-kind convenience methods for.
func search(s core.Searcher, q core.Query) ([]core.Result, stats.Costs, error) {
	return s.Search(context.Background(), q)
}

// approxQueries builds one approximate k-NN query per vector.
func approxQueries(qs []metric.Vector, k, candSize int) []core.Query {
	out := make([]core.Query, len(qs))
	for i, q := range qs {
		out[i] = core.Query{Kind: core.KindApproxKNN, Vec: q, K: k, CandSize: candSize}
	}
	return out
}

// rawRoundTrip drives one frame exchange over a fresh connection — the
// white-box view of a server's candidate responses, bypassing client-side
// refinement so candidate order is observable.
func rawRoundTrip(t *testing.T, addr string, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return respType, resp
}

// approxCandidateIDs returns the ranked approximate candidate ID list the
// server at addr serves for query q — the exact list the acceptance
// criterion compares across deployments.
func approxCandidateIDs(t *testing.T, addr string, w *testWorld, q metric.Vector, candSize int) []uint64 {
	t.Helper()
	perm := pivot.Permutation(w.key.Pivots().Distances(q))
	return candidateIDs(t, addr, wire.BatchQuery{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: uint32(candSize)})
}

// candidateIDs sends q alone in a batch and returns its candidate IDs in
// served order.
func candidateIDs(t *testing.T, addr string, q wire.BatchQuery) []uint64 {
	t.Helper()
	respType, resp := rawRoundTrip(t, addr, wire.MsgBatchQuery,
		wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode())
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("unexpected response %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp, []wire.BatchQuery{q})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) != 1 {
		t.Fatalf("%d results for one query", len(m.Results))
	}
	ids := make([]uint64, len(m.Results[0]))
	for i, e := range m.Results[0] {
		ids[i] = e.ID
	}
	return ids
}

// downloadAll reads every entry the server at addr holds with a BatchAll
// query and returns them decrypted, by ID, failing on an entry that arrives
// twice — under R=2 each must still come from exactly one replica.
func downloadAll(t *testing.T, addr string, w *testWorld) map[uint64]metric.Vector {
	t.Helper()
	all := []wire.BatchQuery{{Kind: wire.BatchAll}}
	respType, resp := rawRoundTrip(t, addr, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: all}.Encode())
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("download-all: unexpected response %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp, all)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]metric.Vector, len(m.Results[0]))
	for _, e := range m.Results[0] {
		o, err := w.key.DecryptObject(e.Payload)
		if err != nil || o.ID != e.ID {
			t.Fatalf("download-all: entry %d decrypts to object %d (%v)", e.ID, o.ID, err)
		}
		if _, dup := out[e.ID]; dup {
			t.Fatalf("download-all: entry %d arrived twice", e.ID)
		}
		out[e.ID] = o.Vec
	}
	return out
}

// sameCollection compares two downloads: the same IDs holding the same
// vectors.
func sameCollection(a, b map[uint64]metric.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		if w, ok := b[id]; !ok || !slices.Equal(v, w) {
			return false
		}
	}
	return true
}

// firstCellIDs returns the most promising cell's entry IDs as a sorted set.
func firstCellIDs(t *testing.T, addr string, w *testWorld, q metric.Vector) []uint64 {
	t.Helper()
	perm := pivot.Permutation(w.key.Pivots().Distances(q))
	ids := candidateIDs(t, addr, wire.BatchQuery{Kind: wire.BatchFirstCell, Perm: perm})
	slices.Sort(ids)
	return ids
}

// TestClusterEquivalence asserts the acceptance criterion: a 3-node
// cluster returns the same ranked approximate candidate list as a single
// simserver over the same data, and a 1-node cluster is transparent too.
// Range queries must return the same result set, and refined k-NN answers
// must match exactly.
func TestClusterEquivalence(t *testing.T) {
	// Every pooled buffer is overwritten the moment it is released: a
	// candidate view that outlived its frame would corrupt an answer here
	// every time, not once in a while.
	wire.PoisonBuffers(t)
	w := newWorld(t, 1500)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	if _, err := refClient.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}

	for _, nodes := range []int{1, 3} {
		// A 1-node cluster needs no eager root split (there is no
		// cross-node merge); multi-node clusters require it.
		_, coord := startCluster(t, nodes, nodes > 1)
		client := dial(t, coord.Addr(), w.key)
		if _, err := client.Insert(w.data.Objects); err != nil {
			t.Fatal(err)
		}

		queries := []int{3, 123, 456, 789, 1011, 1313}
		for _, qi := range queries {
			q := w.data.Objects[qi].Vec

			// Ranked candidate lists must match element for element.
			want := approxCandidateIDs(t, ref.Addr(), w, q, 200)
			got := approxCandidateIDs(t, coord.Addr(), w, q, 200)
			if !slices.Equal(got, want) {
				t.Fatalf("%d-node cluster: query %d: candidate list diverges from single server\n got %v\nwant %v",
					nodes, qi, got, want)
			}

			// The single most promising cell must be the same cell.
			if got, want := firstCellIDs(t, coord.Addr(), w, q), firstCellIDs(t, ref.Addr(), w, q); !slices.Equal(got, want) {
				t.Fatalf("%d-node cluster: query %d: first cell diverges", nodes, qi)
			}

			// Refined answers (through the unchanged client) match too.
			wantRes, _, err := search(refClient, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			gotRes, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			if len(gotRes) != len(wantRes) {
				t.Fatalf("%d-node cluster: query %d: %d results vs %d", nodes, qi, len(gotRes), len(wantRes))
			}
			for i := range gotRes {
				if gotRes[i].ID != wantRes[i].ID || gotRes[i].Dist != wantRes[i].Dist {
					t.Fatalf("%d-node cluster: query %d: result %d diverges: %d@%g vs %d@%g",
						nodes, qi, i, gotRes[i].ID, gotRes[i].Dist, wantRes[i].ID, wantRes[i].Dist)
				}
			}

			// Precise range: same exact result set.
			wantRange, _, err := search(refClient, core.Query{Kind: core.KindRange, Vec: q, Radius: 2.5})
			if err != nil {
				t.Fatal(err)
			}
			gotRange, _, err := search(client, core.Query{Kind: core.KindRange, Vec: q, Radius: 2.5})
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := resultIDs(wantRange)
			gotIDs := resultIDs(gotRange)
			if !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("%d-node cluster: query %d: range result diverges (%d vs %d ids)",
					nodes, qi, len(gotIDs), len(wantIDs))
			}
		}

		// Batched queries go through the same merge.
		qs := make([]metric.Vector, 0, len(queries))
		for _, qi := range queries {
			qs = append(qs, w.data.Objects[qi].Vec)
		}
		wantBatch, _, err := refClient.SearchBatch(context.Background(), approxQueries(qs, 10, 200))
		if err != nil {
			t.Fatal(err)
		}
		gotBatch, _, err := client.SearchBatch(context.Background(), approxQueries(qs, 10, 200))
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantBatch {
			if !slices.Equal(resultIDList(gotBatch[i]), resultIDList(wantBatch[i])) {
				t.Fatalf("%d-node cluster: batch query %d diverges", nodes, i)
			}
		}
	}
}

func resultIDs(rs []core.Result) []uint64 {
	ids := resultIDList(rs)
	slices.Sort(ids)
	return ids
}

func resultIDList(rs []core.Result) []uint64 {
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// TestClusterDelete checks that deletes route through the coordinator and
// disappear from federated query results.
func TestClusterDelete(t *testing.T) {
	w := newWorld(t, 600)
	_, coord := startCluster(t, 3, true)
	client := dial(t, coord.Addr(), w.key)
	if _, err := client.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	victims := w.data.Objects[100:150]
	deleted, _, err := client.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != len(victims) {
		t.Fatalf("deleted %d of %d", deleted, len(victims))
	}
	q := victims[0].Vec
	res, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 5, CandSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	gone := make(map[uint64]bool, len(victims))
	for _, v := range victims {
		gone[v.ID] = true
	}
	for _, r := range res {
		if gone[r.ID] {
			t.Fatalf("deleted entry %d still returned", r.ID)
		}
	}
}

// TestMoveThroughClient moves objects the way a client does: Delete the
// old object, then Insert the new vector under the same ID. Every moved
// object's closest pivot changes both modulo 4 and modulo 3, so it changes
// shard on a 4-shard server and owners in an R=2 three-node cluster.
// Afterwards exact answers equal brute force over the updated collection,
// every ID is stored once per replica and the collection holds each once.
func TestMoveThroughClient(t *testing.T) {
	w := newWorld(t, 600)
	objs := w.data.Objects
	var olds, moved []simcloud.Object
	for i := 0; i < len(objs) && len(olds) < 40; i += 15 {
		from := cellOf(w, objs[i])
		for j := i + 7; j < i+len(objs); j++ {
			// A nudged copy of another object, so no two vectors tie.
			v := slices.Clone(objs[j%len(objs)].Vec)
			for d := range v {
				v[d] += 0.01
			}
			if to := cellOf(w, simcloud.Object{Vec: v}); to%4 != from%4 && to%3 != from%3 {
				olds = append(olds, objs[i])
				moved = append(moved, simcloud.Object{ID: objs[i].ID, Vec: v})
				break
			}
		}
	}
	if len(moved) < 30 {
		t.Fatalf("only %d objects found a cell on another shard and owner", len(moved))
	}
	want := make(map[uint64]metric.Vector, len(objs))
	for _, o := range objs {
		want[o.ID] = o.Vec
	}
	for _, o := range moved {
		want[o.ID] = o.Vec
	}

	type deployment struct {
		addr   string
		stored func() int // entries stored over every node and replica
		copies int
	}
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) deployment
	}{
		{"4-shard server", func(t *testing.T) deployment {
			cfg := nodeConfig(false)
			cfg.Shards = 4
			srv := startServer(t, cfg)
			return deployment{srv.Addr(), func() int { return srv.Index().Size() }, 1}
		}},
		{"R=2 three-node cluster", func(t *testing.T) deployment {
			nodes := make([]*server.Server, 3)
			addrs := make([]string, len(nodes))
			for i := range nodes {
				nodes[i] = startServer(t, nodeConfig(true))
				addrs[i] = nodes[i].Addr()
			}
			coord, err := cluster.New(addrs, cluster.Options{Replicas: 2, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord.Close() })
			stored := func() int {
				n := 0
				for _, s := range nodes {
					n += s.Index().Size()
				}
				return n
			}
			return deployment{coord.Addr(), stored, 2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep := tc.start(t)
			client, err := core.DialEncrypted(dep.addr, w.key, core.Options{StoreDists: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			if _, err := client.Insert(objs); err != nil {
				t.Fatal(err)
			}
			deleted, _, err := client.Delete(olds)
			if err != nil {
				t.Fatal(err)
			}
			if deleted != len(olds) {
				t.Fatalf("deleted %d of %d moved objects", deleted, len(olds))
			}
			if _, err := client.Insert(moved); err != nil {
				t.Fatal(err)
			}
			if got := dep.stored(); got != dep.copies*len(objs) {
				t.Fatalf("%d live entries stored, want %d × %d", got, dep.copies, len(objs))
			}
			if got := downloadAll(t, dep.addr, w); !sameCollection(got, want) {
				t.Fatalf("download-all holds %d entries that differ from the updated collection of %d", len(got), len(want))
			}

			var queries []metric.Vector
			for i := 0; i < len(moved); i += 4 {
				queries = append(queries, moved[i].Vec, olds[i].Vec)
			}
			for qi, q := range queries {
				brute := make([]core.Result, 0, len(want))
				for id, v := range want {
					brute = append(brute, core.Result{ID: id, Dist: w.data.Dist.Dist(q, v)})
				}
				slices.SortFunc(brute, func(a, b core.Result) int {
					if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
						return c
					}
					return cmp.Compare(a.ID, b.ID)
				})
				knn, _, err := search(client, core.Query{Kind: core.KindKNN, Vec: q, K: 10})
				if err != nil {
					t.Fatal(err)
				}
				if len(knn) != 10 {
					t.Fatalf("query %d: k-NN returned %d results, want 10", qi, len(knn))
				}
				for r := range knn {
					if knn[r].ID != brute[r].ID || knn[r].Dist != brute[r].Dist {
						t.Fatalf("query %d rank %d: k-NN has %d at %g, brute force %d at %g",
							qi, r, knn[r].ID, knn[r].Dist, brute[r].ID, brute[r].Dist)
					}
				}
				const radius = 2.5
				rng, _, err := search(client, core.Query{Kind: core.KindRange, Vec: q, Radius: radius})
				if err != nil {
					t.Fatal(err)
				}
				inRange := 0
				for inRange < len(brute) && brute[inRange].Dist <= radius {
					inRange++
				}
				got := make(map[uint64]float64, len(rng))
				for _, r := range rng {
					if _, dup := got[r.ID]; dup {
						t.Fatalf("query %d: range answer holds %d twice", qi, r.ID)
					}
					got[r.ID] = r.Dist
				}
				if len(got) != inRange {
					t.Fatalf("query %d: range answer has %d objects, brute force %d", qi, len(got), inRange)
				}
				for _, b := range brute[:inRange] {
					if d, ok := got[b.ID]; !ok || d != b.Dist {
						t.Fatalf("query %d: range answer lacks %d at %g", qi, b.ID, b.Dist)
					}
				}
			}
		})
	}
}

// TestNodeDownAtConnect: a coordinator must refuse to assemble over an
// unreachable node.
func TestNodeDownAtConnect(t *testing.T) {
	up := startServer(t, nodeConfig(true))
	// Grab a port that nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	if _, err := cluster.New([]string{up.Addr(), deadAddr}, cluster.Options{Logf: t.Logf}); err == nil {
		t.Fatal("cluster.New succeeded with an unreachable node")
	} else if !strings.Contains(err.Error(), deadAddr) {
		t.Fatalf("error does not name the unreachable node: %v", err)
	}
}

// cellOf returns o's first-level cell — its closest pivot — which the
// coordinator places on nodes cellOf mod N onward.
func cellOf(w *testWorld, o simcloud.Object) int32 {
	return pivot.Permutation(w.key.Pivots().Distances(o.Vec))[0]
}

// splitByHome splits objs, keeping their order, into those whose cell an
// n-node cluster homes on node home and the rest.
func splitByHome(w *testWorld, objs []simcloud.Object, n, home int) (on, off []simcloud.Object) {
	for _, o := range objs {
		if int(cellOf(w, o))%n == home {
			on = append(on, o)
		} else {
			off = append(off, o)
		}
	}
	return on, off
}

// wantNoLiveReplica fails unless err is the coordinator's refusal of a cell
// that has no live owner.
func wantNoLiveReplica(t *testing.T, label string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "no live replica for pivot") {
		t.Fatalf("%s: want a refusal naming a cell without a live replica, got %v", label, err)
	}
}

// TestNodeDeathRefusesItsCells: when a node of an unreplicated cluster dies
// under a batch insert, the batch is not acknowledged, and from then on the
// dead node's cells are refused — to reads, which fail rather than come back
// short, and to writes, which are refused whole before any delivery — while
// inserts and deletes that touch only live cells land exactly.
func TestNodeDeathRefusesItsCells(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 1200)
	nodes, coord := startCluster(t, 3, true)
	client := dial(t, coord.Addr(), w.key)

	first, second, third := w.data.Objects[:600], w.data.Objects[600:900], w.data.Objects[900:]
	if _, err := client.Insert(first); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].Index().Size() + nodes[1].Index().Size() + nodes[2].Index().Size(); got != len(first) {
		t.Fatalf("first batch: %d entries landed, want %d", got, len(first))
	}
	survivors := func() int { return nodes[0].Index().Size() + nodes[2].Index().Size() }

	// Kill node 1 under the coordinator. The batch that discovers the death
	// cannot be acknowledged: node 1's share of it has no other owner.
	nodes[1].Close()
	_, err := client.Insert(second)
	wantNoLiveReplica(t, "insert after node death", err)
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("coordinator sees %d live nodes, want 2 (%v)", len(live), live)
	}
	for _, query := range []core.Query{
		{Kind: core.KindApproxKNN, Vec: first[0].Vec, K: 5, CandSize: 200},
		{Kind: core.KindRange, Vec: first[0].Vec, Radius: 2.5},
	} {
		_, _, err := search(client, query)
		wantNoLiveReplica(t, "read of a degraded cluster", err)
	}

	dead, live := splitByHome(w, third, 3, 1)
	if len(dead) < 5 || len(live) < 60 {
		t.Fatalf("third batch: %d entries on the dead node's cells, %d on live ones", len(dead), len(live))
	}
	// One chunk (at most 64 entries) touching a dead cell is refused whole;
	// one touching only live cells lands.
	before := survivors()
	_, err = client.Insert(append(slices.Clone(live[:20]), dead[:5]...))
	wantNoLiveReplica(t, "insert touching a dead cell", err)
	if got := survivors(); got != before {
		t.Fatalf("a refused insert changed the survivors: %d entries, want %d", got, before)
	}
	if _, err := client.Insert(live[:60]); err != nil {
		t.Fatalf("insert of live cells only: %v", err)
	}
	if got := survivors(); got != before+60 {
		t.Fatalf("survivors hold %d entries, want %d", got, before+60)
	}

	// Deletes the same way: refused whole when a ref's cell is dead, exact
	// when every ref's cell is live.
	firstDead, firstLive := splitByHome(w, first, 3, 1)
	_, _, err = client.Delete(append(slices.Clone(firstLive[:10]), firstDead[:2]...))
	wantNoLiveReplica(t, "delete touching a dead cell", err)
	if got := survivors(); got != before+60 {
		t.Fatalf("a refused delete changed the survivors: %d entries, want %d", got, before+60)
	}
	deleted, _, err := client.Delete(append(slices.Clone(firstLive[:40]), live[:10]...))
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 50 {
		t.Fatalf("degraded delete removed %d of 50 live-cell entries", deleted)
	}
	if got := survivors(); got != before+60-50 {
		t.Fatalf("survivors hold %d entries after delete, want %d", got, before+60-50)
	}
}

// TestReplicaCountValidated: New refuses a negative replica count and one
// above the node count, each with a message of its own, and accepts 0 (one
// copy), 1 and the node count.
func TestReplicaCountValidated(t *testing.T) {
	addrs := []string{startServer(t, nodeConfig(true)).Addr(), startServer(t, nodeConfig(true)).Addr()}
	for _, tc := range []struct {
		replicas int
		want     string // "" when New must succeed
	}{
		{-1, "replica count -1 is negative"},
		{3, "3 replicas need 3 nodes, got 2"},
		{0, ""},
		{1, ""},
		{2, ""},
	} {
		coord, err := cluster.New(addrs, cluster.Options{Replicas: tc.replicas, Logf: t.Logf})
		if tc.want == "" {
			if err != nil {
				t.Fatalf("Replicas %d over 2 nodes: %v", tc.replicas, err)
			}
			coord.Close()
			continue
		}
		if err == nil || err.Error() != "cluster: "+tc.want {
			t.Fatalf("Replicas %d over 2 nodes: got %v, want %q", tc.replicas, err, tc.want)
		}
	}
}

// TestKeyMismatchRejection: nodes that disagree on the index shape (or run
// the wrong deployment) are rejected at assembly time.
func TestKeyMismatchRejection(t *testing.T) {
	base := startServer(t, nodeConfig(true))

	t.Run("different pivot count", func(t *testing.T) {
		other := simcloud.DefaultConfig(16)
		other.BucketCapacity = testBucket
		other.EagerRootSplit = true
		mismatched := startServer(t, other)
		_, err := cluster.New([]string{base.Addr(), mismatched.Addr()}, cluster.Options{Logf: t.Logf})
		if err == nil || !strings.Contains(err.Error(), "key-incompatible") {
			t.Fatalf("want key-incompatible error, got %v", err)
		}
	})

	t.Run("plain node", func(t *testing.T) {
		data := simcloud.ClusteredData(3, 100, 12, 4, simcloud.L2())
		pivots := simcloud.SelectPivots(3, data.Dist, data.Objects, testPivots)
		plain, err := simcloud.NewPlainServer(nodeConfig(false), pivots)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { plain.Close() })
		_, err = cluster.New([]string{plain.Addr()}, cluster.Options{Logf: t.Logf})
		if err == nil || !strings.Contains(err.Error(), "plain deployment") {
			t.Fatalf("want plain-deployment rejection, got %v", err)
		}
	})

	t.Run("protocol version", func(t *testing.T) {
		// A node answering the hello in the version-1 shape (no trailing
		// version field) is refused at admission, naming both versions —
		// not mis-decoded and federated.
		current := wire.HelloResp{
			Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivots,
			MaxLevel: 8, BucketCapacity: testBucket, Ranking: 1, EagerRootSplit: true, Shards: 1,
		}.Encode()
		v1 := stubNode(t, current[:len(current)-4])
		_, err := cluster.New([]string{v1.Addr()}, cluster.Options{Logf: t.Logf})
		speaks := fmt.Sprintf("speaks v%d", wire.ProtocolVersion)
		if err == nil || !strings.Contains(err.Error(), "protocol v1") || !strings.Contains(err.Error(), speaks) {
			t.Fatalf("want a refusal naming protocol v1 and %q, got %v", speaks, err)
		}
	})

	t.Run("missing eager root split", func(t *testing.T) {
		a, b := startServer(t, nodeConfig(false)), startServer(t, nodeConfig(false))
		_, err := cluster.New([]string{a.Addr(), b.Addr()}, cluster.Options{Logf: t.Logf})
		if err == nil || !strings.Contains(err.Error(), "eager") {
			t.Fatalf("want eager-root-split rejection, got %v", err)
		}
	})
}

// stubNode serves as a node that answers hellos with the given raw payload
// and, from the first other request on, never answers on that connection
// again: the request hangs until the test ends.
func stubNode(t *testing.T, hello []byte) *wire.Server {
	t.Helper()
	hang := make(chan struct{})
	node := frameNode(t, func(typ wire.MsgType, _ []byte, _ time.Time, _ *wire.Buffer) (wire.MsgType, []byte, error) {
		if typ != wire.MsgHello {
			<-hang
			return 0, nil, errors.New("stub node: test over")
		}
		return wire.MsgHelloAck, hello, nil
	})
	t.Cleanup(func() { close(hang) }) // runs before the node's Close
	return node
}

// TestCloseUnblocksHungNode: Close must terminate even while a request is
// blocked mid-round-trip on a node that answers the hello and then goes
// silent (with the default NodeTimeout of 0, only closing the node socket
// can unblock that read).
func TestCloseUnblocksHungNode(t *testing.T) {
	leaktest.Check(t)
	node := stubNode(t, wire.HelloResp{
		Version: wire.ProtocolVersion,
		Mode:    wire.HelloModeEncrypted, NumPivots: testPivots,
		MaxLevel: 8, BucketCapacity: testBucket,
		Ranking: 1, EagerRootSplit: true, Shards: 1,
	}.Encode())

	coord, err := cluster.New([]string{node.Addr()}, cluster.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Park a request on the hung node.
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchRange, Dists: make([]float64, testPivots), Radius: 1},
	}}.Encode()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the handler reach the node read

	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked behind the hung node round trip")
	}
}

// TestCoordinatorHello: the coordinator answers hello with the agreed
// shape and cluster-wide entry count.
func TestCoordinatorHello(t *testing.T) {
	w := newWorld(t, 300)
	_, coord := startCluster(t, 3, true)
	client := dial(t, coord.Addr(), w.key)
	if _, err := client.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	respType, resp := rawRoundTrip(t, coord.Addr(), wire.MsgHello, wire.HelloReq{}.Encode())
	if respType != wire.MsgHelloAck {
		t.Fatalf("unexpected hello response %v", respType)
	}
	info, err := wire.DecodeHelloResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != wire.HelloModeEncrypted || info.NumPivots != testPivots {
		t.Fatalf("hello shape mismatch: %+v", info)
	}
	if info.Entries != uint64(len(w.data.Objects)) {
		t.Fatalf("hello reports %d entries, want %d", info.Entries, len(w.data.Objects))
	}
}

// TestUnfederatedRequestRejected: requests the coordinator does not
// federate must fail loudly, not silently go to one node — the blob store,
// every reserved message number (refused naming the version that retired it
// and the replacement), and client reads that set the node-hop fields the
// coordinator itself owns (ranked replies, first-level allow-lists). One
// connection carries every refusal and stays usable after each.
func TestUnfederatedRequestRejected(t *testing.T) {
	_, coord := startCluster(t, 2, true)
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
		respType, resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return respType, resp
	}
	lone := []wire.BatchQuery{{Kind: wire.BatchRange, Dists: make([]float64, testPivots), Radius: 1}}
	all := []wire.BatchQuery{{Kind: wire.BatchAll}}
	type refusal struct {
		typ     wire.MsgType
		payload []byte
		want    string
	}
	cases := []refusal{
		{wire.MsgGetBlobs, wire.GetBlobsReq{Space: wire.SpaceRaw, Keys: []uint64{1}}.Encode(), "not federated"},
		{wire.MsgPutBlobs, wire.PutBlobsReq{Space: wire.SpaceRaw}.Encode(), "not federated"},
		{wire.MsgBatchQuery, wire.BatchQueryReq{Queries: lone, Ranked: true}.Encode(), "node-level"},
		{wire.MsgBatchQuery, wire.BatchQueryReq{Queries: lone, Allow: []int32{0}}.Encode(), "node-level"},
		{wire.MsgBatchQuery, wire.BatchQueryReq{Queries: all, Allow: []int32{0}}.Encode(), "node-level"},
		{wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
			{Kind: wire.BatchApproxPerm, Perm: []int32{0, 0}, CandSize: 3}}}.Encode(), "batch query 0"},
	}
	reserved := 0
	for _, r := range []struct {
		typs []wire.MsgType
		want string
	}{
		{[]wire.MsgType{4, 5, 6, 7, 29, 33}, "retired in protocol v2; send batch-query"},
		{[]wire.MsgType{11, 19}, "retired in protocol v4; send batch-query"},
		{[]wire.MsgType{8, 9, 10, 32}, "retired in protocol v4; send plain-query"},
		{[]wire.MsgType{16, 18, 20}, "retired in protocol v4; send put-blobs"},
		{[]wire.MsgType{14, 15, 17, 21, 22}, "retired in protocol v4; send get-blobs"},
		{[]wire.MsgType{2}, "retired in protocol v5; send ingest-chunk"},
		{[]wire.MsgType{3}, "retired in protocol v5; send ingest-obj-chunk"},
	} {
		for _, typ := range r.typs {
			cases = append(cases, refusal{typ, []byte{1}, r.want})
			reserved++
		}
	}
	if reserved != 22 {
		t.Fatalf("%d reserved numbers listed, want 22", reserved)
	}
	for _, tc := range cases {
		respType, resp := exchange(tc.typ, tc.payload)
		if respType != wire.MsgError {
			t.Fatalf("%v: unexpected response %v", tc.typ, respType)
		}
		m, err := wire.DecodeErrorResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(m.Msg, tc.want) {
			t.Fatalf("%v: error %q does not mention %q", tc.typ, m.Msg, tc.want)
		}
		if respType, _ := exchange(wire.MsgHello, nil); respType != wire.MsgHelloAck {
			t.Fatalf("connection unusable after refusing %v: %v", tc.typ, respType)
		}
	}
}

// TestClusterAllKind: download-all through the coordinator is a BatchAll
// query fanned out like any other kind. Under R=1 and under R=2's
// one-owner-per-cell allow-lists it returns exactly the collection a single
// server holding the same objects returns, each entry once — after inserts
// and after deletes.
func TestClusterAllKind(t *testing.T) {
	wire.PoisonBuffers(t)
	w := newWorld(t, 900)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	if _, err := refClient.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	victims := w.data.Objects[200:260]
	if _, _, err := refClient.Delete(victims); err != nil {
		t.Fatal(err)
	}
	want := downloadAll(t, ref.Addr(), w)
	if len(want) != len(w.data.Objects)-len(victims) {
		t.Fatalf("reference server downloads %d entries, want %d", len(want), len(w.data.Objects)-len(victims))
	}
	for _, replicas := range []int{1, 2} {
		addrs := make([]string, 3)
		for i := range addrs {
			addrs[i] = startServer(t, nodeConfig(true)).Addr()
		}
		coord, err := cluster.New(addrs, cluster.Options{Replicas: replicas, Logf: t.Logf})
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
		if got := downloadAll(t, coord.Addr(), w); len(got) != len(w.data.Objects) {
			t.Fatalf("R=%d: cluster downloads %d entries before the deletes, want %d", replicas, len(got), len(w.data.Objects))
		}
		if _, _, err := client.Delete(victims); err != nil {
			t.Fatal(err)
		}
		if got := downloadAll(t, coord.Addr(), w); !sameCollection(got, want) {
			t.Fatalf("R=%d: cluster download (%d entries) differs from the single server's (%d)", replicas, len(got), len(want))
		}
	}
}

// TestClusterBoundOrder: with stored pivot distances a precise k-NN's first
// page — a range of radius +Inf cut at its candidate size — is merged across
// nodes by (bound, ID), under R=1 and under R=2's one-owner-per-cell
// allow-lists, into exactly the single server's page, trailer included, and
// the precise answers match it result for result.
func TestClusterBoundOrder(t *testing.T) {
	wire.PoisonBuffers(t)
	w := newWorld(t, 1200)
	opts := core.Options{StoreDists: true}
	ref := startServer(t, nodeConfig(false))
	refClient, err := core.DialEncrypted(ref.Addr(), w.key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refClient.Close() })
	if _, err := refClient.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	page := func(addr string, q wire.BatchQuery) ([]uint64, wire.Page) {
		respType, resp := rawRoundTrip(t, addr, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode())
		if respType != wire.MsgBatchCandidates {
			t.Fatalf("unexpected response %v", respType)
		}
		m, err := wire.DecodeBatchQueryResp(resp, []wire.BatchQuery{q})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(m.Results[0]))
		for i, e := range m.Results[0] {
			ids[i] = e.ID
		}
		return ids, m.Pages[0]
	}
	for _, replicas := range []int{1, 2} {
		addrs := make([]string, 3)
		for i := range addrs {
			addrs[i] = startServer(t, nodeConfig(true)).Addr()
		}
		coord, err := cluster.New(addrs, cluster.Options{Replicas: replicas, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		client, err := core.DialEncrypted(coord.Addr(), w.key, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if _, err := client.Insert(w.data.Objects); err != nil {
			t.Fatal(err)
		}
		for _, qi := range []int{3, 456, 1011} {
			q := w.data.Objects[qi].Vec
			bound := wire.BatchQuery{Kind: wire.BatchRange, Dists: w.key.Pivots().Distances(q), Radius: math.Inf(1), CandSize: 150}
			gotIDs, gotPage := page(coord.Addr(), bound)
			wantIDs, wantPage := page(ref.Addr(), bound)
			if !slices.Equal(gotIDs, wantIDs) || gotPage != wantPage || !wantPage.Full || len(wantIDs) != 150 {
				t.Fatalf("R=%d query %d: bound page (%d, %+v) diverges from the single server's (%d, %+v)",
					replicas, qi, len(gotIDs), gotPage, len(wantIDs), wantPage)
			}
			knn := core.Query{Kind: core.KindKNN, Vec: q, K: 10}
			want, _, err := search(refClient, knn)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := search(client, knn)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(resultIDList(got), resultIDList(want)) || len(want) != 10 {
				t.Fatalf("R=%d query %d: precise k-NN %v, single server %v", replicas, qi, resultIDList(got), resultIDList(want))
			}
		}
	}
}

// TestClusterHostileCandSize: a candidate size of 2^31 or 2^32-1 through the
// coordinator, in promise or in bound order, returns what the nodes hold —
// it neither crashes a node nor overflows the coordinator's trim. A cursor
// the coordinator cannot have sent is refused before any node sees it.
func TestClusterHostileCandSize(t *testing.T) {
	w := newWorld(t, 300)
	_, coord := startCluster(t, 3, true)
	client := dial(t, coord.Addr(), w.key)
	if _, err := client.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	qDists := w.key.Pivots().Distances(w.data.Objects[0].Vec)
	for _, candSize := range []uint32{1 << 31, math.MaxUint32} {
		if got := approxCandidateIDs(t, coord.Addr(), w, w.data.Objects[0].Vec, int(candSize)); len(got) != len(w.data.Objects) {
			t.Fatalf("candSize %d returned %d candidates, want all %d", candSize, len(got), len(w.data.Objects))
		}
		bound := wire.BatchQuery{Kind: wire.BatchRange, Dists: qDists, Radius: math.Inf(1), CandSize: candSize}
		if got := candidateIDs(t, coord.Addr(), bound); len(got) != len(w.data.Objects) {
			t.Fatalf("bound-ordered candSize %d returned %d candidates, want all %d", candSize, len(got), len(w.data.Objects))
		}
	}
	for _, after := range []mindex.BoundKey{{LB: math.NaN()}, {LB: math.Inf(1)}, {LB: -1}} {
		q := wire.BatchQuery{Kind: wire.BatchRange, Dists: qDists, Radius: 1, After: &after}
		respType, resp := rawRoundTrip(t, coord.Addr(), wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode())
		if respType != wire.MsgError {
			t.Fatalf("cursor %v: got %v, want an error", after, respType)
		}
		if m, err := wire.DecodeErrorResp(resp); err != nil || !strings.Contains(m.Msg, "cursor bound") {
			t.Fatalf("cursor %v: error %q (%v) does not name the cursor", after, m.Msg, err)
		}
	}
}
