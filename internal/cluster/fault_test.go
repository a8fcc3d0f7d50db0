package cluster_test

// Deterministic fault-injection tests of the cluster, at R=1 and R=2:
// WAL-backed nodes behind faultnet proxies, killed and restarted mid-run,
// with every answer compared byte-for-byte against a healthy single server. The fault
// schedule is seeded, so the whole suite is reproducible under -race.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simcloud"
	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/engine"
	"simcloud/internal/faultnet"
	"simcloud/internal/leaktest"
	"simcloud/internal/server"
	"simcloud/internal/wal"
	"simcloud/internal/wire"
)

// startWALServer boots (or re-boots) an encrypted node whose entry store is
// recovered from the write-ahead log in dir: open the log, replay the
// surviving records into a fresh engine, attach the log for new mutations,
// and serve. On first boot the log is empty and this is a plain cold start.
func startWALServer(t *testing.T, cfg simcloud.Config, dir string) *server.Server {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(dir, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Replay(recs, eng); err != nil {
		t.Fatal(err)
	}
	srv := server.NewEncryptedWithEngine(eng)
	srv.AttachWAL(l)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		l.Close()
	})
	return srv
}

// startProxy fronts a node with a fault-injecting proxy so the node can be
// killed and restarted on a fresh port while the coordinator keeps one
// stable address to re-dial.
func startFaultProxy(t *testing.T, backend string, sched faultnet.Schedule) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.Listen("127.0.0.1:0", backend, sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func resultsEqual(a, b []core.Result) bool {
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

// TestReplicatedEquivalenceUnderFaults is the acceptance test: an R=2,
// 3-node cluster of WAL-backed servers behind seeded fault proxies is
// driven through node kills, WAL restarts, journal re-syncs and a network
// partition, and after (and during) every fault the cluster's answers to
// all four query kinds, and its download of everything, stay identical to a
// healthy single server over the same logical collection.
func TestReplicatedEquivalenceUnderFaults(t *testing.T) {
	// Every pooled buffer is overwritten the moment it is released: a
	// candidate view that outlived its frame would corrupt an answer here
	// every time, not once in a while.
	wire.PoisonBuffers(t)
	w := newWorld(t, 1500)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)

	cfg := nodeConfig(true)
	const numNodes = 3
	dirs := make([]string, numNodes)
	srvs := make([]*server.Server, numNodes)
	proxies := make([]*faultnet.Proxy, numNodes)
	addrs := make([]string, numNodes)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i] = startWALServer(t, cfg, dirs[i])
		proxies[i] = startFaultProxy(t, srvs[i].Addr(), faultnet.Seeded(42+int64(i)))
		addrs[i] = proxies[i].Addr()
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

	queries := []int{3, 123, 456, 789, 1011, 1313}
	check := func(label string) {
		t.Helper()
		if got, want := downloadAll(t, coord.Addr(), w), downloadAll(t, ref.Addr(), w); !sameCollection(got, want) {
			t.Fatalf("%s: download-all (%d entries) diverges from single server (%d)", label, len(got), len(want))
		}
		for _, qi := range queries {
			q := w.data.Objects[qi].Vec

			// The raw ranked candidate stream, element for element.
			want := approxCandidateIDs(t, ref.Addr(), w, q, 200)
			got := approxCandidateIDs(t, coord.Addr(), w, q, 200)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: query %d: candidate list diverges from single server\n got %v\nwant %v",
					label, qi, got, want)
			}
			if got, want := firstCellIDs(t, coord.Addr(), w, q), firstCellIDs(t, ref.Addr(), w, q); !slices.Equal(got, want) {
				t.Fatalf("%s: query %d: first cell diverges", label, qi)
			}

			// All four refined query kinds through the unchanged client.
			wantRange, _, err := search(refClient, core.Query{Kind: core.KindRange, Vec: q, Radius: 2.5})
			if err != nil {
				t.Fatal(err)
			}
			gotRange, _, err := search(client, core.Query{Kind: core.KindRange, Vec: q, Radius: 2.5})
			if err != nil {
				t.Fatalf("%s: query %d: range: %v", label, qi, err)
			}
			if !slices.Equal(resultIDs(gotRange), resultIDs(wantRange)) {
				t.Fatalf("%s: query %d: range result diverges (%d vs %d ids)",
					label, qi, len(gotRange), len(wantRange))
			}
			wantKNN, _, err := search(refClient, core.Query{Kind: core.KindKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			gotKNN, _, err := search(client, core.Query{Kind: core.KindKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatalf("%s: query %d: knn: %v", label, qi, err)
			}
			if !resultsEqual(gotKNN, wantKNN) {
				t.Fatalf("%s: query %d: knn diverges", label, qi)
			}
			wantApprox, _, err := search(refClient, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			gotApprox, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatalf("%s: query %d: approx knn: %v", label, qi, err)
			}
			if !resultsEqual(gotApprox, wantApprox) {
				t.Fatalf("%s: query %d: approx knn diverges", label, qi)
			}
			wantCell, _, err := search(refClient, core.Query{Kind: core.KindFirstCell, Vec: q, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			gotCell, _, err := search(client, core.Query{Kind: core.KindFirstCell, Vec: q, K: 5})
			if err != nil {
				t.Fatalf("%s: query %d: first-cell knn: %v", label, qi, err)
			}
			if !resultsEqual(gotCell, wantCell) {
				t.Fatalf("%s: query %d: first-cell knn diverges", label, qi)
			}
		}
	}
	insertBoth := func(objs []simcloud.Object) {
		t.Helper()
		if _, err := refClient.Insert(objs); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Insert(objs); err != nil {
			t.Fatal(err)
		}
	}
	// The initial bulk goes through the streaming ingest pipeline on both
	// sides: the fault sweep then runs against state seeded the way a real
	// bulk load arrives (pipelined chunk frames, replicated fan-out), and
	// every later equivalence check doubles as proof that streamed and
	// batched ingest converge to the same served state.
	streamBoth := func(objs []simcloud.Object) {
		t.Helper()
		if _, err := refClient.InsertStream(objs); err != nil {
			t.Fatal(err)
		}
		if _, err := client.InsertStream(objs); err != nil {
			t.Fatal(err)
		}
	}
	deleteBoth := func(objs []simcloud.Object) {
		t.Helper()
		wantDel, _, err := refClient.Delete(objs)
		if err != nil {
			t.Fatal(err)
		}
		gotDel, _, err := client.Delete(objs)
		if err != nil {
			t.Fatal(err)
		}
		if gotDel != wantDel || gotDel != len(objs) {
			t.Fatalf("cluster deleted %d, single server %d, want %d", gotDel, wantDel, len(objs))
		}
	}

	first, second := w.data.Objects[:1000], w.data.Objects[1000:]
	streamBoth(first)
	check("healthy")

	// Kill node 1 mid-run, then keep writing: inserts and deletes owned by
	// the dead node must journal on the coordinator while their second
	// replica keeps the data served exactly.
	srvs[1].Close()
	insertBoth(second)
	deleteBoth(w.data.Objects[100:150])
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("after kill: %d live nodes, want 2 (%v)", len(live), live)
	}
	check("degraded")

	// Restart node 1 from its WAL on a fresh port and re-admit it: WAL
	// replay restores the pre-crash state, the journal replay delivers the
	// writes it missed.
	srvs[1] = startWALServer(t, cfg, dirs[1])
	proxies[1].SetBackend(srvs[1].Addr())
	if n := coord.ProbeDownNodes(context.Background()); n != 1 {
		t.Fatalf("probe re-admitted %d nodes, want 1", n)
	}
	if live := coord.LiveNodes(); len(live) != numNodes {
		t.Fatalf("after re-admission: %d live nodes, want %d (%v)", len(live), numNodes, live)
	}
	check("recovered")

	// Kill node 0: the cells it owned fail over to their backup — the node
	// that was just recovered from WAL + journal replay — so this check
	// proves the recovered state is byte-identical, not merely similar.
	srvs[0].Close()
	check("failover-to-recovered")
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("after second kill: %d live nodes, want 2 (%v)", len(live), live)
	}
	srvs[0] = startWALServer(t, cfg, dirs[0])
	proxies[0].SetBackend(srvs[0].Addr())
	if n := coord.ProbeDownNodes(context.Background()); n != 1 {
		t.Fatalf("probe re-admitted %d nodes, want 1", n)
	}
	check("healed")

	// Partition node 2 at the network (process stays up), write through the
	// outage, heal, re-admit: the journaled deletes replay on re-admission.
	proxies[2].Partition(true)
	deleteBoth(w.data.Objects[200:230])
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("during partition: %d live nodes, want 2 (%v)", len(live), live)
	}
	check("partitioned")
	proxies[2].Partition(false)
	if n := coord.ProbeDownNodes(context.Background()); n != 1 {
		t.Fatalf("probe re-admitted %d nodes after heal, want 1", n)
	}
	check("journal-replayed")

	// R=2 invariant: after every node is live and re-synced, the cluster
	// holds exactly two copies of each surviving entry.
	total := len(w.data.Objects) - 50 - 30
	sum := 0
	for _, s := range srvs {
		sum += s.Index().Size()
	}
	if sum != 2*total {
		t.Fatalf("nodes hold %d entries total, want %d (2 copies of %d)", sum, 2*total, total)
	}
}

// checkFourKinds fails unless got answers all four refined query kinds for
// every vector of qs exactly as want does, and the ranked candidate list and
// download-all of the server at gotAddr equal those at wantAddr.
func checkFourKinds(t *testing.T, label string, w *testWorld, got, want core.Searcher, gotAddr, wantAddr string, qs []int) {
	t.Helper()
	if g, wa := downloadAll(t, gotAddr, w), downloadAll(t, wantAddr, w); !sameCollection(g, wa) {
		t.Fatalf("%s: download-all (%d entries) diverges from single server (%d)", label, len(g), len(wa))
	}
	for _, qi := range qs {
		q := w.data.Objects[qi].Vec
		if g, wa := approxCandidateIDs(t, gotAddr, w, q, 200), approxCandidateIDs(t, wantAddr, w, q, 200); !slices.Equal(g, wa) {
			t.Fatalf("%s: query %d: candidate list diverges from single server\n got %v\nwant %v", label, qi, g, wa)
		}
		for _, query := range []core.Query{
			{Kind: core.KindRange, Vec: q, Radius: 2.5},
			{Kind: core.KindKNN, Vec: q, K: 10, CandSize: 200},
			{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200},
			{Kind: core.KindFirstCell, Vec: q, K: 5},
		} {
			wantRes, _, err := search(want, query)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, _, err := search(got, query)
			if err != nil {
				t.Fatalf("%s: query %d kind %v: %v", label, qi, query.Kind, err)
			}
			same := resultsEqual(gotRes, wantRes)
			if query.Kind == core.KindRange {
				same = slices.Equal(resultIDs(gotRes), resultIDs(wantRes))
			}
			if !same {
				t.Fatalf("%s: query %d kind %v: %d results diverge from the single server's %d",
					label, qi, query.Kind, len(gotRes), len(wantRes))
			}
		}
	}
}

// TestReprobeReadmitsNode: an unreplicated (R=1) cluster of WAL-backed
// nodes loses node 1. Reads then fail rather than come back short, a write
// touching node 1's cells is refused whole before any delivery, and one
// touching only node 0's cells lands. The background re-probe loop re-admits
// the node restarted from its WAL without operator intervention, after which
// all four query kinds equal a healthy single server holding the
// acknowledged writes, and deletes of entries written before and after the
// kill are exact.
func TestReprobeReadmitsNode(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 400)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	cfg := nodeConfig(true)
	dirs := []string{t.TempDir(), t.TempDir()}
	srvs := []*server.Server{
		startWALServer(t, cfg, dirs[0]),
		startWALServer(t, cfg, dirs[1]),
	}
	proxies := []*faultnet.Proxy{
		startFaultProxy(t, srvs[0].Addr(), faultnet.Clean()),
		startFaultProxy(t, srvs[1].Addr(), faultnet.Clean()),
	}
	coord, err := cluster.New([]string{proxies[0].Addr(), proxies[1].Addr()},
		cluster.Options{ReprobeInterval: 25 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	client := dial(t, coord.Addr(), w.key)
	insertBoth := func(objs []simcloud.Object) {
		t.Helper()
		if _, err := refClient.Insert(objs); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Insert(objs); err != nil {
			t.Fatal(err)
		}
	}

	first := w.data.Objects[:300]
	insertBoth(first)

	// Kill node 1. The next read discovers the death and fails: node 1's
	// cells have no other owner, and a short answer would be a silent one.
	srvs[1].Close()
	_, _, err = search(client, core.Query{Kind: core.KindApproxKNN, Vec: first[0].Vec, K: 5, CandSize: 200})
	wantNoLiveReplica(t, "read after kill", err)
	if live := coord.LiveNodes(); len(live) != 1 {
		t.Fatalf("after kill: %d live nodes, want 1 (%v)", len(live), live)
	}

	// A write of one chunk touching node 1's cells is refused whole, before
	// any delivery; one touching only node 0's cells lands.
	dead, live := splitByHome(w, w.data.Objects[300:], 2, 1)
	if len(dead) < 10 || len(live) < 40 {
		t.Fatalf("second batch: %d entries on the dead node's cells, %d on live ones", len(dead), len(live))
	}
	size0 := srvs[0].Index().Size()
	_, err = client.Insert(append(slices.Clone(live[:10]), dead[:10]...))
	wantNoLiveReplica(t, "insert touching a dead cell", err)
	if got := srvs[0].Index().Size(); got != size0 {
		t.Fatalf("a refused insert changed node 0: %d entries, want %d", got, size0)
	}
	insertBoth(live[:40])

	// Restart from WAL behind the same proxy address; the background probe
	// loop must re-admit it without any call from here.
	srvs[1] = startWALServer(t, cfg, dirs[1])
	proxies[1].SetBackend(srvs[1].Addr())
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.LiveNodes()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("background re-probe never re-admitted the restarted node")
		}
		time.Sleep(10 * time.Millisecond)
	}
	queries := []int{3, 123, 250, 321}
	checkFourKinds(t, "re-admitted", w, client, refClient, coord.Addr(), ref.Addr(), queries)

	// Deletes of entries written before the kill (on both nodes) and during
	// the outage are exact.
	victims := append(slices.Clone(first[:20]), live[:20]...)
	wantDel, _, err := refClient.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	gotDel, _, err := client.Delete(victims)
	if err != nil {
		t.Fatal(err)
	}
	if gotDel != wantDel || gotDel != len(victims) {
		t.Fatalf("cluster deleted %d, single server %d, want %d", gotDel, wantDel, len(victims))
	}
	checkFourKinds(t, "after deletes", w, client, refClient, coord.Addr(), ref.Addr(), queries)
}

// TestInsertAckNeedsAppliedCopy: an insert is acknowledged only once every
// entry of it was applied by at least one owner. With every owner of cell 1
// dead but not yet noticed by the coordinator, a one-chunk insert holding
// entries of that cell finds each owner down only as it delivers, so its
// share can only be journaled: the chunk must be refused, not acknowledged
// on the strength of the coordinator's in-memory journal, at R=1 and at R=2
// alike. The next read refuses cell 1 too.
func TestInsertAckNeedsAppliedCopy(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		dead     []int // every owner of cell 1: nodes 1 and (R=2) 2
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
	} {
		t.Run(fmt.Sprintf("R=%d", tc.replicas), func(t *testing.T) {
			leaktest.Check(t)
			w := newWorld(t, 200)
			srvs := make([]*server.Server, 3)
			addrs := make([]string, 3)
			for i := range srvs {
				srvs[i] = startServer(t, nodeConfig(true))
				addrs[i] = srvs[i].Addr()
			}
			coord, err := cluster.New(addrs, cluster.Options{Replicas: tc.replicas, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord.Close() })
			client := dial(t, coord.Addr(), w.key)

			chunk := w.data.Objects[:30]
			if !slices.ContainsFunc(chunk, func(o simcloud.Object) bool { return cellOf(w, o)%3 == 1 }) {
				t.Fatal("the chunk holds no entry of a cell homed on node 1")
			}
			// The coordinator learns of the deaths only on its next round trip
			// to each node.
			for _, i := range tc.dead {
				srvs[i].Close()
			}
			_, err = client.Insert(chunk)
			wantNoLiveReplica(t, "insert with every owner of a cell dead", err)
			if live := coord.LiveNodes(); len(live) != 3-len(tc.dead) {
				t.Fatalf("%d live nodes, want %d (%v)", len(live), 3-len(tc.dead), live)
			}
			_, _, err = search(client, core.Query{Kind: core.KindApproxKNN, Vec: chunk[0].Vec, K: 5, CandSize: 100})
			if err == nil || !strings.Contains(err.Error(), "no live replica for pivot 1") {
				t.Fatalf("read with cell 1 unowned: got %v, want a refusal naming pivot 1", err)
			}
		})
	}
}

// TestRefusedChunkIsNotJournaled: at R=2, node 1 is down when a chunk
// arrives that a live owner refuses (one of its entries is already stored).
// The client gets the refusal, and no entry the refusing owner would have
// stored may be journaled for node 1: re-admission would replay on node 1 a
// write its co-owner never took, and from then on an answer would depend on
// which owner served the cell.
//
// N=2: node 0 refuses the whole chunk. A chunk written during the same
// outage that nobody refuses is still journaled and replayed. After
// re-admission both nodes hold the same number of entries, and all four
// query kinds equal a single server that got the same writes — with both
// nodes live and again with only node 1.
//
// N=3: each node gets only its own share. The chunk holds the stored entry
// and new entries of a cell owned by nodes 0 and 1, which node 0 refuses,
// and new entries of a cell owned by nodes 1 and 2, which node 2 applies.
// Node 1 must replay exactly the applied ones: its size after re-admission
// counts them and not the refused ones, and with node 2 killed (node 1 now
// serves node 2's applied entries) the cluster equals a single server that
// got the applied entries.
func TestRefusedChunkIsNotJournaled(t *testing.T) {
	t.Run("N=2", func(t *testing.T) {
		leaktest.Check(t)
		w := newWorld(t, 300)
		ref := startServer(t, nodeConfig(false))
		refClient := dial(t, ref.Addr(), w.key)
		cfg := nodeConfig(true)
		dirs := []string{t.TempDir(), t.TempDir()}
		srvs := []*server.Server{
			startWALServer(t, cfg, dirs[0]),
			startWALServer(t, cfg, dirs[1]),
		}
		proxies := []*faultnet.Proxy{
			startFaultProxy(t, srvs[0].Addr(), faultnet.Clean()),
			startFaultProxy(t, srvs[1].Addr(), faultnet.Clean()),
		}
		coord, err := cluster.New([]string{proxies[0].Addr(), proxies[1].Addr()},
			cluster.Options{Replicas: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		client := dial(t, coord.Addr(), w.key)
		for _, c := range []*core.EncryptedClient{refClient, client} {
			if _, err := c.Insert(w.data.Objects[:200]); err != nil {
				t.Fatal(err)
			}
		}

		// Kill node 1; the next read notices and fails over to node 0.
		srvs[1].Close()
		queries := []int{3, 123, 199}
		checkFourKinds(t, "node 1 down", w, client, refClient, coord.Addr(), ref.Addr(), queries)
		if live := coord.LiveNodes(); len(live) != 1 {
			t.Fatalf("after kill: %d live nodes, want 1 (%v)", len(live), live)
		}

		// One chunk: an entry both nodes already hold, then 20 new ones. The
		// single server and node 0 refuse it whole.
		refused := append([]simcloud.Object{w.data.Objects[7]}, w.data.Objects[200:220]...)
		for _, c := range []*core.EncryptedClient{refClient, client} {
			if _, err := c.Insert(refused); err == nil || !strings.Contains(err.Error(), "already indexed") {
				t.Fatalf("insert of an already-stored entry: got %v, want a duplicate refusal", err)
			}
		}
		if got := ref.Index().Size(); got != 200 {
			t.Fatalf("the single server holds %d entries after the refused chunk, want 200", got)
		}
		for _, c := range []*core.EncryptedClient{refClient, client} {
			if _, err := c.Insert(w.data.Objects[220:260]); err != nil {
				t.Fatal(err)
			}
		}

		srvs[1] = startWALServer(t, cfg, dirs[1])
		proxies[1].SetBackend(srvs[1].Addr())
		if n := coord.ProbeDownNodes(context.Background()); n != 1 {
			t.Fatalf("probe re-admitted %d nodes, want 1", n)
		}
		if s0, s1 := srvs[0].Index().Size(), srvs[1].Index().Size(); s0 != 240 || s1 != 240 {
			t.Fatalf("replicas diverge after re-admission: node 0 holds %d entries, node 1 %d, want 240 each", s0, s1)
		}
		checkFourKinds(t, "re-admitted", w, client, refClient, coord.Addr(), ref.Addr(), queries)

		// Only node 1 answers now, so every cell is served from its replay.
		srvs[0].Close()
		checkFourKinds(t, "node 0 down", w, client, refClient, coord.Addr(), ref.Addr(), queries)
		if live := coord.LiveNodes(); len(live) != 1 {
			t.Fatalf("after killing node 0: %d live nodes, want 1 (%v)", len(live), live)
		}
	})
	t.Run("N=3", func(t *testing.T) {
		leaktest.Check(t)
		w := newWorld(t, 400)
		ref := startServer(t, nodeConfig(false))
		refClient := dial(t, ref.Addr(), w.key)
		cfg := nodeConfig(true)
		dir := t.TempDir()
		srvs := []*server.Server{startServer(t, cfg), startWALServer(t, cfg, dir), startServer(t, cfg)}
		proxy := startFaultProxy(t, srvs[1].Addr(), faultnet.Clean())
		coord, err := cluster.New([]string{srvs[0].Addr(), proxy.Addr(), srvs[2].Addr()},
			cluster.Options{Replicas: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		client := dial(t, coord.Addr(), w.key)
		stored := w.data.Objects[:200]
		for _, c := range []*core.EncryptedClient{refClient, client} {
			if _, err := c.Insert(stored); err != nil {
				t.Fatal(err)
			}
		}
		srvs[1].Close()
		queries := []int{3, 123, 199}
		checkFourKinds(t, "node 1 down", w, client, refClient, coord.Addr(), ref.Addr(), queries)
		if live := coord.LiveNodes(); len(live) != 2 {
			t.Fatalf("after kill: %d live nodes, want 2 (%v)", len(live), live)
		}

		// Cell p is owned by nodes p mod 3 and p+1 mod 3.
		onNode0, _ := splitByHome(w, stored, 3, 0)
		onNode1, _ := splitByHome(w, stored, 3, 1)
		refused, _ := splitByHome(w, w.data.Objects[200:], 3, 0)
		applied, _ := splitByHome(w, w.data.Objects[200:], 3, 1)
		if len(onNode0) == 0 || len(refused) < 5 || len(applied) < 5 {
			t.Fatalf("too few entries per cell: %d stored on node 0, %d and %d new", len(onNode0), len(refused), len(applied))
		}
		refused, applied = refused[:5], applied[:5]
		chunk := append(append([]simcloud.Object{onNode0[0]}, refused...), applied...)
		if _, err := client.Insert(chunk); err == nil || !strings.Contains(err.Error(), "already indexed") {
			t.Fatalf("insert of an already-stored entry: got %v, want a duplicate refusal", err)
		}
		if _, err := refClient.Insert(applied); err != nil {
			t.Fatal(err)
		}

		srvs[1] = startWALServer(t, cfg, dir)
		proxy.SetBackend(srvs[1].Addr())
		if n := coord.ProbeDownNodes(context.Background()); n != 1 {
			t.Fatalf("probe re-admitted %d nodes, want 1", n)
		}
		if got, want := srvs[1].Index().Size(), len(onNode0)+len(onNode1)+len(applied); got != want {
			t.Fatalf("node 1 holds %d entries after re-admission, want %d", got, want)
		}
		checkFourKinds(t, "re-admitted", w, client, refClient, coord.Addr(), ref.Addr(), queries)
		srvs[2].Close()
		checkFourKinds(t, "node 2 down", w, client, refClient, coord.Addr(), ref.Addr(), queries)
	})
}

// TestDeleteRacingJournaledInsert: at R=2 on three nodes, node 1 is down
// when a chunk arrives holding entry a, owned by nodes 0 and 1, and entry c,
// owned by nodes 2 and 0. While node 2's ack is held back — so the insert
// is still in flight — a second client deletes a, which node 0 already
// applied; the delete is journaled for node 1. Node 1's share of the insert
// must replay before that delete, in arrival order: with node 0 killed after
// re-admission, node 1 serves a's cell, and the cluster must answer like a
// single server that got the same writes, without a.
func TestDeleteRacingJournaledInsert(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 300)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	cfg := nodeConfig(true)
	dir := t.TempDir()
	srvs := []*server.Server{startServer(t, cfg), startWALServer(t, cfg, dir), startServer(t, cfg)}
	proxy := startFaultProxy(t, srvs[1].Addr(), faultnet.Clean())
	held := startRelay(t, srvs[2].Addr())
	coord, err := cluster.New([]string{srvs[0].Addr(), proxy.Addr(), held.addr()},
		cluster.Options{Replicas: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	client := dial(t, coord.Addr(), w.key)
	deleter := dial(t, coord.Addr(), w.key)
	for _, c := range []*core.EncryptedClient{refClient, client} {
		if _, err := c.Insert(w.data.Objects[:200]); err != nil {
			t.Fatal(err)
		}
	}
	srvs[1].Close()
	queries := []int{3, 123, 199}
	checkFourKinds(t, "node 1 down", w, client, refClient, coord.Addr(), ref.Addr(), queries)

	// Cell p is owned by nodes p mod 3 and p+1 mod 3.
	onNode0, _ := splitByHome(w, w.data.Objects[200:], 3, 0)
	onNode2, _ := splitByHome(w, w.data.Objects[200:], 3, 2)
	if len(onNode0) == 0 || len(onNode2) == 0 {
		t.Fatal("no new entry of a cell homed on node 0 or node 2")
	}
	a, c := onNode0[0], onNode2[0]
	before := srvs[0].Index().Size()
	var once sync.Once
	var hookErr error
	del := func() {
		once.Do(func() {
			// Node 0 takes its share {a, c} alongside node 2.
			for deadline := time.Now().Add(10 * time.Second); srvs[0].Index().Size() < before+2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					hookErr = fmt.Errorf("node 0 never applied its share: %d entries", srvs[0].Index().Size())
					return
				}
			}
			n, _, err := deleter.Delete([]simcloud.Object{a})
			if err == nil && n != 1 {
				err = fmt.Errorf("deleted %d entries, want 1", n)
			}
			hookErr = err
		})
	}
	held.onAck.Store(&del)
	_, err = client.Insert([]simcloud.Object{a, c})
	held.onAck.Store(nil)
	if err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatalf("delete while the insert is in flight: %v", hookErr)
	}
	if _, err := refClient.Insert([]simcloud.Object{a, c}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := refClient.Delete([]simcloud.Object{a}); err != nil {
		t.Fatal(err)
	}

	srvs[1] = startWALServer(t, cfg, dir)
	proxy.SetBackend(srvs[1].Addr())
	if n := coord.ProbeDownNodes(context.Background()); n != 1 {
		t.Fatalf("probe re-admitted %d nodes, want 1", n)
	}
	checkFourKinds(t, "re-admitted", w, client, refClient, coord.Addr(), ref.Addr(), queries)
	srvs[0].Close()
	checkFourKinds(t, "node 0 down", w, client, refClient, coord.Addr(), ref.Addr(), queries)
}

// TestConcurrentQueriesDuringKill: with R=2, queries racing a node kill
// must neither error nor come back short — every cell always has a live
// replica, and the coordinator reassigns read ownership mid-flight. Run
// under -race in CI, this also exercises the journal/readmission locking.
func TestConcurrentQueriesDuringKill(t *testing.T) {
	leaktest.Check(t)
	// Every pooled buffer is overwritten the moment it is released: a
	// candidate view that outlived its frame would corrupt an answer here
	// every time, not once in a while.
	wire.PoisonBuffers(t)
	w := newWorld(t, 1000)
	srvs := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		srvs[i] = startServer(t, nodeConfig(true))
		addrs[i] = srvs[i].Addr()
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

	const workers = 8
	const perWorker = 30
	const k = 10
	errc := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for wkr := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				q := w.data.Objects[(wkr*131+i*17)%len(w.data.Objects)].Vec
				res, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: q, K: k, CandSize: 200})
				if err != nil {
					errc <- err
					return
				}
				if len(res) != k {
					errc <- fmt.Errorf("worker %d query %d: %d results, want %d", wkr, i, len(res), k)
					return
				}
			}
		}()
	}
	// Kill a node while the workers are mid-flight.
	time.Sleep(20 * time.Millisecond)
	srvs[1].Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("query during kill: %v", err)
	}
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("after kill: %d live nodes, want 2 (%v)", len(live), live)
	}
}

// delayAll is a faultnet schedule slowing every connection by the same
// forwarding delay.
type delayAll time.Duration

func (d delayAll) RuleFor(int) faultnet.Rule { return faultnet.Rule{Delay: time.Duration(d)} }

// TestInFlightReadsDuringKill holds several reads in flight on one node
// while it dies. With R=2 and the victim's traffic slowed by a faultnet
// delay, at least four coordinator reads are leased on the victim's link at
// once when it is killed; every query must still come back byte-identical
// to a healthy single server's answer — straight from the nodes or after the
// fail-over — and none may fail. The healthy nodes' links must not have
// dialed past their idle cap.
func TestInFlightReadsDuringKill(t *testing.T) {
	leaktest.Check(t)
	wire.PoisonBuffers(t)
	w := newWorld(t, 1000)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	if _, err := refClient.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	srvs := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		srvs[i] = startServer(t, nodeConfig(true))
		addrs[i] = srvs[i].Addr()
	}
	addrs[victim] = startFaultProxy(t, srvs[victim].Addr(), delayAll(20*time.Millisecond)).Addr()
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

	const workers = 8
	const perWorker = 12
	probe := func(wkr, i int) core.Query {
		q := w.data.Objects[(wkr*131+i*17)%len(w.data.Objects)].Vec
		return core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200}
	}
	want := make([][][]core.Result, workers)
	for wkr := range want {
		want[wkr] = make([][]core.Result, perWorker)
		for i := range perWorker {
			if want[wkr][i], _, err = search(refClient, probe(wkr, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for wkr := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				got, _, err := search(client, probe(wkr, i))
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d: %w", wkr, i, err)
					return
				}
				if !resultsEqual(got, want[wkr][i]) || !vectorsEqual(got, want[wkr][i]) {
					errc <- fmt.Errorf("worker %d query %d: answer differs from the single server's", wkr, i)
					return
				}
			}
		}()
	}
	// Kill the victim only once four reads are leased on it at once.
	deadline := time.Now().Add(10 * time.Second)
	for coord.NodeLinks()[victim].Leased < 4 {
		if time.Now().After(deadline) {
			t.Errorf("never saw 4 reads in flight on the victim: %+v", coord.NodeLinks()[victim])
			break
		}
		time.Sleep(time.Millisecond)
	}
	srvs[victim].Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s := coord.NodeLinks()[victim]; s.Peak < 4 {
		t.Errorf("victim link peaked at %d leases, want at least 4", s.Peak)
	}
	// The fan-out's six workers (two per node) never lease more of a node's
	// connections than its link keeps idle, so a healthy node's link never
	// dials past wire.MaxIdle: released connections are reused, not redialed.
	for i, s := range coord.NodeLinks() {
		if i != victim && s.Dialed > wire.MaxIdle {
			t.Errorf("node %d link dialed %d connections, more than the %d it keeps idle: %+v", i, s.Dialed, wire.MaxIdle, s)
		}
	}
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("after kill: %d live nodes, want 2 (%v)", len(live), live)
	}
}

// TestConcurrentProbesKeepJournal: two ProbeDownNodes calls racing each
// other and a stream of writes must re-admit a restarted replica with every
// journaled write delivered. Afterwards the node's co-owner is killed, so
// the re-admitted node alone serves the cells they share: the cluster's
// answers must stay byte-identical to a single server's. Run it with -race
// -count=20.
func TestConcurrentProbesKeepJournal(t *testing.T) {
	w := newWorld(t, 600)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	cfg := nodeConfig(true)
	const victim, coOwner = 1, 0 // node 1 backs up node 0's cells
	dir := t.TempDir()
	srvs := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		if i != victim {
			srvs[i] = startServer(t, cfg)
			addrs[i] = srvs[i].Addr()
		}
	}
	srvs[victim] = startWALServer(t, cfg, dir)
	proxy := startFaultProxy(t, srvs[victim].Addr(), faultnet.Clean())
	addrs[victim] = proxy.Addr()
	coord, err := cluster.New(addrs, cluster.Options{Replicas: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	client := dial(t, coord.Addr(), w.key)
	insertBoth := func(objs []simcloud.Object) error {
		if _, err := refClient.Insert(objs); err != nil {
			return err
		}
		_, err := client.Insert(objs)
		return err
	}
	deleteBoth := func(objs []simcloud.Object) error {
		if _, _, err := refClient.Delete(objs); err != nil {
			return err
		}
		_, _, err := client.Delete(objs)
		return err
	}
	objs := w.data.Objects
	if err := insertBoth(objs[:300]); err != nil {
		t.Fatal(err)
	}
	// Kill the victim and write through the outage: its share journals.
	srvs[victim].Close()
	if err := insertBoth(objs[300:400]); err != nil {
		t.Fatal(err)
	}
	if err := deleteBoth(objs[:20]); err != nil {
		t.Fatal(err)
	}
	srvs[victim] = startWALServer(t, cfg, dir)
	proxy.SetBackend(srvs[victim].Addr())

	// Two probes race each other and the writes that keep coming.
	var wg sync.WaitGroup
	readmitted := make([]int, 2)
	for i := range readmitted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readmitted[i] = coord.ProbeDownNodes(context.Background())
		}()
	}
	for at := 400; at < len(objs); at += 25 {
		if err := insertBoth(objs[at : at+25]); err != nil {
			t.Fatal(err)
		}
		if err := deleteBoth(objs[at-380 : at-375]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if readmitted[0]+readmitted[1] != 1 {
		t.Fatalf("probes re-admitted %v nodes, want 1 in all", readmitted)
	}
	if live := coord.LiveNodes(); len(live) != 3 {
		t.Fatalf("after the probes: %d live nodes, want 3 (%v)", len(live), live)
	}

	// The victim now serves the co-owner's cells alone.
	srvs[coOwner].Close()
	if got, want := downloadAll(t, coord.Addr(), w), downloadAll(t, ref.Addr(), w); !sameCollection(got, want) {
		t.Fatalf("download-all (%d entries) diverges from single server (%d)", len(got), len(want))
	}
	for _, qi := range []int{3, 123, 456, 589} {
		q := objs[qi].Vec
		if got, want := approxCandidateIDs(t, coord.Addr(), w, q, 200), approxCandidateIDs(t, ref.Addr(), w, q, 200); !slices.Equal(got, want) {
			t.Fatalf("query %d: candidate list diverges from single server\n got %v\nwant %v", qi, got, want)
		}
	}
}

// TestCloseDrainsInFlightWrite: at R=2, Close while an insert is fanning out
// — node 0 has applied it, node 1's share is held in a faultnet delay —
// must let the insert finish. The client gets its ack, and both owners hold
// the entry: neither is cut from the write, marked down and left to a
// journal that dies with the coordinator.
func TestCloseDrainsInFlightWrite(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 50)
	srvs := []*server.Server{startServer(t, nodeConfig(true)), startServer(t, nodeConfig(true))}
	slow := startFaultProxy(t, srvs[1].Addr(), delayAll(300*time.Millisecond))
	coord, err := cluster.New([]string{srvs[0].Addr(), slow.Addr()}, cluster.Options{Replicas: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	client := dial(t, coord.Addr(), w.key)

	inserted := make(chan error, 1)
	go func() {
		_, err := client.Insert(w.data.Objects[:1])
		inserted <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); srvs[0].Index().Size() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("node 0 never applied the insert")
		}
	}
	if srvs[1].Index().Size() != 0 {
		t.Fatal("node 1 applied the insert before Close; the delay did not hold it")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatalf("insert in flight at Close: %v", err)
	}
	for i, srv := range srvs {
		if n := srv.Index().Size(); n != 1 {
			t.Errorf("node %d holds %d entries after Close, want 1", i, n)
		}
	}
}
