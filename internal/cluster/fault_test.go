package cluster_test

// Deterministic fault-injection tests of the replicated cluster: WAL-backed
// nodes behind faultnet proxies, killed and restarted mid-run, with every
// answer compared byte-for-byte against a healthy single server. The fault
// schedule is seeded, so the whole suite is reproducible under -race.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"simcloud"
	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/engine"
	"simcloud/internal/faultnet"
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
		if _, err := refClient.InsertBatch(objs); err != nil {
			t.Fatal(err)
		}
		if _, err := client.InsertBatch(objs); err != nil {
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
		wantDel, _, err := refClient.DeleteBatch(objs)
		if err != nil {
			t.Fatal(err)
		}
		gotDel, _, err := client.DeleteBatch(objs)
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

// TestReprobeReadmitsNode covers the unreplicated (R=1) sticky-down fix:
// the background re-probe loop re-admits a restarted node without operator
// intervention, and the coordinator switches deletes to broadcast because
// placement epochs are now mixed.
func TestReprobeReadmitsNode(t *testing.T) {
	w := newWorld(t, 400)
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

	first, second := w.data.Objects[:300], w.data.Objects[300:]
	if _, err := client.InsertBatch(first); err != nil {
		t.Fatal(err)
	}

	// Kill node 1; the next insert discovers the death and re-routes.
	srvs[1].Close()
	if _, err := client.InsertBatch(second); err != nil {
		t.Fatal(err)
	}
	if live := coord.LiveNodes(); len(live) != 1 {
		t.Fatalf("after kill: %d live nodes, want 1 (%v)", len(live), live)
	}

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

	// Every entry is somewhere: pre-kill placement on node 1 survived via
	// the WAL, re-routed entries live on node 0.
	if got := srvs[0].Index().Size() + srvs[1].Index().Size(); got != len(w.data.Objects) {
		t.Fatalf("nodes hold %d entries, want %d", got, len(w.data.Objects))
	}

	// Placement is now mixed (mod-2 before the kill, mod-1 during it), so
	// deletes must broadcast even though both nodes are live again — refs
	// from both epochs must actually die.
	victims := append(append([]simcloud.Object{}, first[:20]...), second[:20]...)
	deleted, _, err := client.DeleteBatch(victims)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != len(victims) {
		t.Fatalf("deleted %d of %d across placement epochs", deleted, len(victims))
	}
	res, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: w.data.Objects[250].Vec, K: 5, CandSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after re-admission")
	}
}

// TestConcurrentQueriesDuringKill: with R=2, queries racing a node kill
// must neither error nor come back short — every cell always has a live
// replica, and the coordinator reassigns read ownership mid-flight. Run
// under -race in CI, this also exercises the journal/readmission locking.
func TestConcurrentQueriesDuringKill(t *testing.T) {
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
	if _, err := client.InsertBatch(w.data.Objects); err != nil {
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
