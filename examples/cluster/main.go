// Cluster: federate three similarity-cloud nodes behind one coordinator.
//
// Starts three encrypted simservers plus a coordinator in one process
// (loopback TCP), indexes the same collection through the coordinator and
// through a single reference server, and shows that the federated
// deployment returns the *identical* ranked answers — the cross-node merge
// reproduces the single-server candidate order exactly, so scaling out
// does not change what clients see.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"simcloud"
)

// bruteForceKNN computes the exact k-NN ground truth locally.
func bruteForceKNN(data *simcloud.Dataset, q simcloud.Vector, k int) []uint64 {
	type pair struct {
		id uint64
		d  float64
	}
	pairs := make([]pair, len(data.Objects))
	for i, o := range data.Objects {
		pairs[i] = pair{id: o.ID, d: data.Dist.Dist(q, o.Vec)}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d < pairs[j].d
		}
		return pairs[i].id < pairs[j].id
	})
	out := make([]uint64, 0, k)
	for _, p := range pairs[:k] {
		out = append(out, p.id)
	}
	return out
}

func main() {
	// The data owner's side: data, pivots, secret key — identical for both
	// deployments; the key never depends on how the cloud side is laid out.
	data := simcloud.ClusteredData(1, 3000, 16, 12, simcloud.L2())
	pivots := simcloud.SelectPivots(1, data.Dist, data.Objects, 16)
	key, err := simcloud.GenerateKey(pivots)
	if err != nil {
		log.Fatal(err)
	}

	// The multi-node similarity cloud: three independent encrypted nodes.
	// Nodes of a multi-node cluster split their root cell eagerly so their
	// promise values stay comparable in the coordinator's cross-node merge
	// (a sharded node, Shards > 1, implies this automatically).
	nodeCfg := simcloud.DefaultConfig(16)
	nodeCfg.EagerRootSplit = true
	var nodeAddrs []string
	for i := range 3 {
		node, err := simcloud.NewEncryptedServer(nodeCfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		nodeAddrs = append(nodeAddrs, node.Addr())
		fmt.Printf("node %d listening on %s\n", i, node.Addr())
	}

	// The coordinator hellos every node, verifies they agree on the index
	// shape, and serves the same wire protocol the nodes speak.
	coord, err := simcloud.NewCoordinator(nodeAddrs, simcloud.CoordinatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	fmt.Printf("coordinator federating %d nodes on %s\n\n", coord.NumNodes(), coord.Addr())

	// The single-server reference deployment over the same data.
	ref, err := simcloud.NewEncryptedServer(simcloud.DefaultConfig(16))
	if err != nil {
		log.Fatal(err)
	}
	if err := ref.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer ref.Close()

	// The same unchanged client dials either deployment: a coordinator is
	// indistinguishable from a server on the wire.
	cluster, err := simcloud.DialEncrypted(coord.Addr(), key, simcloud.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	single, err := simcloud.DialEncrypted(ref.Addr(), key, simcloud.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()

	if _, err := cluster.Insert(data.Objects); err != nil {
		log.Fatal(err)
	}
	if _, err := single.Insert(data.Objects); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d encrypted objects into both deployments\n\n", data.Size())

	// Approximate 10-NN over a query sample: recall against the exact
	// answer must be identical, because the candidate lists are identical.
	// The queries run through the context-aware Search API — a dead node
	// mid-query surfaces as an error before the deadline, never as a hang.
	ctx := context.Background()
	const k, candSize = 10, 300
	queries := []int{17, 404, 808, 1212, 1616, 2020, 2424, 2828}
	identical := true
	var recallCluster, recallSingle float64
	for _, qi := range queries {
		q := data.Objects[qi].Vec
		exact := bruteForceKNN(data, q, k)

		query := simcloud.Query{Kind: simcloud.KindApproxKNN, Vec: q, K: k, CandSize: candSize}
		fromCluster, _, err := cluster.Search(ctx, query)
		if err != nil {
			log.Fatal(err)
		}
		fromSingle, _, err := single.Search(ctx, query)
		if err != nil {
			log.Fatal(err)
		}
		for i := range fromSingle {
			if i >= len(fromCluster) || fromCluster[i].ID != fromSingle[i].ID {
				identical = false
			}
		}
		clusterIDs := make([]uint64, len(fromCluster))
		for i, r := range fromCluster {
			clusterIDs[i] = r.ID
		}
		singleIDs := make([]uint64, len(fromSingle))
		for i, r := range fromSingle {
			singleIDs[i] = r.ID
		}
		recallCluster += simcloud.Recall(clusterIDs, exact)
		recallSingle += simcloud.Recall(singleIDs, exact)
	}
	fmt.Printf("approximate %d-NN over %d queries (candidate set %d):\n", k, len(queries), candSize)
	fmt.Printf("  3-node cluster recall: %5.1f%%\n", recallCluster/float64(len(queries)))
	fmt.Printf("  single server recall:  %5.1f%%\n", recallSingle/float64(len(queries)))
	if identical {
		fmt.Println("  result lists are IDENTICAL, query for query — the cross-node")
		fmt.Println("  merge reproduces the single-server ranking exactly")
	} else {
		fmt.Println("  WARNING: result lists diverge — this should not happen")
	}
}
