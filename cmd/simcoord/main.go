// Command simcoord runs a similarity-cloud coordinator: one listening
// address that federates several encrypted simserver nodes into a single
// logical index. Clients connect to it with the unchanged wire protocol —
// simclient and the library client need no flag beyond the address.
//
//	# Three nodes (each started with -eager-root-split or -shards > 1):
//	simserver -addr :4041 -pivots 16 -eager-root-split &
//	simserver -addr :4042 -pivots 16 -eager-root-split &
//	simserver -addr :4043 -pivots 16 -eager-root-split &
//
//	# Federate them:
//	simcoord -addr :4040 -nodes 127.0.0.1:4041,127.0.0.1:4042,127.0.0.1:4043
//
//	# Use exactly like a single server:
//	simclient -addr :4040 -key data.key -op insert -data data.simcdat
//	simclient -addr :4040 -key data.key -op approx -data data.simcdat -query 5
//
// The coordinator hellos every node at startup and refuses to start unless
// all nodes are reachable, run the encrypted deployment, and agree on the
// index shape (pivot count, max level, bucket capacity, ranking) — a
// mismatched node would not fail loudly later, it would silently corrupt
// results. Every entry is stored on the R nodes (-replicas, default 1)
// that own its first-level cell — the entry permutation's first element p
// picks nodes p mod N onward, whatever the cluster's failure history.
// Queries fan out to one live owner per cell and combine by the same merge
// order a single sharded server uses, so a 1-node cluster behaves exactly
// like that node served directly.
//
// Writes fan to all owners (journaling for nodes that are down) and are
// acknowledged only once an owner applied every entry; reads fail over to
// a live owner. The cluster keeps answering exactly while any R-1 owners
// of a cell are down, and refuses the cell, naming it, while all R are: at
// the default R=1, a dead node's cells are unavailable until it returns.
// Down nodes are re-dialed every -reprobe interval and re-admitted after a
// shape check and re-sync of the writes they missed; pair the nodes with
// -wal-dir so a restarted node recovers its pre-crash state.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simcloud/internal/cluster"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:4040", "client-facing listen address")
		nodes       = flag.String("nodes", "", "comma-separated addresses of the simserver nodes to federate (required)")
		dialTimeout = flag.Duration("dial-timeout", 5*time.Second, "per-node dial+hello timeout at startup")
		nodeTimeout = flag.Duration("node-timeout", 0, "per-request node timeout; a node exceeding it is treated as failed (0 waits indefinitely)")
		replicas    = flag.Int("replicas", 1, "copies kept of every entry (R); must not exceed the node count")
		reprobe     = flag.Duration("reprobe", 10*time.Second, "how often down nodes are re-dialed and re-admitted after re-sync (0 disables)")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "simcoord: -nodes requires at least one node address")
		os.Exit(2)
	}

	coord, err := cluster.New(addrs, cluster.Options{
		DialTimeout:     *dialTimeout,
		NodeTimeout:     *nodeTimeout,
		Replicas:        *replicas,
		ReprobeInterval: *reprobe,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simcoord: %v\n", err)
		os.Exit(1)
	}
	if err := coord.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "simcoord: %v\n", err)
		os.Exit(1)
	}
	info := coord.Info()
	fmt.Printf("simcoord: coordinating %d nodes on %s (replicas=%d pivots=%d maxLevel=%d bucket=%d ranking=%d)\n",
		coord.NumNodes(), coord.Addr(), *replicas, info.NumPivots, info.MaxLevel, info.BucketCapacity, info.Ranking)
	for _, n := range coord.LiveNodes() {
		fmt.Printf("simcoord:   node %s\n", n)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nsimcoord: shutting down")
	if err := coord.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "simcoord: close: %v\n", err)
		os.Exit(1)
	}
}
