package cluster_test

// Streamed bulk ingest through the coordinator: the pipelined
// MsgIngestChunk frames a client sends must fan out across the federation
// (node-ward they stay streaming frames, so node WALs under group-commit
// policies amortise fsyncs until the forwarded end-of-stream flush) and
// leave the cluster answering queries exactly like a single server fed the
// same data by Insert.

import (
	"slices"
	"testing"

	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/server"
)

// TestClusterStreamIngest drives a streamed ingest through 1- and 3-node
// clusters and checks the federated ranked candidate lists and refined
// answers against a single reference server.
func TestClusterStreamIngest(t *testing.T) {
	w := newWorld(t, 1200)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	if _, err := refClient.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}

	for _, numNodes := range []int{1, 3} {
		nodes, coord := startCluster(t, numNodes, numNodes > 1)
		client, err := core.DialEncrypted(coord.Addr(), w.key,
			core.Options{BatchChunk: 96, StreamWindow: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })

		costs, err := client.InsertStream(w.data.Objects)
		if err != nil {
			t.Fatalf("%d-node cluster: streamed ingest: %v", numNodes, err)
		}
		if costs.RoundTrips != 1 {
			t.Fatalf("%d-node cluster: streamed ingest took %d round trips, want 1",
				numNodes, costs.RoundTrips)
		}
		total := 0
		for _, n := range nodes {
			total += n.Index().Size()
		}
		if total != len(w.data.Objects) {
			t.Fatalf("%d-node cluster: %d entries landed, want %d",
				numNodes, total, len(w.data.Objects))
		}

		for _, qi := range []int{3, 123, 456, 1011} {
			q := w.data.Objects[qi].Vec
			want := approxCandidateIDs(t, ref.Addr(), w, q, 200)
			got := approxCandidateIDs(t, coord.Addr(), w, q, 200)
			if !slices.Equal(got, want) {
				t.Fatalf("%d-node cluster: query %d: candidate list diverges after streamed ingest",
					numNodes, qi)
			}
			wantRes, _, err := search(refClient, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			gotRes, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(gotRes, wantRes) {
				t.Fatalf("%d-node cluster: query %d: refined answer diverges after streamed ingest",
					numNodes, qi)
			}
		}
	}
}

// TestClusterStreamIngestReplicated streams through an R=2 coordinator:
// every entry must land on exactly two of the three nodes, and answers
// must match a single server (replica dedup included).
func TestClusterStreamIngestReplicated(t *testing.T) {
	w := newWorld(t, 900)
	ref := startServer(t, nodeConfig(false))
	refClient := dial(t, ref.Addr(), w.key)
	if _, err := refClient.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}

	const numNodes = 3
	nodes := make([]*server.Server, numNodes)
	addrs := make([]string, numNodes)
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

	client, err := core.DialEncrypted(coord.Addr(), w.key,
		core.Options{BatchChunk: 64, StreamWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	if _, err := client.InsertStream(w.data.Objects); err != nil {
		t.Fatalf("replicated streamed ingest: %v", err)
	}
	total := 0
	for _, n := range nodes {
		total += n.Index().Size()
	}
	if total != 2*len(w.data.Objects) {
		t.Fatalf("R=2 cluster holds %d entries after streamed ingest, want %d",
			total, 2*len(w.data.Objects))
	}

	for _, qi := range []int{7, 250, 600} {
		q := w.data.Objects[qi].Vec
		wantRes, _, err := search(refClient, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		gotRes, _, err := search(client, core.Query{Kind: core.KindApproxKNN, Vec: q, K: 10, CandSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(gotRes, wantRes) {
			t.Fatalf("R=2 cluster: query %d diverges after streamed ingest", qi)
		}
	}
}
