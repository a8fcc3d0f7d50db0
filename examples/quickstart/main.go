// Quickstart: outsource an encrypted similarity index and search it.
//
// Runs a similarity-cloud server and an authorized client in one process
// (loopback TCP), indexes a small clustered collection, and issues the
// query kinds of the paper through the unified Search API: approximate
// k-NN, precise k-NN and precise range — then runs the very same queries
// against an in-process DirectClient (no server, no network) and checks
// the answers agree.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"simcloud"
)

func main() {
	// The data owner's side: data, pivots, secret key.
	data := simcloud.ClusteredData(1, 2000, 16, 12, simcloud.L2())
	pivots := simcloud.SelectPivots(1, data.Dist, data.Objects, 16)
	key, err := simcloud.GenerateKey(pivots)
	if err != nil {
		log.Fatal(err)
	}

	// The untrusted similarity cloud: it receives only the index
	// configuration — never the pivots or the cipher key.
	srv, err := simcloud.NewEncryptedServer(simcloud.DefaultConfig(16))
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("similarity cloud listening on %s\n", srv.Addr())

	// An authorized client: holds the secret key. Every operation takes a
	// context — a deadline here means a stalled cloud cannot hang us.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := simcloud.DialEncryptedContext(ctx, srv.Addr(), key, simcloud.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Construction phase: encrypt-and-insert the collection.
	costs, err := client.InsertContext(ctx, data.Objects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d encrypted objects\n  %s\n", data.Size(), costs)

	// Approximate 10-NN with a 200-object candidate set.
	q := data.Objects[123].Vec
	results, costs, err := client.Search(ctx, simcloud.Query{
		Kind: simcloud.KindApproxKNN, Vec: q, K: 10, CandSize: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\napproximate 10-NN (candidate set 200):")
	for i, r := range results {
		fmt.Printf("  #%-2d id=%-6d dist=%.4f\n", i+1, r.ID, r.Dist)
	}
	fmt.Printf("  %s\n", costs)

	// Precise 5-NN: a first pass that learns ρk, then the range ρk,
	// guaranteed exact.
	precise, costs, err := client.Search(ctx, simcloud.Query{
		Kind: simcloud.KindKNN, Vec: q, K: 5, CandSize: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprecise 5-NN:")
	for i, r := range precise {
		fmt.Printf("  #%-2d id=%-6d dist=%.4f\n", i+1, r.ID, r.Dist)
	}
	fmt.Printf("  %s\n", costs)

	// Precise range query around the 5th neighbor's distance.
	radius := precise[len(precise)-1].Dist
	within, costs, err := client.Search(ctx, simcloud.Query{
		Kind: simcloud.KindRange, Vec: q, Radius: radius,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprecise range R(q, %.4f): %d objects\n  %s\n", radius, len(within), costs)

	// The embedded-library deployment: the same engine, key and queries,
	// no server and no network — DirectClient implements the same Searcher
	// interface, so the query code is identical.
	direct, err := simcloud.NewDirectClient(simcloud.DefaultConfig(16), key, simcloud.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.InsertContext(ctx, data.Objects); err != nil {
		log.Fatal(err)
	}
	embedded, _, err := direct.Search(ctx, simcloud.Query{
		Kind: simcloud.KindKNN, Vec: q, K: 5, CandSize: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	same := len(embedded) == len(precise)
	for i := range embedded {
		same = same && embedded[i].ID == precise[i].ID && embedded[i].Dist == precise[i].Dist
	}
	fmt.Printf("\nembedded DirectClient, same precise 5-NN: identical answers = %v\n", same)
}
