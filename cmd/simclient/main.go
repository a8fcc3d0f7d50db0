// Command simclient is an authorized client of a similarity-cloud server.
//
//	# Build the encrypted index from a collection file:
//	simclient -addr :4040 -key yeast.key -op insert -data yeast.simcdat
//
//	# Approximate 30-NN of object #5, candidate set 600:
//	simclient -addr :4040 -key yeast.key -op approx -data yeast.simcdat -query 5 -k 30 -cand 600
//
//	# Precise range query:
//	simclient -addr :4040 -key yeast.key -op range -data yeast.simcdat -query 5 -radius 120
//
//	# Precise k-NN (a first pass that learns ρk, then the range ρk):
//	simclient -addr :4040 -key yeast.key -op knn -data yeast.simcdat -query 5 -k 10
//
//	# Restricted 1-cell approximate k-NN (the paper's Section 5.4 baseline):
//	simclient -addr :4040 -key yeast.key -op firstcell -data yeast.simcdat -query 5 -k 1
//
//	# Delete objects 100..199 of the collection from the index:
//	simclient -addr :4040 -key yeast.key -op delete -data yeast.simcdat -from 100 -to 200
//
// With -plain the same operations run against a plain (non-encrypted)
// server; no key is needed. -timeout bounds every operation (dial,
// handshake, each round trip) through the context-aware Search API; 0, the
// default, waits indefinitely.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4040", "server address")
		keyFile  = flag.String("key", "", "secret key file (encrypted mode)")
		op       = flag.String("op", "", "operation: insert, approx, knn, range, firstcell, delete")
		data     = flag.String("data", "", "collection file (source of objects and queries)")
		queryIdx = flag.Int("query", 0, "index of the query object within the collection")
		k        = flag.Int("k", 10, "number of nearest neighbors")
		cand     = flag.Int("cand", 500, "candidate set size for approximate search")
		radius   = flag.Float64("radius", 1, "range query radius")
		from     = flag.Int("from", 0, "first collection index of the -op delete range")
		to       = flag.Int("to", -1, "one past the last collection index of the -op delete range (-1: end of collection)")
		plain    = flag.Bool("plain", false, "talk to a plain (non-encrypted) server")
		maxLevel = flag.Int("max-level", 8, "index max level (must match the server)")
		dists    = flag.Bool("store-dists", false, "insert with full pivot-distance vectors (precise strategy)")
		timeout  = flag.Duration("timeout", 0, "per-operation deadline (0 = no deadline)")
	)
	flag.Parse()
	if *op == "" || *data == "" {
		fmt.Fprintln(os.Stderr, "simclient: -op and -data are required")
		flag.Usage()
		os.Exit(2)
	}
	ds, err := dataset.LoadFile(*data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simclient: loading %s: %v\n", *data, err)
		os.Exit(1)
	}
	if *queryIdx < 0 || *queryIdx >= ds.Size() {
		fmt.Fprintf(os.Stderr, "simclient: -query %d out of range [0,%d)\n", *queryIdx, ds.Size())
		os.Exit(2)
	}
	q := ds.Objects[*queryIdx].Vec

	// opCtx bounds one operation with -timeout; every operation (including
	// the dial handshake) gets its own deadline window.
	opCtx := func() (context.Context, context.CancelFunc) {
		if *timeout <= 0 {
			return context.Background(), func() {}
		}
		return context.WithTimeout(context.Background(), *timeout)
	}

	report := func(name string, results []core.Result, costs stats.Costs, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "simclient: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d results\n", name, len(results))
		for i, r := range results {
			if i >= 20 {
				fmt.Printf("  ... %d more\n", len(results)-20)
				break
			}
			fmt.Printf("  #%-3d id=%-8d dist=%.6g\n", i+1, r.ID, r.Dist)
		}
		fmt.Printf("costs: %s\n", costs)
	}

	// queryFor maps the CLI operation onto the unified Query value; the
	// same Query runs against either deployment through the Searcher
	// interface.
	queryFor := func() (core.Query, string, bool) {
		switch *op {
		case "approx":
			return core.Query{Kind: core.KindApproxKNN, Vec: q, K: *k, CandSize: *cand}, "approx-knn", true
		case "knn":
			return core.Query{Kind: core.KindKNN, Vec: q, K: *k, CandSize: *cand}, "knn", true
		case "range":
			return core.Query{Kind: core.KindRange, Vec: q, Radius: *radius}, "range", true
		case "firstcell":
			return core.Query{Kind: core.KindFirstCell, Vec: q, K: *k}, "first-cell", true
		}
		return core.Query{}, "", false
	}

	deleteRange := func() []int {
		lo, hi := *from, *to
		if hi < 0 {
			hi = ds.Size()
		}
		if lo < 0 || lo > hi || hi > ds.Size() {
			fmt.Fprintf(os.Stderr, "simclient: delete range [%d,%d) out of collection bounds [0,%d)\n", lo, hi, ds.Size())
			os.Exit(2)
		}
		return []int{lo, hi}
	}

	if *plain {
		ctx, cancel := opCtx()
		client, err := core.DialPlainContext(ctx, *addr)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simclient: %v\n", err)
			os.Exit(1)
		}
		defer client.Close()
		switch *op {
		case "insert":
			ctx, cancel := opCtx()
			costs, err := client.InsertContext(ctx, ds.Objects)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "simclient: insert: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("inserted %d objects\ncosts: %s\n", ds.Size(), costs)
		case "delete":
			r := deleteRange()
			ctx, cancel := opCtx()
			deleted, costs, err := client.DeleteContext(ctx, ds.Objects[r[0]:r[1]])
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "simclient: delete: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("deleted %d of %d referenced objects\ncosts: %s\n", deleted, r[1]-r[0], costs)
		default:
			query, name, ok := queryFor()
			if !ok {
				fmt.Fprintf(os.Stderr, "simclient: unknown op %q\n", *op)
				os.Exit(2)
			}
			ctx, cancel := opCtx()
			res, costs, err := client.Search(ctx, query)
			cancel()
			report(name, res, costs, err)
		}
		return
	}

	if *keyFile == "" {
		fmt.Fprintln(os.Stderr, "simclient: encrypted mode requires -key")
		os.Exit(2)
	}
	blob, err := os.ReadFile(*keyFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simclient: reading key: %v\n", err)
		os.Exit(1)
	}
	key, err := secret.Unmarshal(blob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simclient: parsing key: %v\n", err)
		os.Exit(1)
	}
	dialCtx, dialCancel := opCtx()
	client, err := core.DialEncryptedContext(dialCtx, *addr, key, core.Options{
		MaxLevel:   *maxLevel,
		StoreDists: *dists,
	})
	dialCancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simclient: %v\n", err)
		os.Exit(1)
	}
	defer client.Close()

	switch *op {
	case "insert":
		ctx, cancel := opCtx()
		costs, err := client.InsertContext(ctx, ds.Objects)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simclient: insert: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("inserted %d encrypted objects\ncosts: %s\n", ds.Size(), costs)
	case "delete":
		r := deleteRange()
		ctx, cancel := opCtx()
		deleted, costs, err := client.DeleteContext(ctx, ds.Objects[r[0]:r[1]])
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simclient: delete: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("deleted %d of %d referenced objects\ncosts: %s\n", deleted, r[1]-r[0], costs)
	default:
		query, name, ok := queryFor()
		if !ok {
			fmt.Fprintf(os.Stderr, "simclient: unknown op %q\n", *op)
			os.Exit(2)
		}
		ctx, cancel := opCtx()
		res, costs, err := client.Search(ctx, query)
		cancel()
		report(name, res, costs, err)
	}
}
