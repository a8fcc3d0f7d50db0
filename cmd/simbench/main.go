// Command simbench regenerates the evaluation tables of "Secure
// Metric-Based Index for Similarity Cloud" (SDM @ VLDB 2012).
//
// Each table runs a real client–server pair over loopback TCP and prints
// the paper's layout: cost decomposition rows against a parameter sweep.
//
//	simbench -table all                  # Tables 1–9, laptop scale
//	simbench -table 6 -scale 1000000     # Table 6 at the paper's full scale
//	simbench -table 5 -queries 100 -v    # verbose progress
//
// With -ablation it runs the routing-family ablation instead: k-NN recall
// against the candidate-set size for both index families (M-Index pivot
// permutations and k-means centroid cells) bracketed by the EHI and FDH
// baselines, plus the learned candidate-size predictor against the best
// global constant. -backend narrows the sweep to one family:
//
//	simbench -ablation -k 10
//	simbench -ablation -backend kmeans -dataset clustered -queries 20 -k 10
//
// With -openloop it becomes a multi-connection open-loop load generator
// against a running HTTP gateway (cmd/simgate), named by -gateway: arrivals
// are offered at -qps whether or not earlier requests finished, and the
// report gives achieved throughput plus p50/p99/p999 latency measured from
// each request's scheduled arrival (queueing included — no coordinated
// omission). -json FILE also writes the report as bench/history rows, the
// shape cmd/benchab records ("-" for stdout):
//
//	simbench -openloop -gateway http://127.0.0.1:8080 -apikey alice-key -qps 2000 -conns 16
//
// The absolute milliseconds depend on hardware; the shapes — who wins, by
// what factor, where recall saturates — are the reproduction target (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"simcloud/internal/bench"
)

func main() {
	// All work happens in run so deferred cleanups — most importantly the
	// pprof writers — fire on every exit path, including failures (the run
	// one most wants to profile is often the failing one).
	os.Exit(run())
}

func run() int {
	var (
		table   = flag.String("table", "all", "table to regenerate: 1..9 or all")
		scale   = flag.Int("scale", 100000, "CoPhIR collection size (paper: 1000000)")
		queries = flag.Int("queries", 100, "number of query objects to average over")
		k       = flag.Int("k", 30, "number of nearest neighbors (Tables 5-8)")
		seed    = flag.Uint64("seed", 2012, "seed for pivot selection and query sampling")
		bulk    = flag.Int("bulk", 1000, "bulk insert size")
		format  = flag.String("format", "text", "output format: text or csv")
		verbose = flag.Bool("v", false, "print progress to stderr")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		timeout = flag.Duration("timeout", 0, "per-query deadline through the context-aware Search API (0 = no deadline)")

		ablation = flag.Bool("ablation", false, "run the routing-family ablation (recall vs candidate size: M-Index and k-means vs the EHI/FDH brackets) instead of tables")
		backend  = flag.String("backend", "all", "ablation: index families to sweep (all, mindex, kmeans)")
		dataset  = flag.String("dataset", "all", "ablation: data set to sweep (all, clustered, embed768)")

		openloop = flag.Bool("openloop", false, "run an open-loop HTTP load test against the -gateway instead of tables")
		qps      = flag.Float64("qps", 100, "open loop: offered arrival rate in queries/s")
		conns    = flag.Int("conns", 4, "open loop: concurrent sender connections")
		duration = flag.Duration("duration", 10*time.Second, "open loop: offered-load window")
		candSize = flag.Int("candsize", 0, "open loop: candidate set size per query (0 = the gateway's default for -k)")
		gate     = flag.String("gateway", "", "open loop: gateway base URL (required with -openloop)")
		apiKey   = flag.String("apikey", "", "open loop: tenant API key for -gateway")
		dim      = flag.Int("dim", 8, "open loop: query vector dimensionality (must match the target's data)")
		jsonOut  = flag.String("json", "", "open loop: also write the report as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "simbench: unknown format %q\n", *format)
		return 2
	}
	if *openloop && *gate == "" {
		fmt.Fprintln(os.Stderr, "simbench: -openloop needs -gateway (the base URL of a running simgate)")
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: starting CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "simbench: writing memory profile: %v\n", err)
			}
		}()
	}

	opts := bench.Options{
		CoPhIRScale: *scale,
		Queries:     *queries,
		K:           *k,
		Seed:        *seed,
		BulkSize:    *bulk,
		Timeout:     *timeout,
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	if *openloop {
		start := time.Now()
		rep, err := bench.OpenLoop(bench.OpenLoopOptions{
			Target:   *gate,
			APIKey:   *apiKey,
			QPS:      *qps,
			Conns:    *conns,
			Duration: *duration,
			K:        *k,
			CandSize: *candSize,
			Dim:      *dim,
			Seed:     *seed,
			Log:      opts.Log,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
		rep.Render(os.Stdout)
		if err := writeJSON(*jsonOut, rep.Rows()); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "simbench: done in %s\n", bench.Elapsed(start))
		return 0
	}

	render := func(t *bench.Table) {
		if *format == "csv" {
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}

	if *ablation {
		start := time.Now()
		names := []string{"clustered", "embed768"}
		if *dataset != "all" {
			names = []string{*dataset}
		}
		for _, name := range names {
			t, err := bench.AblationTable(opts, name, *backend)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
				return 1
			}
			render(t)
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "simbench: done in %s\n", bench.Elapsed(start))
		return 0
	}

	start := time.Now()
	if *table == "all" {
		tables, err := bench.AllTables(opts)
		for _, t := range tables {
			render(t)
			fmt.Println()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
	} else {
		t, err := bench.Run(*table, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
		render(t)
	}
	fmt.Fprintf(os.Stderr, "simbench: done in %s\n", bench.Elapsed(start))
	return 0
}

// writeJSON writes the open-loop report's rows to path ("-" for stdout;
// empty writes nothing).
func writeJSON(path string, rs []bench.HistoryRow) error {
	switch path {
	case "":
		return nil
	case "-":
		return bench.WriteHistory(os.Stdout, rs)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteHistory(f, rs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
