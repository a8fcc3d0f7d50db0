package main

import (
	"fmt"

	"simcloud/internal/mindex"
)

// A spec is one workload: the data, the deployment it runs on and the load
// offered to it. Every value here is a constant of the benchmark, calibrated
// once on the commit that added it (see README.md, "Calibrated constants");
// nothing is derived at run time, so two commits are always measured under
// the same offered load.
type spec struct {
	name string

	// Data.
	data    string // "cophir" (280-d, weighted MPEG-7 distance) or "clustered" (L2)
	dim     int    // clustered only
	n       int    // objects loaded before the timed phases
	extra   int    // further objects, inserted by write operations; set by runner.prepare from the run's length
	queries int    // distinct query objects, cycled by the load phases

	// Deployment.
	pivots      int
	storeDists  bool
	nodes       int // servers; > 1 puts a coordinator in front
	replicas    int
	shards      int // per server
	disk        bool
	cacheBytes  int // mindex.Config.DiskCacheBytes (0 = the 32 MiB default)
	autoCompact float64
	gateway     bool // HTTP/JSON front door before the client
	reference   bool // the cluster's answers must equal one reference server's

	// rounds is how often a run sets the system up (the last set-up is kept):
	// as often as fits about six seconds, so that the figures of a deployment
	// that loads in a fraction of a second rest on more than three samples.
	rounds int

	// What a traced run replays serially: reads, and ingest chunks of
	// streamChunk entries.
	tracedReads, tracedChunks int

	// Load.
	exact     bool    // 50 % range + 50 % exact k-NN instead of approximate k-NN
	k         int     // neighbours asked for
	candSize  int     // approximate candidate-set size
	rangeHits int     // a range query's radius is the distance of its rangeHits-th neighbour
	readQPS   float64 // open-loop read rate, 0.2–0.3 × the seed's query_sat_qps
	writeRate float64 // open-loop write operations/s beside the reads; 0 = no writer, a probe per cycle instead
}

const (
	maxLevel    = 8   // simserver default
	bucketCap   = 200 // simserver default
	writeBatch  = 32  // entries a write operation inserts, and then deletes
	cycles      = 8   // the timed window is this many cycles of closed loop, then open loop
	probeWrites = 8   // serial write operations timed at the start of each cycle when there is no writer
	streamChunk = 64  // core.Options.BatchChunk default
	warmQueries = 40
	findChecks  = 20 // inserted objects looked up by their own vector after the writes
	satShare    = 0.3
)

// The four workloads. Sizes are what fits the driver's budget of about 35 s
// per run with three set-ups in it, not what ISSUE.md first asked for (see
// README.md, "Departures").
var specs = []*spec{
	{
		name: "chain_refine", data: "cophir", n: 16000, queries: 200,
		pivots: 30, nodes: 3, replicas: 2, shards: 1, gateway: true, reference: true, rounds: 3,
		k: 10, candSize: 400, readQPS: 75,
	},
	{
		name: "exact_disk", data: "clustered", dim: 8, n: 60000, queries: 200,
		pivots: 24, storeDists: true, nodes: 1, replicas: 1, shards: 2,
		disk: true, cacheBytes: 2 << 20, rounds: 3,
		exact: true, k: 10, rangeHits: 20, readQPS: 45,
	},
	{
		name: "ingest_recover", data: "cophir", n: 16000, queries: 200,
		pivots: 30, nodes: 3, replicas: 2, shards: 1, disk: true, rounds: 3,
		k: 10, candSize: 400, readQPS: 100,
	},
	{
		name: "mixed_churn", data: "clustered", dim: 8, n: 20000, queries: 400,
		pivots: 16, nodes: 1, replicas: 1, shards: 4, disk: true, autoCompact: 0.2, rounds: 5,
		k: 10, candSize: 300, readQPS: 160, writeRate: 25,
	},
}

// exactChecks is how many exact k-NN answers are compared with brute force on
// the final collection. Without stored pivot distances the server cannot
// filter a range query, so an exact k-NN downloads most of the collection
// (about 0.25 s each on CoPhIR) and only a few fit the run.
func (s *spec) exactChecks() int {
	if s.storeDists {
		return 50
	}
	return 4
}

func init() {
	for _, s := range specs {
		s.tracedReads, s.tracedChunks = 300, 40
	}
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tiny returns the workload shrunk for the harness's own tests: the same
// deployment and code paths on a collection that loads in milliseconds.
func (s *spec) tiny() *spec {
	t := *s
	t.n = 1000
	t.queries = 16
	t.rounds = 2
	t.tracedReads, t.tracedChunks = 60, 8
	t.readQPS = min(s.readQPS, 150)
	if t.cacheBytes > 0 {
		t.cacheBytes = 64 << 10
	}
	return &t
}

// nodeConfig is the index configuration of one server of the deployment.
func (s *spec) nodeConfig(diskPath string) mindex.Config {
	cfg := mindex.Config{
		NumPivots:           s.pivots,
		MaxLevel:            maxLevel,
		BucketCapacity:      bucketCap,
		Storage:             mindex.StorageMemory,
		Ranking:             mindex.RankFootrule,
		Shards:              s.shards,
		EagerRootSplit:      true, // the coordinator federates eager-split nodes only
		AutoCompactFraction: s.autoCompact,
	}
	if s.disk {
		cfg.Storage = mindex.StorageDisk
		cfg.DiskPath = diskPath
		cfg.DiskCacheBytes = s.cacheBytes
	}
	return cfg
}
