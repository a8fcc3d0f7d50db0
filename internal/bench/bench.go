// Package bench is the experiment harness that regenerates every table of
// the paper's evaluation (Section 5): index construction (Tables 3–4),
// approximate 30-NN search (Tables 5–8), and the 1-NN comparison with the
// techniques of Yiu et al. (Table 9), plus the data-set and parameter
// summaries (Tables 1–2) and the ablation sweeps called out in DESIGN.md.
//
// Every experiment runs a real client–server pair over loopback TCP — the
// paper's measurement setup — and reports the same cost decomposition:
// client / encryption / decryption / distance-computation / server /
// communication / overall time, recall, and communication cost.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
)

// Options scales the experiments. The zero value is the paper-faithful
// configuration except for CoPhIRScale, which defaults to a laptop-scale
// subset (set it to dataset.CoPhIRSize for the full million).
type Options struct {
	// CoPhIRScale is the CoPhIR collection size (default 100,000).
	CoPhIRScale int
	// Queries is the number of query objects averaged over (paper: 100).
	Queries int
	// K is the number of neighbors (paper: 30; Table 9 uses 1).
	K int
	// Seed drives pivot selection and query sampling.
	Seed uint64
	// BulkSize is the insert batch size (paper: 1,000).
	BulkSize int
	// Timeout bounds each client operation (an insert bulk or one query)
	// through the context-aware Search API; 0 means no deadline, the
	// paper's patient-measurement behavior.
	Timeout time.Duration
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.CoPhIRScale == 0 {
		o.CoPhIRScale = 100000
	}
	if o.Queries == 0 {
		o.Queries = 100
	}
	if o.K == 0 {
		o.K = 30
	}
	if o.Seed == 0 {
		o.Seed = 2012
	}
	if o.BulkSize == 0 {
		o.BulkSize = 1000
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Spec describes one evaluation data set with its paper parameters
// (Table 2) and candidate-size sweep (Tables 5–8).
type Spec struct {
	Name      string
	Cfg       mindex.Config
	CandSizes []int
	Load      func(o Options) *dataset.Dataset
}

// MaxLevel used across the evaluation; the M-Index papers use dynamic
// depth ≤ 8 for collections of this scale.
const evalMaxLevel = 6

// Specs returns the three evaluation data sets with the paper's M-Index
// parameters: bucket capacities 200/250/1,000, memory/memory/disk storage,
// and 30/50/100 pivots.
func Specs() []Spec {
	return []Spec{
		{
			Name: "YEAST",
			Cfg: mindex.Config{
				NumPivots: 30, MaxLevel: evalMaxLevel, BucketCapacity: 200,
				Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
			},
			CandSizes: []int{150, 300, 600, 1500},
			Load:      func(Options) *dataset.Dataset { return dataset.Yeast() },
		},
		{
			Name: "HUMAN",
			Cfg: mindex.Config{
				NumPivots: 50, MaxLevel: evalMaxLevel, BucketCapacity: 250,
				Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
			},
			CandSizes: []int{200, 400, 800, 2000},
			Load:      func(Options) *dataset.Dataset { return dataset.Human() },
		},
		{
			Name: "CoPhIR",
			Cfg: mindex.Config{
				NumPivots: 100, MaxLevel: evalMaxLevel, BucketCapacity: 1000,
				Storage: mindex.StorageDisk, Ranking: mindex.RankFootrule,
			},
			CandSizes: []int{500, 1000, 5000, 10000, 20000, 50000},
			Load:      func(o Options) *dataset.Dataset { return dataset.CoPhIR(o.CoPhIRScale) },
		},
	}
}

// SpecByName returns the named evaluation spec.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown data set %q", name)
}

// opCtx derives the per-operation context from Options.Timeout.
func (o Options) opCtx() (context.Context, context.CancelFunc) {
	if o.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), o.Timeout)
}

// Cloud is a running client–server pair used by one experiment.
type Cloud struct {
	Srv    *server.Server
	Enc    *core.EncryptedClient
	Plain  *core.PlainClient
	Key    *secret.Key
	Pivots *pivot.Set
	// Timeout bounds each insert bulk of InsertAll (0 = no deadline); the
	// experiment loops set it from Options.Timeout so the construction
	// phase is deadline-bounded like the query phase.
	Timeout time.Duration
	tmpDir  string
}

// Close tears the pair down and removes temporary bucket storage.
func (c *Cloud) Close() {
	if c.Enc != nil {
		c.Enc.Close()
	}
	if c.Plain != nil {
		c.Plain.Close()
	}
	if c.Srv != nil {
		c.Srv.Close()
	}
	if c.tmpDir != "" {
		os.RemoveAll(c.tmpDir)
	}
}

// preparedCfg materializes a disk path for disk-backed configs.
func preparedCfg(cfg mindex.Config) (mindex.Config, string, error) {
	if cfg.Storage != mindex.StorageDisk {
		return cfg, "", nil
	}
	dir, err := os.MkdirTemp("", "simcloud-buckets-*")
	if err != nil {
		return cfg, "", err
	}
	cfg.DiskPath = dir
	return cfg, dir, nil
}

// selectPivots draws the pivot set from the collection, the paper's
// strategy ("chosen at random from within the data set").
func selectPivots(ds *dataset.Dataset, n int, seed uint64) *pivot.Set {
	rng := rand.New(rand.NewPCG(seed, 0x9170))
	return pivot.SelectRandom(rng, ds.Dist, ds.Objects, n)
}

// NewEncryptedCloud starts an encrypted-deployment server and an authorized
// client for the data set, without inserting anything.
func NewEncryptedCloud(ds *dataset.Dataset, cfg mindex.Config, seed uint64, opts core.Options) (*Cloud, error) {
	cfg, tmp, err := preparedCfg(cfg)
	if err != nil {
		return nil, err
	}
	pv := selectPivots(ds, cfg.NumPivots, seed)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	srv, err := server.NewEncrypted(cfg)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		srv.Close()
		os.RemoveAll(tmp)
		return nil, err
	}
	opts.MaxLevel = cfg.MaxLevel
	opts.Ranking = cfg.Ranking
	enc, err := core.DialEncrypted(srv.Addr(), key, opts)
	if err != nil {
		srv.Close()
		os.RemoveAll(tmp)
		return nil, err
	}
	return &Cloud{Srv: srv, Enc: enc, Key: key, Pivots: pv, tmpDir: tmp}, nil
}

// NewPlainCloud starts a plain-deployment server and client.
func NewPlainCloud(ds *dataset.Dataset, cfg mindex.Config, seed uint64) (*Cloud, error) {
	cfg, tmp, err := preparedCfg(cfg)
	if err != nil {
		return nil, err
	}
	pv := selectPivots(ds, cfg.NumPivots, seed)
	b, err := core.NewPlainBackend(cfg, pv)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	srv := server.NewPlain(b)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		srv.Close()
		os.RemoveAll(tmp)
		return nil, err
	}
	pc, err := core.DialPlain(srv.Addr())
	if err != nil {
		srv.Close()
		os.RemoveAll(tmp)
		return nil, err
	}
	return &Cloud{Srv: srv, Plain: pc, Pivots: pv, tmpDir: tmp}, nil
}

// InsertAll bulk-inserts the objects through whichever client the cloud has,
// in bulks of bulkSize, and returns the summed construction costs. Each
// bulk runs under Cloud.Timeout when set.
func (c *Cloud) InsertAll(objs []metric.Object, bulkSize int) (stats.Costs, error) {
	var total stats.Costs
	for start := 0; start < len(objs); start += bulkSize {
		end := min(start+bulkSize, len(objs))
		ctx, cancel := Options{Timeout: c.Timeout}.opCtx()
		var costs stats.Costs
		var err error
		if c.Enc != nil {
			costs, err = c.Enc.InsertContext(ctx, objs[start:end])
		} else {
			costs, err = c.Plain.InsertContext(ctx, objs[start:end])
		}
		cancel()
		if err != nil {
			return total, err
		}
		total.Accumulate(costs)
	}
	return total, nil
}

// GroundTruth computes the exact k-NN answer IDs for each query by a linear
// scan — the reference for recall measurements.
func GroundTruth(ds *dataset.Dataset, indexed []metric.Object, queries []metric.Object, k int) [][]uint64 {
	type cand struct {
		id uint64
		d  float64
	}
	out := make([][]uint64, len(queries))
	for qi, q := range queries {
		cands := make([]cand, len(indexed))
		for i, o := range indexed {
			cands[i] = cand{id: o.ID, d: ds.Dist.Dist(q.Vec, o.Vec)}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].id < cands[j].id
		})
		n := min(k, len(cands))
		ids := make([]uint64, n)
		for i := range n {
			ids[i] = cands[i].id
		}
		out[qi] = ids
	}
	return out
}
