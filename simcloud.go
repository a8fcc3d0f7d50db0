package simcloud

import (
	"context"
	"math/rand/v2"

	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/kmeans"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
)

// Re-exported core types. Aliases keep the full method sets available while
// the implementations live in internal packages.
type (
	// Vector is a metric-space descriptor (float32 components).
	Vector = metric.Vector
	// Object is an identified metric-space object.
	Object = metric.Object
	// Distance is a metric distance function.
	Distance = metric.Distance
	// Result is one similarity-search answer.
	Result = core.Result
	// Costs is the per-operation cost decomposition.
	Costs = stats.Costs
	// Config parametrizes the server-side M-Index.
	Config = mindex.Config
	// Key is the client secret (pivots + cipher key).
	Key = secret.Key
	// PivotSet is an ordered set of reference objects.
	PivotSet = pivot.Set
	// Server is a similarity-cloud server.
	Server = server.Server
	// EncryptedClient is an authorized client of the encrypted deployment.
	EncryptedClient = core.EncryptedClient
	// PlainClient is a client of the non-encrypted baseline deployment.
	PlainClient = core.PlainClient
	// DirectClient embeds the index engine in-process: same client-side
	// transform and refinement as EncryptedClient, no network.
	DirectClient = core.DirectClient
	// ClientOptions configures an encrypted client.
	ClientOptions = core.Options
	// Query is one similarity query, uniform across every backend and kind
	// (see QueryKind and the Searcher interface).
	Query = core.Query
	// QueryKind selects a Query's flavor (KindRange, KindKNN,
	// KindApproxKNN, KindFirstCell).
	QueryKind = core.QueryKind
	// Searcher is the unified context-aware query surface implemented by
	// EncryptedClient, PlainClient and DirectClient.
	Searcher = core.Searcher
	// Dataset is a generated evaluation collection.
	Dataset = dataset.Dataset
	// Coordinator federates several encrypted servers into one similarity
	// cloud (see internal/cluster and DESIGN.md §Distribution).
	Coordinator = cluster.Coordinator
	// CoordinatorOptions configures a Coordinator.
	CoordinatorOptions = cluster.Options
	// Stats is the unified operational view of one Searcher backend:
	// engine population, tree shape, cache counters and lease-pool depth
	// behind one JSON-encodable facade (see CollectStats). The gateway's
	// /metrics endpoint and simbench consume exactly this shape.
	Stats = core.Stats
	// EngineStats is the Stats section describing index entry population.
	EngineStats = core.EngineStats
	// TreeStats is the Stats section describing the cell-tree shape.
	TreeStats = core.TreeStats
	// CacheStats is the Stats section with the disk bucket-cache counters.
	CacheStats = core.CacheStats
	// IngestStats is the Stats section with the ingest counters (entries
	// accepted, bulk-builder batches, encoded bytes).
	IngestStats = core.IngestStats
	// PoolStats is the Stats section with the connection-lease-pool depth
	// and lifetime dial/discard counters of a networked client.
	PoolStats = core.PoolStats
	// KMeansConfig parametrizes the k-means routing family's index — an
	// M-Index configuration (centroids as pivots, one level of cells; see
	// DESIGN.md §Routing Families and KMeansConfig.IndexConfig).
	KMeansConfig = kmeans.Config
	// KMeansModel is a trained set of centroids — the client secret of the
	// k-means family, fed to GenerateKey via its PivotSet.
	KMeansModel = kmeans.Model
	// KMeansTrainConfig parametrizes TrainKMeans (K, seed, Lloyd iteration
	// bound, training-sample cap, metric — spherical update under Cosine).
	KMeansTrainConfig = kmeans.TrainConfig
	// CandSizePredictor is the learned per-query candidate-size model
	// selected by Query.TargetRecall (fit it with DirectClient.Calibrate).
	CandSizePredictor = kmeans.Predictor
)

// Storage backends for Config.Storage.
const (
	StorageMemory = mindex.StorageMemory
	StorageDisk   = mindex.StorageDisk
)

// DefaultDiskCacheBytes is the bucket-cache budget a disk-backed index gets
// when Config.DiskCacheBytes is left 0: the server keeps up to this many
// bytes of leaf bucket images — each admitted on a read while it fits, kept
// until its bucket changes — and serves repeated queries from them instead
// of re-reading bucket files (set DiskCacheBytes negative to
// disable, positive to size it explicitly; results are identical either
// way — see DESIGN.md §Performance).
const DefaultDiskCacheBytes = mindex.DefaultDiskCacheBytes

// Cell-ranking strategies for Config.Ranking.
const (
	RankFootrule = mindex.RankFootrule
	RankDistSum  = mindex.RankDistSum
)

// Query kinds for Query.Kind: the precise range query R(q, r), the precise
// k-NN query (a first pass that learns ρk, then the range ρk), the
// approximate k-NN over a
// promise-ranked candidate set, and the restricted 1-cell approximate k-NN
// of the paper's Section 5.4 comparison.
const (
	KindRange     = core.KindRange
	KindKNN       = core.KindKNN
	KindApproxKNN = core.KindApproxKNN
	KindFirstCell = core.KindFirstCell
)

// Cipher modes for GenerateKeyMode.
const (
	ModeCTRHMAC = secret.ModeCTRHMAC
	ModeGCM     = secret.ModeGCM
)

// L1 returns the Manhattan distance.
func L1() Distance { return metric.L1{} }

// L2 returns the Euclidean distance.
func L2() Distance { return metric.L2{} }

// Linf returns the Chebyshev (maximum) distance.
func Linf() Distance { return metric.Chebyshev{} }

// Lp returns the Minkowski distance of order p (p >= 1).
func Lp(p float64) Distance { return metric.Lp{P: p} }

// CoPhIR returns the weighted MPEG-7 descriptor-combination distance used
// by the CoPhIR image collection.
func CoPhIR() Distance { return metric.NewCoPhIR() }

// Cosine returns the angular distance (1 − cosine similarity) — the
// standard metric for normalized embedding vectors.
func Cosine() Distance { return metric.Cosine{} }

// DistanceByName resolves a distance function by its Name() string.
func DistanceByName(name string) (Distance, error) { return metric.ByName(name) }

// DefaultConfig returns a reasonable M-Index configuration for numPivots
// pivots: dynamic depth up to min(8, numPivots), bucket capacity 200,
// memory storage, footrule ranking.
func DefaultConfig(numPivots int) Config {
	return Config{
		NumPivots:      numPivots,
		MaxLevel:       min(8, numPivots),
		BucketCapacity: 200,
		Storage:        StorageMemory,
		Ranking:        RankFootrule,
	}
}

// DefaultShardedConfig is DefaultConfig with the index partitioned across
// the given number of independently locked shards (see Config.Shards):
// inserts hash-route by the first permutation element and searches fan out
// in parallel, converting the server hot path from lock-serialized to
// core-parallel while preserving result sets. Shards <= 1 is exactly
// DefaultConfig.
func DefaultShardedConfig(numPivots, shards int) Config {
	cfg := DefaultConfig(numPivots)
	cfg.Shards = shards
	return cfg
}

// SelectPivots draws n pivots at random (deterministically from seed) from
// the data collection, the paper's pivot-selection strategy.
func SelectPivots(seed uint64, dist Distance, data []Object, n int) *PivotSet {
	rng := rand.New(rand.NewPCG(seed, 0x51E7))
	return pivot.SelectRandom(rng, dist, data, n)
}

// SelectPivotsMaxSeparated draws n pivots by greedy farthest-point
// traversal — an alternative to the paper's random choice that yields more
// discriminative permutations (see the pivot-selection ablation benchmark).
func SelectPivotsMaxSeparated(seed uint64, dist Distance, data []Object, n int) *PivotSet {
	rng := rand.New(rand.NewPCG(seed, 0x51E8))
	return pivot.SelectMaxSeparated(rng, dist, data, n, 0)
}

// NewPivotSet wraps explicit pivot vectors.
func NewPivotSet(dist Distance, pivots []Vector) *PivotSet {
	return pivot.NewSet(dist, pivots)
}

// GenerateKey creates a fresh secret key (AES-128-CTR + HMAC-SHA256) for
// the pivot set. The key must be shared only with authorized clients.
func GenerateKey(pivots *PivotSet) (*Key, error) {
	return secret.Generate(pivots, secret.ModeCTRHMAC)
}

// GenerateKeyMode is GenerateKey with an explicit cipher mode.
func GenerateKeyMode(pivots *PivotSet, mode secret.Mode) (*Key, error) {
	return secret.Generate(pivots, mode)
}

// MarshalKey serializes a key for distribution to authorized clients.
func MarshalKey(k *Key) ([]byte, error) { return k.Marshal() }

// FitEqualizingTransform attaches a distribution-hiding distance
// transformation to the key (the paper's future-work privacy level 4,
// implemented for the precise strategy): object–pivot distances stored on
// the server are remapped through a keyed strictly monotone equalizing
// transform, so the server sees an (approximately) uniform distance
// distribution instead of the data's fingerprint. Query results remain
// exact; pruning gets conservatively looser. The transform is fitted from
// sampleSize objects of data (capped at the collection size) and travels
// inside the marshaled key.
func FitEqualizingTransform(k *Key, data []Object, sampleSize, knots int) error {
	if sampleSize > len(data) {
		sampleSize = len(data)
	}
	pivots := k.Pivots()
	sample := make([]float64, 0, sampleSize*pivots.N())
	step := 1
	if sampleSize > 0 {
		step = max(1, len(data)/sampleSize)
	}
	for i := 0; i < len(data); i += step {
		sample = append(sample, pivots.Distances(data[i].Vec)...)
	}
	return k.FitTransform(sample, knots)
}

// UnmarshalKey reconstructs a key serialized by MarshalKey.
func UnmarshalKey(blob []byte) (*Key, error) { return secret.Unmarshal(blob) }

// NewEncryptedServer creates a similarity-cloud server for the encrypted
// deployment: it stores only ciphertexts plus pivot-space metadata and
// returns candidate sets.
func NewEncryptedServer(cfg Config) (*Server, error) { return server.NewEncrypted(cfg) }

// NewPlainServer creates the non-encrypted baseline server: it owns the
// pivots and raw data and answers queries completely.
func NewPlainServer(cfg Config, pivots *PivotSet) (*Server, error) {
	b, err := core.NewPlainBackend(cfg, pivots)
	if err != nil {
		return nil, err
	}
	return server.NewPlain(b), nil
}

// NewCoordinator connects to the encrypted servers at the given addresses,
// verifies they are key-compatible, and federates them behind one address:
// entries place on node Perm[0] mod N, queries fan out and combine by the
// same merge order a sharded single server uses, and clients connect with
// DialEncrypted exactly as to a single server. Nodes of a multi-node
// cluster must run with Config.EagerRootSplit (or Shards > 1); see
// DESIGN.md §Distribution.
func NewCoordinator(nodeAddrs []string, opts CoordinatorOptions) (*Coordinator, error) {
	return cluster.New(nodeAddrs, opts)
}

// DialEncrypted connects an authorized client to an encrypted server.
func DialEncrypted(addr string, key *Key, opts ClientOptions) (*EncryptedClient, error) {
	return core.DialEncrypted(addr, key, opts)
}

// DialEncryptedContext is DialEncrypted under a context: ctx bounds the
// dial and the hello handshake that verifies the server is an encrypted
// deployment over the key's pivot count.
func DialEncryptedContext(ctx context.Context, addr string, key *Key, opts ClientOptions) (*EncryptedClient, error) {
	return core.DialEncryptedContext(ctx, addr, key, opts)
}

// DialPlain connects a client to a plain server.
func DialPlain(addr string) (*PlainClient, error) { return core.DialPlain(addr) }

// DialPlainContext is DialPlain under a context (see DialEncryptedContext).
func DialPlainContext(ctx context.Context, addr string) (*PlainClient, error) {
	return core.DialPlainContext(ctx, addr)
}

// NewDirectClient creates an in-process client over a fresh index engine
// built from cfg — the embedded-library deployment: identical privacy
// posture on disk and in memory (the index stores only ciphertexts plus
// pivot-space metadata), no network. It implements Searcher, so code
// written against Search/SearchBatch runs unchanged against all three
// backends.
func NewDirectClient(cfg Config, key *Key, opts ClientOptions) (*DirectClient, error) {
	return core.NewDirect(cfg, key, opts)
}

// CollectStats gathers the unified operational stats a Searcher backend
// can report: engine/tree/cache sections when the backend holds the engine
// in-process (DirectClient), lease-pool depth when it is networked
// (EncryptedClient, PlainClient). Collection never fails — backends that
// cannot report a section leave it zero.
func CollectStats(s Searcher) Stats { return core.CollectStats(s) }

// Recall returns |result ∩ exact| / |exact| in percent.
func Recall(result, exact []uint64) float64 { return stats.Recall(result, exact) }

// Evaluation data-set generators (synthetic stand-ins for the paper's
// collections; see DESIGN.md for the substitution rationale).

// Yeast generates the YEAST gene-expression stand-in (2,882 × 17, L1).
func Yeast() *Dataset { return dataset.Yeast() }

// Human generates the HUMAN gene-expression stand-in (4,026 × 96, L1).
func Human() *Dataset { return dataset.Human() }

// CoPhIRData generates an n-object CoPhIR image-descriptor stand-in
// (n × 280, weighted MPEG-7 combination).
func CoPhIRData(n int) *Dataset { return dataset.CoPhIR(n) }

// ClusteredData generates a generic clustered collection for experiments.
func ClusteredData(seed uint64, n, dim, clusters int, dist Distance) *Dataset {
	return dataset.Clustered(seed, n, dim, clusters, dist)
}

// Embed768Data generates an n-object 768-dimensional unit-normalized
// embedding stand-in (cosine distance) — today's hottest similarity
// workload and the high-dimensional stress test for both routing families.
func Embed768Data(n int) *Dataset { return dataset.Embed768(n) }

// TrainKMeans fits the centroid model of the k-means routing family to a
// collection (deterministic for a given TrainConfig.Seed). The model is a
// client secret: derive the deployment key from its PivotSet with
// GenerateKey and persist both — a regenerated key cannot decrypt old
// payloads.
func TrainKMeans(cfg KMeansTrainConfig, data []Object) (*KMeansModel, error) {
	return kmeans.Train(cfg, data)
}

// NewKMeansDirect creates an in-process DirectClient of the k-means routing
// family over a fresh engine built from cfg.IndexConfig(): objects route
// to their nearest centroid's cell, approximate queries visit cells in
// ascending centroid distance, range/KNN answers are equivalence-tested
// against the M-Index backends. The key must be generated from the trained
// model's PivotSet; the family fixes the prefix length, MaxLevel,
// StoreDists and Ranking of opts.
func NewKMeansDirect(cfg KMeansConfig, key *Key, opts ClientOptions) (*DirectClient, error) {
	return core.NewKMeansDirect(cfg, key, opts)
}
