package core

import "simcloud/internal/engine"

// The unified stats surface: three ad-hoc shapes used to describe a
// deployment's health — engine.Stats (per-shard live/dead), mindex.Stats
// (tree shape) and the bare (hits, misses, ok) tuple of Index.CacheStats —
// and each consumer stitched them together by hand. Stats is the one
// facade over all of them plus the connection-lease pool, consumed by the
// gateway's /metrics endpoint, simbench and any operator tooling. Every
// section is plain data, JSON-encodable as-is.

// EngineStats describes the index engine's entry population: totals plus
// the per-shard decomposition (ShardLive[i]/ShardDead[i] describe shard i).
type EngineStats struct {
	Shards    int   `json:"shards"`
	Live      int   `json:"live"`
	Dead      int   `json:"dead"`
	ShardLive []int `json:"shard_live,omitempty"`
	ShardDead []int `json:"shard_dead,omitempty"`
}

// TreeStats describes the aggregated cell-tree shape across shards (counts
// sum; depth and bucket maxima take the max over shards).
type TreeStats struct {
	Leaves      int `json:"leaves"`
	InnerNodes  int `json:"inner_nodes"`
	MaxDepth    int `json:"max_depth"`
	MaxBucket   int `json:"max_bucket"`
	TotalBucket int `json:"total_bucket"`
}

// CacheStats reports the disk-bucket read-through cache counters summed
// over all disk-backed shards (all zero for memory storage).
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// IngestStats reports what the engine's inserts have accepted since it
// opened: entries admitted, batches applied (one per shard a batch
// reaches), and the encoded bytes those entries occupy in the bucket store.
// Zero for networked backends (the engine lives on the remote server).
type IngestStats struct {
	Entries uint64 `json:"entries"`
	Builds  uint64 `json:"builds"`
	Bytes   uint64 `json:"bytes"`
}

// Stats is the unified operational view of one Searcher backend. Which
// sections carry data depends on the backend: an in-process DirectClient
// (or anything else exposing its engine) fills Engine/Tree/Cache; a
// networked client fills Pool (its lease-pool depth — the engine lives on
// the remote server). Collect it with CollectStats.
type Stats struct {
	Engine EngineStats `json:"engine"`
	Tree   TreeStats   `json:"tree"`
	Cache  CacheStats  `json:"cache"`
	Ingest IngestStats `json:"ingest"`
	Pool   PoolStats   `json:"pool"`
}

// engineStatser is satisfied by backends that can hand out their embedded
// engine (DirectClient; also any future server-side wrapper).
type engineStatser interface {
	Engine() *engine.ShardedIndex
}

// poolStatser is satisfied by the networked clients (their lease pool is
// the client-side resource worth watching).
type poolStatser interface {
	PoolStats() PoolStats
}

// CollectStats gathers the unified stats a Searcher backend can report:
// engine-side sections when the backend embeds the engine in-process,
// lease-pool depth when it is networked. Unknown backends yield a zero
// Stats — collection never fails, it just reports less.
func CollectStats(s Searcher) Stats {
	var out Stats
	if es, ok := s.(engineStatser); ok {
		out = EngineStatsOf(es.Engine())
	}
	if ps, ok := s.(poolStatser); ok {
		out.Pool = ps.PoolStats()
	}
	return out
}

// EngineStatsOf renders one engine's stats into the unified shape (the
// Pool section stays zero — an engine has no client pool).
func EngineStatsOf(eng *engine.ShardedIndex) Stats {
	es := eng.Stats()
	out := Stats{
		Engine: EngineStats{
			Shards: len(es.Shards),
			Live:   es.Total.Entries,
			Dead:   es.Total.Dead,
		},
		Tree: TreeStats{
			Leaves:      es.Total.Leaves,
			InnerNodes:  es.Total.InnerNodes,
			MaxDepth:    es.Total.MaxDepth,
			MaxBucket:   es.Total.MaxBucket,
			TotalBucket: es.Total.TotalBucket,
		},
		Cache: CacheStats{Hits: es.CacheHits, Misses: es.CacheMisses},
		Ingest: IngestStats{
			Entries: es.Ingest.Entries,
			Builds:  es.Ingest.Builds,
			Bytes:   es.Ingest.Bytes,
		},
	}
	if len(es.Shards) > 1 {
		out.Engine.ShardLive = make([]int, len(es.Shards))
		out.Engine.ShardDead = make([]int, len(es.Shards))
		for i, sh := range es.Shards {
			out.Engine.ShardLive[i] = sh.Entries
			out.Engine.ShardDead[i] = sh.Dead
		}
	}
	return out
}
