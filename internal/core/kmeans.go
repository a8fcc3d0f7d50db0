package core

import (
	"simcloud/internal/engine"
	"simcloud/internal/kmeans"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
)

// The k-means routing family is an M-Index configuration (see
// kmeans.Config.IndexConfig and DESIGN.md §Routing Families): its client is
// the ordinary DirectClient over that engine, with the coder shape below.

// NewKMeansDirect creates an in-process client of the k-means family over a
// fresh engine built from cfg.IndexConfig(). key must be generated over the
// trained centroids (its pivot count is the cell count). Options.PrefixLen,
// MaxLevel, StoreDists and Ranking are fixed by the family — supplied values
// for those fields are ignored; the remaining options (Workers, …) apply as
// usual.
func NewKMeansDirect(cfg kmeans.Config, key *secret.Key, opts Options) (*DirectClient, error) {
	return NewDirect(cfg.IndexConfig(), key, kmeansOptions(opts))
}

// NewKMeansDirectWithEngine wraps an existing k-means engine — typically one
// restored via engine.LoadSnapshot(cfg.IndexConfig(), path) — without taking
// ownership of it, under the same fixed coder shape as NewKMeansDirect.
func NewKMeansDirectWithEngine(eng *engine.ShardedIndex, key *secret.Key, opts Options) (*DirectClient, error) {
	return NewDirectWithEngine(eng, key, kmeansOptions(opts))
}

// kmeansOptions pins the family's coder shape: a one-element routing prefix
// (the nearest-centroid cell), the precise strategy always on (it is what
// makes exact queries exact over one level of cells), and the distance-sum
// ranking (a cell's promise is the query's transformed centroid distance).
// A remote client of a family server dials with these options.
func kmeansOptions(opts Options) Options {
	opts.MaxLevel = 1
	opts.PrefixLen = 1
	opts.StoreDists = true
	opts.Ranking = mindex.RankDistSum
	return opts
}
