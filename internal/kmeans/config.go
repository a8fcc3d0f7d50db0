package kmeans

import "simcloud/internal/mindex"

// Config parametrizes the server side of the family. There is no second
// index: the family is the M-Index configuration IndexConfig returns.
type Config struct {
	// NumCentroids is the number of cells K. Must match the client model
	// (and therefore the length of every entry's distance vector).
	NumCentroids int
	// Storage selects the bucket backend.
	Storage mindex.StorageKind
	// DiskPath is the bucket directory for StorageDisk.
	DiskPath string
	// DiskCacheBytes bounds the DiskStore read-through bucket cache
	// (semantics of mindex.Config.DiskCacheBytes).
	DiskCacheBytes int
}

// IndexConfig returns the M-Index configuration that serves the family: the
// centroids are the pivots and the cell tree stops at level 1, so leaf j is
// centroid j's cell, addressed by the one-element prefix [j]. Under the
// distance-sum ranking a level-1 cell's promise is
// FootruleWeights(1)[0]·T(d(q, c_j)) = T(d(q, c_j)) exactly, and equal
// promises break by PrefixLess([j]), i.e. by cell index: cells are visited
// in ascending transformed centroid distance. The root splits on the first
// insert, so no entry ever waits in an unsplit root bucket, and leaves at
// MaxLevel never split, so BucketCapacity has no effect. Validation is the
// M-Index's (engine.New rejects a non-positive NumCentroids or a disk
// config without a path).
func (c Config) IndexConfig() mindex.Config {
	return mindex.Config{
		NumPivots:      c.NumCentroids,
		MaxLevel:       1,
		BucketCapacity: 1,
		Storage:        c.Storage,
		DiskPath:       c.DiskPath,
		DiskCacheBytes: c.DiskCacheBytes,
		Ranking:        mindex.RankDistSum,
		EagerRootSplit: true,
	}
}
