package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

// Model is a trained set of centroids together with the distance function
// they were trained under. Like the M-Index pivot set it is client-side
// state: the data owner trains it on (a sample of) the plaintext collection,
// folds it into a secret.Key via PivotSet, and never ships it to the server.
type Model struct {
	// Dist is the metric the centroids partition.
	Dist metric.Distance
	// Centroids are the cell centers, in cell-index order.
	Centroids []metric.Vector
}

// K returns the number of centroids (= cells).
func (m *Model) K() int { return len(m.Centroids) }

// PivotSet wraps the centroids as a pivot set, ready for secret.Generate:
// the centroids then play the role of the M-Index pivots in the shared
// client-side coder (distances, routing prefix, transform).
func (m *Model) PivotSet() *pivot.Set {
	return pivot.NewSet(m.Dist, m.Centroids)
}

// TrainConfig parametrizes Train.
type TrainConfig struct {
	// K is the number of centroids. Required, at most len(data).
	K int
	// Seed makes training fully deterministic: the same seed, config and
	// data always yield byte-identical centroids.
	Seed uint64
	// MaxIters bounds the Lloyd iterations. 0 means 25 — past convergence
	// for the collection sizes this repo benches.
	MaxIters int
	// SampleCap, when positive, trains on a deterministic sample of at most
	// this many objects instead of the full collection (Lloyd is O(n·K·dim)
	// per iteration; centroid quality saturates long before full-data
	// training pays off).
	SampleCap int
	// Dist is the metric to partition. Required.
	Dist metric.Distance
}

// Train fits K centroids to the collection: k-means++ seeding followed by
// Lloyd iterations until assignments stabilize or MaxIters is reached.
// Assignment uses cfg.Dist (so cells are Voronoi cells of the deployed
// metric); the update step takes coordinate means, re-normalized onto the
// unit sphere for the cosine metric (spherical k-means). An emptied cluster
// is reseeded to the point farthest from its assigned centroid.
//
// Training is deterministic: rng state derives only from cfg.Seed, and all
// accumulation runs in index order.
func Train(cfg TrainConfig, data []metric.Object) (*Model, error) {
	if cfg.Dist == nil {
		return nil, errors.New("kmeans: TrainConfig.Dist is required")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	if cfg.K > len(data) {
		return nil, fmt.Errorf("kmeans: K=%d exceeds collection size %d", cfg.K, len(data))
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 25
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x4b4d4541)) // "KMEA"
	if cfg.SampleCap > 0 && len(data) > cfg.SampleCap {
		idx := rng.Perm(len(data))[:cfg.SampleCap]
		sample := make([]metric.Object, len(idx))
		for i, j := range idx {
			sample[i] = data[j]
		}
		data = sample
		if cfg.K > len(data) {
			return nil, fmt.Errorf("kmeans: K=%d exceeds sample cap %d", cfg.K, cfg.SampleCap)
		}
	}
	dim := len(data[0].Vec)
	centroids := seedPlusPlus(rng, cfg.Dist, data, cfg.K)
	assign := make([]int, len(data))
	for i := range assign {
		assign[i] = -1
	}
	spherical := cfg.Dist.Name() == "cosine"
	sums := make([][]float64, cfg.K)
	for j := range sums {
		sums[j] = make([]float64, dim)
	}
	counts := make([]int, cfg.K)
	for range iters {
		changed := false
		for i, o := range data {
			best, _ := nearest(cfg.Dist, centroids, o.Vec)
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		for j := range sums {
			clear(sums[j])
			counts[j] = 0
		}
		for i, o := range data {
			s := sums[assign[i]]
			for d, v := range o.Vec {
				s[d] += float64(v)
			}
			counts[assign[i]]++
		}
		for j := range centroids {
			if counts[j] == 0 {
				// Reseed to the point farthest from its centroid — the
				// standard deterministic empty-cluster repair.
				far, farD := 0, -1.0
				for i, o := range data {
					if d := cfg.Dist.Dist(o.Vec, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[j] = data[far].Vec.Clone()
				continue
			}
			c := centroids[j]
			inv := 1 / float64(counts[j])
			for d := range c {
				c[d] = float32(sums[j][d] * inv)
			}
			if spherical {
				normalize(c)
			}
		}
	}
	return &Model{Dist: cfg.Dist, Centroids: centroids}, nil
}

// seedPlusPlus is the k-means++ initialization: the first centroid is drawn
// uniformly, each further one with probability proportional to the squared
// distance to the nearest already-chosen centroid.
func seedPlusPlus(rng *rand.Rand, dist metric.Distance, data []metric.Object, k int) []metric.Vector {
	centroids := make([]metric.Vector, 0, k)
	centroids = append(centroids, data[rng.IntN(len(data))].Vec.Clone())
	d2 := make([]float64, len(data))
	total := 0.0
	for i, o := range data {
		d := dist.Dist(o.Vec, centroids[0])
		d2[i] = d * d
		total += d2[i]
	}
	for len(centroids) < k {
		var pick int
		if total <= 0 {
			// Every remaining point coincides with a centroid; any choice is
			// as good as any other — take a uniform one deterministically.
			pick = rng.IntN(len(data))
		} else {
			r := rng.Float64() * total
			for i, w := range d2 {
				if r < w {
					pick = i
					break
				}
				r -= w
				pick = i // guards float leakage: the last index wins
			}
		}
		c := data[pick].Vec.Clone()
		centroids = append(centroids, c)
		total = 0
		for i, o := range data {
			if d := dist.Dist(o.Vec, c); d*d < d2[i] {
				d2[i] = d * d
			}
			total += d2[i]
		}
	}
	return centroids
}

// nearest returns the index of (and distance to) the closest centroid, ties
// broken by the smaller index — the same tie rule pivot.Permutation applies,
// so training-time assignment agrees with the coder's routing prefix.
func nearest(dist metric.Distance, centroids []metric.Vector, v metric.Vector) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for j, c := range centroids {
		if d := dist.Dist(v, c); d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

func normalize(v metric.Vector) {
	var sq float64
	for _, x := range v {
		sq += float64(x) * float64(x)
	}
	if sq == 0 {
		v[0] = 1
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range v {
		v[i] = float32(float64(v[i]) * inv)
	}
}
