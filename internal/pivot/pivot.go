// Package pivot implements the reference-object (pivot) machinery shared by
// the M-Index and the Encrypted M-Index: pivot selection, object–pivot
// distance computation, pivot permutations in the sense of Chávez et al.
// ("Effective Proximity Retrieval by Ordering Permutations"), permutation
// prefixes, and the rank-based promise values used to order Voronoi cells
// during approximate search.
//
// A pivot permutation of an object o with respect to pivots p1..pn is the
// ordering of pivot indexes by increasing distance d(p_i, o), with ties
// broken by the smaller index — exactly the definition in Section 4.1 of the
// paper. The M-Index uses prefixes of this permutation to address Voronoi
// cells; the Encrypted M-Index makes the pivot set part of the secret key so
// the untrusted server only ever sees permutations (or raw distance vectors)
// without the pivots they refer to.
package pivot

import (
	"fmt"
	"math"
	"math/rand/v2"

	"simcloud/internal/metric"
	"simcloud/internal/simd"
)

// Set is an ordered collection of pivot vectors together with the distance
// function they are compared under. In the Encrypted M-Index the Set is part
// of the client secret key and never leaves the data owner's trust domain.
type Set struct {
	Dist   metric.Distance
	Pivots []metric.Vector
}

// NewSet builds a pivot set from the given vectors. The vectors are cloned
// so later mutation of the source slice cannot corrupt the set.
func NewSet(d metric.Distance, pivots []metric.Vector) *Set {
	cloned := make([]metric.Vector, len(pivots))
	for i, p := range pivots {
		cloned[i] = p.Clone()
	}
	return &Set{Dist: d, Pivots: cloned}
}

// SelectRandom chooses n distinct pivots uniformly at random from data, the
// strategy used in the paper ("the pivots used were chosen at random from
// within the data set"). It panics if data holds fewer than n objects.
func SelectRandom(rng *rand.Rand, d metric.Distance, data []metric.Object, n int) *Set {
	if len(data) < n {
		panic(fmt.Sprintf("pivot: cannot select %d pivots from %d objects", n, len(data)))
	}
	perm := rng.Perm(len(data))
	pivots := make([]metric.Vector, n)
	for i := range n {
		pivots[i] = data[perm[i]].Vec.Clone()
	}
	return &Set{Dist: d, Pivots: pivots}
}

// SelectMaxSeparated chooses n pivots by greedy farthest-point traversal
// (Gonzalez): the first pivot is random, each next pivot is the candidate
// maximizing its minimum distance to the pivots chosen so far. Well
// separated pivots produce more discriminative permutations than the
// paper's random choice; the ablation benchmarks quantify the difference.
// For large collections candidates are drawn from a random sample of
// sampleCap objects (<= 0 uses 1024).
func SelectMaxSeparated(rng *rand.Rand, d metric.Distance, data []metric.Object, n, sampleCap int) *Set {
	if len(data) < n {
		panic(fmt.Sprintf("pivot: cannot select %d pivots from %d objects", n, len(data)))
	}
	if sampleCap <= 0 {
		sampleCap = 1024
	}
	candIdx := rng.Perm(len(data))
	if len(candIdx) > sampleCap {
		candIdx = candIdx[:sampleCap]
	}
	if len(candIdx) < n {
		candIdx = rng.Perm(len(data))[:n]
	}
	// minDist[i] = distance from candidate i to its closest chosen pivot.
	minDist := make([]float64, len(candIdx))
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	pivots := make([]metric.Vector, 0, n)
	next := rng.IntN(len(candIdx))
	for len(pivots) < n {
		p := data[candIdx[next]].Vec
		pivots = append(pivots, p.Clone())
		best, bestD := -1, -1.0
		for i, ci := range candIdx {
			dist := d.Dist(p, data[ci].Vec)
			if dist < minDist[i] {
				minDist[i] = dist
			}
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		next = best
	}
	return &Set{Dist: d, Pivots: pivots}
}

// N returns the number of pivots.
func (s *Set) N() int { return len(s.Pivots) }

// Distances computes the distance from v to every pivot, in pivot order.
// This is the only metric computation an authorized client must perform
// before contacting the server (Algorithm 1 / Algorithm 2, line 1).
func (s *Set) Distances(v metric.Vector) []float64 {
	return s.DistancesInto(make([]float64, len(s.Pivots)), v)
}

// DistancesInto is Distances writing into a caller-provided slice of length
// N() — the allocation-free form query loops use (one pivot-distance row
// per query).
func (s *Set) DistancesInto(dst []float64, v metric.Vector) []float64 {
	if len(dst) != len(s.Pivots) {
		panic(fmt.Sprintf("pivot: destination holds %d distances, need %d", len(dst), len(s.Pivots)))
	}
	for i, p := range s.Pivots {
		dst[i] = s.Dist.Dist(p, v)
	}
	return dst
}

// Permutation converts a distance vector (as returned by Distances) into a
// pivot permutation: the pivot indexes ordered by increasing distance, ties
// broken by smaller index.
func Permutation(dists []float64) []int32 {
	return PermutationInto(make([]int32, len(dists)), dists)
}

// PermutationInto is Permutation writing into a caller-provided slice of
// length len(dists). The ordering key — (distance, pivot index) — is a total
// order, so the result is unique and algorithm-independent; an insertion
// sort (quadratic in the pivot count, which the paper keeps small) avoids
// both the sort.SliceStable closure allocations and the interface
// conversion, fusing the Distances+Permutation path into zero allocations
// when the caller reuses buffers.
func PermutationInto(perm []int32, dists []float64) []int32 {
	if len(perm) != len(dists) {
		panic(fmt.Sprintf("pivot: destination holds %d elements, need %d", len(perm), len(dists)))
	}
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 1; i < len(perm); i++ {
		p := perm[i]
		d := dists[p]
		j := i
		for ; j > 0; j-- {
			q := perm[j-1]
			if dists[q] < d || (dists[q] == d && q < p) {
				break
			}
			perm[j] = q
		}
		perm[j] = p
	}
	return perm
}

// Ranks inverts a permutation: ranks[i] is the position of pivot i within
// perm (0-based). The approximate search uses ranks to compute the
// Spearman-footrule promise of a cell prefix in O(prefix length).
func Ranks(perm []int32) []int32 {
	return RanksInto(make([]int32, len(perm)), perm)
}

// RanksInto is Ranks writing into a caller-provided slice of length
// len(perm).
func RanksInto(ranks, perm []int32) []int32 {
	if len(ranks) != len(perm) {
		panic(fmt.Sprintf("pivot: destination holds %d elements, need %d", len(ranks), len(perm)))
	}
	for pos, p := range perm {
		ranks[p] = int32(pos)
	}
	return ranks
}

// Prefix returns the first l elements of perm (or all of perm when l exceeds
// its length) as an independent slice.
func Prefix(perm []int32, l int) []int32 {
	if l > len(perm) {
		l = len(perm)
	}
	out := make([]int32, l)
	copy(out, perm[:l])
	return out
}

// ValidPermutation reports whether perm is a permutation of 0..n-1.
func ValidPermutation(perm []int32, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// LowerBound returns the best metric lower bound on d(q, o) derivable from
// the two distance vectors via the triangle inequality:
//
//	d(q,o) >= max_i |d(q,p_i) - d(o,p_i)|
//
// This is the pivot-filtering bound applied on lines 5–7 of the paper's
// Algorithm 3 to shrink candidate sets server-side without knowing q or o.
func LowerBound(qDists, oDists []float64) float64 {
	return simd.AbsMaxDiff64(qDists, oDists)
}

// FootruleWeights precomputes the geometric level weights 1, 1/2, 1/4, ...
// used by the weighted Spearman footrule promise up to maxLevel entries.
func FootruleWeights(maxLevel int) []float64 {
	w := make([]float64, maxLevel)
	v := 1.0
	for i := range w {
		w[i] = v
		v /= 2
	}
	return w
}

// FootrulePromise scores a cell prefix against a query's pivot ranks using a
// level-weighted Spearman footrule:
//
//	promise = Σ_k w[k] · |rank_q(prefix[k]) − k|
//
// Lower is better: a cell whose prefix pivots appear early in the query's
// own permutation is likely to contain objects close to the query. This is
// the rank-based "promise value" of the paper's Algorithm 4 (line 3).
func FootrulePromise(qRanks []int32, prefix []int32, weights []float64) float64 {
	var s float64
	for k, p := range prefix {
		d := float64(qRanks[p] - int32(k))
		if d < 0 {
			d = -d
		}
		s += weights[k] * d
	}
	return s
}

// DistSumPromise scores a cell prefix by the level-weighted sum of the
// query's distances to the prefix pivots. It needs the full query–pivot
// distance vector (the "precise strategy" request payload) and is the
// alternative ranking evaluated by the ablation benchmarks.
func DistSumPromise(qDists []float64, prefix []int32, weights []float64) float64 {
	var s float64
	for k, p := range prefix {
		s += weights[k] * qDists[p]
	}
	return s
}
