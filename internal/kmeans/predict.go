package kmeans

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// The learned candidate-size predictor. The global CandSize constant pays
// the same candidate budget for every query, but how many candidates a
// query actually needs varies with where it lands: a query deep inside a
// tight cell finds its neighbors in the first few candidates, one in the
// no-man's-land between centroids needs a far wider net. The distance to
// the nearest centroid (the query's first routing feature, already computed
// for free on every search) separates the two regimes, so a small monotone
// model over that single feature recovers most of the variance at zero
// query-time cost.
//
// The model is a quantile-binned lookup table: FitPredictor splits the
// calibration queries into equal-mass bins by their nearest-centroid
// distance d1 and allocates each bin a candidate budget by greedy marginal
// gain — every bin starts at the floor k, and budget increments go to
// whichever bin buys the most additional neighbor coverage per candidate
// spent, until the calibration sample's mean recall clears the target (the
// water-filling solution of the budgeted-recall problem). The table is
// monotone in the target recall by construction (a stricter level resumes
// the same allocation and only adds budget) but deliberately free-form
// along d1: real workloads are not monotone there — a query inside a dense
// cell pays for bucket-order dilution while a background query far from
// every centroid pays for neighbors scattered across near-tied cells, so
// the expensive queries sit at both ends of the d1 range with the cheap
// ones in between.

// CalSample is one calibration query's ground-truth profile: Need[j] is the
// minimal candidate-set size whose promise-ranked candidate stream covers
// j+1 of the query's true k nearest neighbors (math.MaxInt when the stream
// never covers that many). Need is non-decreasing in j.
type CalSample struct {
	D1   float64
	Need []int
}

// Predictor maps (target recall, nearest-centroid distance) to a candidate
// count. Fit one with FitPredictor; resolve queries with CandSize. The zero
// value is not usable.
type Predictor struct {
	// K is the neighbor count the predictor was calibrated for.
	K int
	// Levels are the fitted target recalls, ascending.
	Levels []float64
	// Edges are the d1 bin upper edges (len = bins-1; the last bin is
	// unbounded above).
	Edges []float64
	// Cand is the candidate-count table, [level][bin], non-decreasing along
	// the level axis and free-form along the bin axis.
	Cand [][]int
}

// FitPredictor fits the binned model described above. samples is the
// calibration profile (see CalSample and, for producing one,
// core.DirectClient.Calibrate), k the neighbor count the profiles
// were built for, levels the target recalls to fit (each in (0,1),
// strictly ascending), bins the number of equal-mass d1 bins.
func FitPredictor(samples []CalSample, k int, levels []float64, bins int) (*Predictor, error) {
	if len(samples) == 0 {
		return nil, errors.New("kmeans: no calibration samples")
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: predictor k must be positive, got %d", k)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("kmeans: bins must be positive, got %d", bins)
	}
	if bins > len(samples) {
		bins = len(samples)
	}
	if len(levels) == 0 {
		return nil, errors.New("kmeans: no target recall levels")
	}
	for i, r := range levels {
		if r <= 0 || r >= 1 {
			return nil, fmt.Errorf("kmeans: target recall %g outside (0, 1)", r)
		}
		if i > 0 && r <= levels[i-1] {
			return nil, errors.New("kmeans: target recall levels must be strictly ascending")
		}
	}
	maxFinite := 0
	for _, s := range samples {
		if len(s.Need) != k {
			return nil, fmt.Errorf("kmeans: calibration sample has %d need entries, want k=%d", len(s.Need), k)
		}
		for _, n := range s.Need {
			if n != math.MaxInt && n > maxFinite {
				maxFinite = n
			}
		}
	}
	if maxFinite == 0 {
		return nil, errors.New("kmeans: calibration samples carry no finite candidate counts")
	}

	// Equal-mass bins on d1.
	byD1 := make([]int, len(samples))
	for i := range byD1 {
		byD1[i] = i
	}
	sort.Slice(byD1, func(a, b int) bool { return samples[byD1[a]].D1 < samples[byD1[b]].D1 })
	edges := make([]float64, bins-1)
	for b := range edges {
		edges[b] = samples[byD1[(b+1)*len(samples)/bins-1]].D1
	}
	binOf := func(d1 float64) int {
		for b, e := range edges {
			if d1 <= e {
				return b
			}
		}
		return bins - 1
	}
	binned := make([][]int, bins) // sample indices per bin
	for i, s := range samples {
		b := binOf(s.D1)
		binned[b] = append(binned[b], i)
	}

	p := &Predictor{
		K:      k,
		Levels: append([]float64(nil), levels...),
		Edges:  edges,
		Cand:   make([][]int, len(levels)),
	}
	// Per-bin coverage breakpoints: every finite Need value of every sample
	// in the bin (clamped below at k — a k-NN candidate set below k is never
	// useful), flattened and sorted. The number of values ≤ c is exactly the
	// summed neighbor coverage of the bin's queries at budget c, so the
	// whole calibration objective reduces to rank lookups in these arrays.
	// MaxInt needs (coverage the stream never reaches) carry no breakpoint:
	// no budget buys them.
	flat := make([][]int, bins)
	for b, idxs := range binned {
		for _, i := range idxs {
			for _, n := range samples[i].Need {
				if n == math.MaxInt {
					continue
				}
				flat[b] = append(flat[b], max(n, k))
			}
		}
		sort.Ints(flat[b])
	}
	coveredAt := func(b, c int) int { return sort.SearchInts(flat[b], c+1) }
	total := float64(len(samples) * k)

	// Greedy marginal allocation: start every bin at the floor k and
	// repeatedly buy the jump with the best coverage gain per candidate
	// spent (candidate spend weighted by the bin's query mass), until the
	// level's bar is met. Levels continue the same allocation — a stricter
	// target only ever adds budget, so the table is monotone across levels
	// by construction.
	cand := make([]int, bins)
	cov := 0
	for b := range cand {
		cand[b] = k
		cov += coveredAt(b, k)
	}
	for li, r := range levels {
		// The bar pads the target by one standard error of the mean recall,
		// so an allocation that barely clears it in-sample still clears the
		// target out of sample. The pad is capped at two recall points: past
		// that the fit is buying overshoot, not safety.
		bar := r + min(math.Sqrt(r*(1-r)/float64(len(samples))), 0.02)
		for float64(cov)/total < bar {
			bestB, bestV, bestGain := -1, 0, 0
			bestRatio := -1.0
			for b := range cand {
				nb := len(binned[b])
				if nb == 0 {
					continue
				}
				base := coveredAt(b, cand[b])
				for idx := base; idx < len(flat[b]); {
					v := flat[b][idx]
					j := idx
					for j < len(flat[b]) && flat[b][j] == v {
						j++
					}
					if v > cand[b] {
						ratio := float64(j-base) / (float64(nb) * float64(v-cand[b]))
						if ratio > bestRatio {
							bestRatio, bestB, bestV, bestGain = ratio, b, v, j-base
						}
					}
					idx = j
				}
			}
			if bestB < 0 {
				break // every reachable neighbor is already covered
			}
			cand[bestB] = bestV
			cov += bestGain
		}
		row := append([]int(nil), cand...)
		// Bins with no calibration mass inherit the nearest fitted neighbor.
		for b := 1; b < bins; b++ {
			if len(binned[b]) == 0 {
				row[b] = row[b-1]
			}
		}
		for b := bins - 2; b >= 0; b-- {
			if len(binned[b]) == 0 && row[b] < row[b+1] {
				row[b] = row[b+1]
			}
		}
		p.Cand[li] = row
	}
	return p, nil
}

// CandSize resolves the candidate count for a query with nearest-centroid
// distance d1 and the given target recall. Targets between fitted levels
// round up to the next stricter level (conservative); targets above the
// strictest fitted level use it.
func (p *Predictor) CandSize(targetRecall, d1 float64) int {
	li := len(p.Levels) - 1
	for i, r := range p.Levels {
		if r >= targetRecall-1e-9 {
			li = i
			break
		}
	}
	b := len(p.Edges)
	for i, e := range p.Edges {
		if d1 <= e {
			b = i
			break
		}
	}
	return p.Cand[li][b]
}
