package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// Refinement (Algorithm 2, lines 11–16) reads each candidate's ciphertext
// where it lies — in the response frame for the networked client, in the
// engine's bucket image for the in-process ones — decrypts and decodes it into
// scratch, computes the true distance there, and gives an Object memory of
// its own only if the candidate survives into the answer.

// candidates is a candidate set as refinement reads it: ciphertexts by
// reference, in the server's promise order.
type candidates interface {
	count() int
	at(i int) (id uint64, payload []byte)
	// bytes is the size of the candidates' records as a reply ships them,
	// what a range page's budget counts.
	bytes() int
}

// rankedCands are candidates the embedded engine returned.
type rankedCands []mindex.RankedCandidate

func (c rankedCands) count() int                { return len(c) }
func (c rankedCands) at(i int) (uint64, []byte) { return c[i].Entry.ID, c[i].Entry.Payload() }

func (c rankedCands) bytes() int {
	n := 0
	for i := range c {
		n += c[i].Bytes()
	}
	return n
}

// refCands are candidates decoded by reference out of a response frame;
// they are valid until the frame is released.
type refCands []wire.CandidateRef

func (c refCands) count() int                { return len(c) }
func (c refCands) at(i int) (uint64, []byte) { return c[i].ID, c[i].Payload }

func (c refCands) bytes() int {
	n := 0
	for i := range c {
		n += c[i].Bytes()
	}
	return n
}

// refineChunk is how many candidates are decrypted before their distances
// are computed. The two phases alternate chunk by chunk so that DecryptTime
// and DistCompTime each cost one clock read per chunk — per-candidate clock
// reads were themselves a measurable distortion of exactly the client-side
// times the paper's Tables report — while the decoded vectors of a chunk
// (36 KB at 280 dimensions) stay in cache between the phases.
const refineChunk = 32

// refiner is the scratch of one refinement, recycled through refiners.
type refiner struct {
	pt    []byte        // plaintext of the ciphertext being opened
	vecs  metric.Vector // the chunk's decoded vectors, back to back
	ends  [refineChunk]int
	ids   [refineChunk]uint64
	dists [refineChunk]float64
	// best is a max-heap by (Dist, ID) of the k nearest so far. Its vectors
	// are scratch too: an Object is materialized only for what is still in
	// the heap at the end.
	best []Result
}

var refiners = sync.Pool{New: func() any { return new(refiner) }}

// compareResults is the answer order: by distance, ties by ID.
func compareResults(a, b Result) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// refine decrypts the candidates and computes their true distances to q,
// returning the survivors in answer order: the k nearest when k > 0,
// everything within radius otherwise. limit > 0 refines only that many
// candidates — the pre-ranked, most promising prefix; Candidates is
// accounted as the number transferred, not merely refined, matching the
// paper's communication-cost measure.
func (c *coder) refine(q metric.Vector, cands candidates, limit, k int, radius float64, costs *stats.Costs) ([]Result, error) {
	n := cands.count()
	costs.Candidates += int64(n)
	if limit > 0 && n > limit {
		n = limit
	}
	dist := c.key.Pivots().Dist
	r := refiners.Get().(*refiner)
	defer refiners.Put(r)
	r.best = r.best[:0]
	var within []Result
	for lo := 0; lo < n; lo += refineChunk {
		hi := min(lo+refineChunk, n)
		decStart := time.Now()
		r.vecs = r.vecs[:0]
		for i := lo; i < hi; i++ {
			id, payload := cands.at(i)
			var err error
			if r.pt, err = c.key.OpenAppend(r.pt[:0], payload); err == nil {
				r.ids[i-lo], r.vecs, err = secret.AppendObjectVec(r.vecs, r.pt)
			}
			if err != nil {
				costs.DecryptTime += time.Since(decStart)
				return nil, fmt.Errorf("core: decrypting candidate %d: %w", id, err)
			}
			r.ends[i-lo] = len(r.vecs)
		}
		distStart := time.Now()
		costs.DecryptTime += distStart.Sub(decStart)
		at := 0
		for i := range hi - lo {
			r.dists[i] = dist.Dist(q, r.vecs[at:r.ends[i]])
			at = r.ends[i]
		}
		costs.DistCompTime += time.Since(distStart)
		costs.DistComps += int64(hi - lo)

		at = 0
		for i := range hi - lo {
			res := Result{ID: r.ids[i], Dist: r.dists[i]}
			vec := r.vecs[at:r.ends[i]]
			at = r.ends[i]
			switch {
			case k <= 0:
				if res.Dist <= radius {
					res.Object = metric.Object{ID: res.ID, Vec: slices.Clone(vec)}
					within = append(within, res)
				}
			case len(r.best) < k:
				r.push(res, vec)
			case compareResults(res, r.best[0]) < 0:
				r.replaceWorst(res, vec)
			}
		}
	}
	if k <= 0 {
		slices.SortFunc(within, compareResults)
		return within, nil
	}
	slices.SortFunc(r.best, compareResults)
	out := make([]Result, len(r.best))
	for i, res := range r.best {
		res.Object.Vec = slices.Clone(res.Object.Vec)
		out[i] = res
	}
	return out, nil
}

// push adds res to the heap, copying vec into the slot's scratch vector.
func (r *refiner) push(res Result, vec metric.Vector) {
	i := len(r.best)
	if i < cap(r.best) {
		r.best = r.best[:i+1] // the slot's old vector is kept for its capacity
	} else {
		r.best = append(r.best, Result{})
	}
	r.set(i, res, vec)
	for i > 0 {
		parent := (i - 1) / 2
		if compareResults(r.best[i], r.best[parent]) <= 0 {
			break
		}
		r.best[i], r.best[parent] = r.best[parent], r.best[i]
		i = parent
	}
}

// replaceWorst overwrites the heap's root — the worst of the k kept — with
// res and restores the heap.
func (r *refiner) replaceWorst(res Result, vec metric.Vector) {
	r.set(0, res, vec)
	for i := 0; ; {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(r.best) && compareResults(r.best[child], r.best[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return
		}
		r.best[i], r.best[worst] = r.best[worst], r.best[i]
		i = worst
	}
}

func (r *refiner) set(i int, res Result, vec metric.Vector) {
	res.Object = metric.Object{ID: res.ID, Vec: append(r.best[i].Object.Vec[:0], vec...)}
	r.best[i] = res
}

// maxRadius is an effectively unbounded query radius.
const maxRadius = 1e300
