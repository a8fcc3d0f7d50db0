package mindex

import "math"

// box is a cell's bounding box in pivot space: lo[p] ≤ d(o, p_p) ≤ hi[p] for
// every entry o stored below the cell and every pivot p — the per-node
// min/max distance to every pivot that PM-tree hyper-rings and SPB-tree
// MBBs keep (arXiv:2005.03468). It is built from Entry.Dists alone, values
// the server already stores, so it tells the server nothing new. Laid out as
// one slice, lo then hi, so a path-copy clones it in one allocation; the nil
// box bounds nothing.
type box []float64

// emptyBox is the box of a cell without entries: every interval inverted, so
// the first entry's distances become both bounds and an empty cell is at
// infinite distance from every query.
func emptyBox(numPivots int) box {
	b := make(box, 2*numPivots)
	for p := range numPivots {
		b[p], b[numPivots+p] = math.Inf(1), math.Inf(-1)
	}
	return b
}

func (b box) lo() []float64 { return b[:len(b)/2] }
func (b box) hi() []float64 { return b[len(b)/2:] }

// extend grows the box to cover one entry's distance vector. A NaN distance
// unbounds its dimension for good: the per-entry filter ignores that
// dimension of that entry, so the box must never prune on it.
func (b box) extend(dists []float64) {
	lo, hi := b.lo(), b.hi()
	for p, d := range dists {
		if math.IsNaN(d) {
			lo[p], hi[p] = math.Inf(-1), math.Inf(1)
			continue
		}
		if d < lo[p] {
			lo[p] = d
		}
		if d > hi[p] {
			hi[p] = d
		}
	}
}

// covers reports whether every distance lies inside the box, so that
// extend(dists) would change nothing. (A NaN lies inside no interval.)
func (b box) covers(dists []float64) bool {
	lo, hi := b.lo(), b.hi()
	for p, d := range dists {
		if !(d >= lo[p] && d <= hi[p]) {
			return false
		}
	}
	return true
}

// lowerBound returns max_p max(q_p − hi_p, lo_p − q_p, 0): by the triangle
// inequality a lower bound on d(q, o) for every entry o inside the box. It
// never exceeds pivot.LowerBound(q, o.Dists) = max_p |q_p − o_p| of any such
// entry — q_p − hi_p ≤ q_p − o_p and lo_p − q_p ≤ o_p − q_p, term by term,
// and floating-point subtraction is monotone — so a cell this bound prunes
// holds only entries the per-entry pivot filter would have dropped.
func (b box) lowerBound(q []float64) float64 {
	lo, hi := b.lo(), b.hi()
	lb := 0.0
	for p, d := range q {
		if v := d - hi[p]; v > lb {
			lb = v
		}
		if v := lo[p] - d; v > lb {
			lb = v
		}
	}
	return lb
}
