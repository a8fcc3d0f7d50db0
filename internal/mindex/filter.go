package mindex

import "fmt"

// PivotFilter restricts a search to the entries whose first permutation
// element — their first-level Voronoi cell — lies in an allowed set. A nil
// PivotFilter allows everything.
//
// The replicated cluster coordinator is the consumer: it assigns each
// first-level cell to exactly one live replica and sends every node a query
// filtered to its assigned cells, so each entry is counted by exactly one
// node no matter how many replicas store it. The filter applies at the top
// of the traversal — disallowed first-level subtrees are never visited, and
// on an unsplit root leaf the entries are filtered individually — before
// any candidate-size trimming, so a node's filtered candidate stream is
// byte-identical to what a node holding only the allowed cells would return.
type PivotFilter []bool

// NewPivotFilter builds a filter over numPivots first-level cells allowing
// exactly the listed pivots. A nil list is the nil, allow-all filter; an
// empty one allows nothing.
func NewPivotFilter(numPivots int, allowed []int32) (PivotFilter, error) {
	if numPivots <= 0 {
		return nil, fmt.Errorf("mindex: pivot filter needs a positive pivot count, got %d", numPivots)
	}
	if allowed == nil {
		return nil, nil
	}
	f := make(PivotFilter, numPivots)
	for _, p := range allowed {
		if p < 0 || int(p) >= numPivots {
			return nil, fmt.Errorf("mindex: pivot filter element %d out of range [0, %d)", p, numPivots)
		}
		f[p] = true
	}
	return f, nil
}

// Allows reports whether first-level cell p passes the filter.
func (f PivotFilter) Allows(p int32) bool {
	return f == nil || (p >= 0 && int(p) < len(f) && f[p])
}

// allowsView reports whether the entry's first-level cell passes the filter.
func (f PivotFilter) allowsView(v *EntryView) bool {
	return f == nil || (len(v.Perm()) > 0 && f.Allows(v.permAt(0)))
}
