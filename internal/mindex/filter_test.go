package mindex

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
)

func TestPivotFilterValidation(t *testing.T) {
	if _, err := NewPivotFilter(0, nil); err == nil {
		t.Error("zero pivot count accepted")
	}
	if _, err := NewPivotFilter(8, []int32{8}); err == nil {
		t.Error("out-of-range pivot accepted")
	}
	if _, err := NewPivotFilter(8, []int32{-1}); err == nil {
		t.Error("negative pivot accepted")
	}
	f, err := NewPivotFilter(8, []int32{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Allows(0) || !f.Allows(3) || f.Allows(1) || f.Allows(7) {
		t.Errorf("filter %v misclassifies", f)
	}
	nilFilter, err := NewPivotFilter(8, nil)
	if err != nil || nilFilter != nil || !nilFilter.Allows(5) {
		t.Errorf("nil allow-list must be the nil, allow-all filter; got %v, %v", nilFilter, err)
	}
	none, err := NewPivotFilter(8, []int32{})
	if err != nil || none == nil || none.Allows(5) {
		t.Errorf("empty allow-list must allow nothing; got %v, %v", none, err)
	}
}

// searchCases is the kind axis of the equivalence tables: one Query per
// search primitive for a given pivot-space view of a query object. The
// approximate and bound-ordered kinds appear at several candidate sizes — 1
// trims inside the first cell, 300 spans many — and the range kind also
// resumed after a cursor.
func searchCases(aq ApproxQuery, radius float64) map[string]Query {
	return map[string]Query{
		"range":       {Kind: KindRange, ApproxQuery: aq, Radius: radius},
		"range-after": {Kind: KindRange, ApproxQuery: aq, Radius: radius, After: &BoundKey{LB: radius / 2, ID: 600}},
		"approx-1":    {Kind: KindApprox, ApproxQuery: aq, CandSize: 1},
		"approx-40":   {Kind: KindApprox, ApproxQuery: aq, CandSize: 40},
		"approx-300":  {Kind: KindApprox, ApproxQuery: aq, CandSize: 300},
		"bound-1":     {Kind: KindRange, ApproxQuery: aq, Radius: math.Inf(1), CandSize: 1},
		"bound-300":   {Kind: KindRange, ApproxQuery: aq, Radius: math.Inf(1), CandSize: 300},
		"first-cell":  {Kind: KindFirstCell, ApproxQuery: aq},
		"all":         {Kind: KindAll},
	}
}

// TestSearchEquivalence is the contract every layer above rests on, checked
// on the single entry point: for each ranking strategy × kind × allow-list,
//
//   - a nil allow-list answers byte-for-byte like the allow-all list;
//   - a filtered search over the full index returns exactly what the
//     unfiltered search returns over an index holding only the allowed
//     first-level cells — same entries, same order, same promise
//     annotations (what the replicated coordinator's one-owner-per-cell
//     reads depend on);
//   - the flat adapters return the Search result with the annotations
//     dropped.
//
// The 1200-entry indexes split their root eagerly (as every federated node
// does), so per-cell subtree shapes are identical by construction; the
// 15-entry ones stay one unsplit root leaf, the only place entries of
// different first-level cells share a bucket and are filtered one by one.
func TestSearchEquivalence(t *testing.T) {
	const nPivots = 8
	ds := dataset.Clustered(21, 1200, 6, 9, metric.L2{})
	rng := rand.New(rand.NewPCG(21, 99))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots)
	entries := make([]Entry, len(ds.Objects))
	for i, o := range ds.Objects {
		dists := pv.Distances(o.Vec)
		entries[i] = Entry{ID: uint64(i + 1), Perm: pivot.Permutation(dists), Dists: dists}
	}
	all := make([]int32, nPivots)
	for i := range all {
		all[i] = int32(i)
	}
	allows := map[string][]int32{"nil": nil, "all": all, "half": {0, 2, 5, 7}, "empty": {}}

	build := func(cfg Config, src []Entry, allow PivotFilter) *Index {
		t.Helper()
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		var kept []Entry
		for _, e := range src {
			if v := ViewOf(e); allow.allowsView(&v) {
				kept = append(kept, e)
			}
		}
		if err := ix.InsertBulk(kept); err != nil {
			t.Fatal(err)
		}
		return ix
	}

	for _, ranking := range []RankStrategy{RankFootrule, RankDistSum} {
		for _, shape := range []struct {
			name  string
			n     int
			eager bool
		}{{"split", len(entries), true}, {"root-leaf", 15, false}} {
			cfg := testConfig(nPivots)
			cfg.Ranking = ranking
			cfg.EagerRootSplit = shape.eager
			src := entries[:shape.n]
			full := build(cfg, src, nil)

			for allowName, allow := range allows {
				filter, err := NewPivotFilter(nPivots, allow)
				if err != nil {
					t.Fatal(err)
				}
				subset := build(cfg, src, filter)
				if allowName == "half" && (subset.Size() == 0 || subset.Size() == full.Size()) {
					t.Fatalf("degenerate split: %d of %d entries allowed", subset.Size(), full.Size())
				}
				for qi := 0; qi < 25; qi++ {
					qd := pv.Distances(ds.Objects[qi*37%len(ds.Objects)].Vec)
					// Dists serves the range kind under either ranking; the
					// ranked kinds get exactly what the strategy needs.
					aq := ApproxQuery{Dists: qd}
					if ranking == RankFootrule {
						aq.Ranks = pivot.Ranks(pivot.Permutation(qd))
					}
					for kind, q := range searchCases(aq, 2.5) {
						name := fmt.Sprintf("%v/%s/allow=%s/%s/q%d", ranking, shape.name, allowName, kind, qi)
						want, err := subset.Search(q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						q.Allow = filter
						got, err := full.Search(q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: filtered search over the full index (%d) != search over the allowed cells only (%d)",
								name, len(got), len(want))
						}
						if allowName == "empty" && len(got) != 0 {
							t.Fatalf("%s: empty allow-list returned %d candidates", name, len(got))
						}
						if allowName == "nil" {
							checkFlatAdapters(t, name, full, q, got)
						}
						checkCellCounts(t, name, full.CellCounts, q, got)
					}
				}
			}
		}
	}
}

// checkFlatAdapters asserts the per-kind convenience methods are the Search
// result with the annotations dropped.
func checkFlatAdapters(t *testing.T, name string, ix *Index, q Query, ranked []RankedCandidate) {
	t.Helper()
	if q.Kind == KindRange && q.CandSize > 0 || q.After != nil {
		return // the two pages of a precise k-NN have no flat adapter
	}
	want, _ := Flat(ranked, nil)
	var got []Entry
	var err error
	switch q.Kind {
	case KindRange:
		got, err = ix.RangeByDists(q.Dists, q.Radius)
	case KindApprox:
		got, err = ix.ApproxCandidates(q.ApproxQuery, q.CandSize)
		if err == nil {
			var rcs []RankedCandidate
			if rcs, err = ix.ApproxCandidatesRanked(q.ApproxQuery, q.CandSize); !reflect.DeepEqual(rcs, ranked) {
				t.Fatalf("%s: ApproxCandidatesRanked differs from Search", name)
			}
		}
	case KindFirstCell:
		got, err = Flat(ix.Search(Query{Kind: KindFirstCell, ApproxQuery: q.ApproxQuery}))
	case KindAll:
		got, err = ix.AllEntries()
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sameEntries(got, want) {
		t.Fatalf("%s: flat adapter (%d entries) != Search with annotations dropped (%d)", name, len(got), len(want))
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runsOf is the reference count form of a ranked candidate list: one run
// per maximal stretch of candidates from one cell.
func runsOf(rcs []RankedCandidate) []CellRun {
	var out []CellRun
	for _, rc := range rcs {
		if n := len(out); n > 0 && out[n-1].Promise == rc.Promise && slices.Equal(out[n-1].Prefix, rc.Prefix) {
			out[n-1].Count++
			continue
		}
		out = append(out, CellRun{Promise: rc.Promise, Prefix: rc.Prefix, Count: 1})
	}
	return out
}

// checkCellCounts asserts that an approximate query's cell counts are its
// Search result counted cell by cell, and that the other kinds have none.
func checkCellCounts(t *testing.T, name string, counts func(Query) ([]CellRun, error), q Query, ranked []RankedCandidate) {
	t.Helper()
	got, err := counts(q)
	if q.Kind != KindApprox {
		if err == nil {
			t.Fatalf("%s: cell counts of a non-approximate query", name)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: cell counts: %v", name, err)
	}
	if want := runsOf(ranked); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cell counts %v != the Search result's runs %v", name, got, want)
	}
}

// TestCellCountsUnderChurn: after deletes and moves the counts still come
// from the tree's live bookkeeping alone, and still equal the Search result
// cell by cell — tombstoned entries, moved entries and the unsplit root leaf
// (whose filtered entries are counted one by one) included.
func TestCellCountsUnderChurn(t *testing.T) {
	const nPivots = 8
	ds := dataset.Clustered(5, 900, 6, 7, metric.L2{})
	rng := rand.New(rand.NewPCG(5, 6))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, nPivots)
	entry := func(id uint64, v metric.Vector) Entry {
		dists := pv.Distances(v)
		return Entry{ID: id, Perm: pivot.Permutation(dists), Dists: dists}
	}
	for _, shape := range []struct {
		name  string
		n     int
		eager bool
	}{{"split", len(ds.Objects), true}, {"root-leaf", 16, false}} {
		cfg := testConfig(nPivots)
		cfg.EagerRootSplit = shape.eager
		ix, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		for i, o := range ds.Objects[:shape.n] {
			if err := ix.InsertBulk([]Entry{entry(uint64(i+1), o.Vec)}); err != nil {
				t.Fatal(err)
			}
		}
		var gone []uint64
		for i := range shape.n / 4 {
			gone = append(gone, uint64(rng.IntN(shape.n)+1))
			// A move re-files an entry in the cell of another object.
			if err := move(ix, entry(uint64(i*3+1), ds.Objects[rng.IntN(len(ds.Objects))].Vec)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.Delete(gone); err != nil {
			t.Fatal(err)
		}
		for _, allow := range [][]int32{nil, {1, 3, 4, 6}} {
			filter, err := NewPivotFilter(nPivots, allow)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range 10 {
				qd := pv.Distances(ds.Objects[qi*71%len(ds.Objects)].Vec)
				for _, candSize := range []int{1, 17, 250, 5000} {
					q := Query{Kind: KindApprox, CandSize: candSize, Allow: filter,
						ApproxQuery: ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qd)), Dists: qd}}
					got, err := ix.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					checkCellCounts(t, fmt.Sprintf("%s/allow=%v/q%d/cand=%d", shape.name, allow, qi, candSize), ix.CellCounts, q, got)
				}
			}
		}
	}
}
