package engine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
)

// TestSearchEquivalence is the engine-layer table on the single entry point:
// ranking ∈ {footrule, distance-sum} × shards ∈ {1, 4} × allow ∈ {nil,
// allow-all, half, empty} × kind (the bound-ordered kind and a range resumed
// after a cursor included). A filtered Search over the full engine
// must return exactly what the unfiltered Search returns over an engine
// holding only the allowed first-level cells — candidates, order and
// annotations — the contract the replicated coordinator's per-owner read
// assignment depends on; nil and allow-all are both compared against a full
// copy, so they agree byte for byte; the flat adapters are the Search
// result with the annotations dropped; and for every kind but download-all
// the 4-shard engine answers list for list what the 1-shard engine does —
// a range, resumed or paged, in bound-key order whatever the layout.
func TestSearchEquivalence(t *testing.T) {
	w := newWorld(t, 31, 1500, 20)
	all := make([]int32, testPivots)
	for i := range all {
		all[i] = int32(i)
	}
	allows := map[string][]int32{"nil": nil, "all": all, "half": {0, 1, 4, 7, 9, 11}, "empty": {}}

	build := func(cfg mindex.Config, allow mindex.PivotFilter) *ShardedIndex {
		t.Helper()
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		var kept []mindex.Entry
		for _, e := range w.entries {
			if allow.Allows(e.Perm[0]) {
				kept = append(kept, e)
			}
		}
		if err := eng.InsertBulk(kept); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	for _, ranking := range []mindex.RankStrategy{mindex.RankFootrule, mindex.RankDistSum} {
		unsharded := map[string][]mindex.RankedCandidate{} // the 1-shard answers
		for _, shards := range []int{1, 4} {
			cfg := testCfg(shards)
			cfg.Ranking = ranking
			// Shards=1 must also pass: a federated single-shard node runs
			// with the eager root split, matching the subset engine's shape.
			cfg.EagerRootSplit = true
			full := build(cfg, nil)
			for allowName, allow := range allows {
				filter, err := mindex.NewPivotFilter(testPivots, allow)
				if err != nil {
					t.Fatal(err)
				}
				subset := build(cfg, filter)
				for qi, qv := range w.queries {
					qDists := w.pv.Distances(qv)
					aq := mindex.ApproxQuery{Dists: qDists}
					if ranking == mindex.RankFootrule {
						aq.Ranks = pivot.Ranks(pivot.Permutation(qDists))
					}
					for kind, q := range map[string]mindex.Query{
						"range":       {Kind: mindex.KindRange, ApproxQuery: aq, Radius: 2.0},
						"range-after": {Kind: mindex.KindRange, ApproxQuery: aq, Radius: 2.0, After: &mindex.BoundKey{LB: 1, ID: 700}},
						"range-page":  {Kind: mindex.KindRange, ApproxQuery: aq, Radius: 2.0, Page: 4096},
						"approx":      {Kind: mindex.KindApprox, ApproxQuery: aq, CandSize: 200},
						"bound":       {Kind: mindex.KindRange, ApproxQuery: aq, Radius: math.Inf(1), CandSize: 200},
						"bound-page":  {Kind: mindex.KindRange, ApproxQuery: aq, Radius: math.Inf(1), CandSize: 200, Page: 4096},
						"first-cell":  {Kind: mindex.KindFirstCell, ApproxQuery: aq},
						"all":         {Kind: mindex.KindAll},
					} {
						name := fmt.Sprintf("%v/shards=%d/allow=%s/%s/q%d", ranking, shards, allowName, kind, qi)
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
							t.Fatalf("%s: filtered search over the full engine (%d) != search over the allowed cells only (%d)",
								name, len(got), len(want))
						}
						if allowName == "empty" && len(got) != 0 {
							t.Fatalf("%s: empty allow-list returned %d candidates", name, len(got))
						}
						if at := fmt.Sprintf("%s/%s/q%d", allowName, kind, qi); shards == 1 {
							unsharded[at] = got
						} else if q.Kind != mindex.KindAll && (len(got) > 0 || len(unsharded[at]) > 0) && !reflect.DeepEqual(got, unsharded[at]) {
							t.Fatalf("%s: answer (%d) != the 1-shard engine's (%d)", name, len(got), len(unsharded[at]))
						}
						if allowName == "nil" {
							checkFlatAdapters(t, name, full, q, got)
						}
						if q.Kind == mindex.KindApprox {
							checkCellCounts(t, name, full, q, got)
						}
					}
				}
			}
		}
	}
}

// checkFlatAdapters asserts the per-kind convenience methods are the Search
// result with the annotations dropped.
func checkFlatAdapters(t *testing.T, name string, eng *ShardedIndex, q mindex.Query, ranked []mindex.RankedCandidate) {
	t.Helper()
	if q.Kind == mindex.KindRange && (q.CandSize > 0 || q.After != nil || q.Page > 0) {
		return // the pages of a precise k-NN or a range have no flat adapter
	}
	want, _ := mindex.Flat(ranked, nil)
	var got []mindex.Entry
	var err error
	switch q.Kind {
	case mindex.KindRange:
		got, err = eng.RangeByDists(q.Dists, q.Radius)
	case mindex.KindApprox:
		got, err = eng.ApproxCandidates(q.ApproxQuery, q.CandSize)
		if err == nil {
			var rcs []mindex.RankedCandidate
			if rcs, err = eng.ApproxCandidatesRanked(q.ApproxQuery, q.CandSize); !reflect.DeepEqual(rcs, ranked) {
				t.Fatalf("%s: ApproxCandidatesRanked differs from Search", name)
			}
		}
	case mindex.KindFirstCell:
		got, err = mindex.Flat(eng.Search(mindex.Query{Kind: mindex.KindFirstCell, ApproxQuery: q.ApproxQuery}))
	case mindex.KindAll:
		got, err = eng.AllEntries()
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: flat adapter (%d entries) != Search with annotations dropped (%d)", name, len(got), len(want))
	}
}

// checkCellCounts asserts that an approximate query's cell counts — the
// shards' runs merged — are its Search result counted cell by cell.
func checkCellCounts(t *testing.T, name string, eng *ShardedIndex, q mindex.Query, ranked []mindex.RankedCandidate) {
	t.Helper()
	got, err := eng.CellCounts(q)
	if err != nil {
		t.Fatalf("%s: cell counts: %v", name, err)
	}
	var want []mindex.CellRun
	for _, rc := range ranked {
		if n := len(want); n > 0 && want[n-1].Promise == rc.Promise && slices.Equal(want[n-1].Prefix, rc.Prefix) {
			want[n-1].Count++
			continue
		}
		want = append(want, mindex.CellRun{Promise: rc.Promise, Prefix: rc.Prefix, Count: 1})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cell counts %v != the Search result's runs %v", name, got, want)
	}
}
