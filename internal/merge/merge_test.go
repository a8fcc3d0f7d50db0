package merge

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"simcloud/internal/mindex"
)

func rc(id uint64, promise float64, prefix ...int32) mindex.RankedCandidate {
	return mindex.RankedCandidate{Entry: mindex.ViewOf(mindex.Entry{ID: id, Perm: prefix}), Promise: promise, Prefix: prefix}
}

func ids(rcs []mindex.RankedCandidate) []uint64 {
	out := make([]uint64, len(rcs))
	for i, c := range rcs {
		out[i] = c.Entry.ID
	}
	return out
}

func TestRankedOrder(t *testing.T) {
	per := [][]mindex.RankedCandidate{
		{rc(1, 0.1, 0), rc(2, 0.1, 0), rc(3, 0.7, 2)}, // source 0, promise order
		{rc(4, 0.1, 1), rc(5, 0.3, 3)},                // source 1
		nil,                                           // an empty source contributes nothing
	}
	got := ids(Ranked(per))
	// promise 0.1 first: prefix 0 (ids 1,2 in bucket order) before prefix 1
	// (id 4); then 0.3, then 0.7.
	want := []uint64{1, 2, 4, 5, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRankedSourceTieBreak(t *testing.T) {
	// Identical (promise, prefix) across sources: source order decides, and
	// within one source bucket order is preserved (stable sort).
	per := [][]mindex.RankedCandidate{
		{rc(10, 0.5, 7), rc(11, 0.5, 7)},
		{rc(20, 0.5, 7)},
	}
	got := ids(Ranked(per))
	want := []uint64{10, 11, 20}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRankedPrefixTieBreak(t *testing.T) {
	// Equal promise, different prefixes: lexicographic, shorter first.
	per := [][]mindex.RankedCandidate{
		{rc(1, 0.2, 1, 2)},
		{rc(2, 0.2, 1)},
		{rc(3, 0.2, 0, 9)},
	}
	got := ids(Ranked(per))
	want := []uint64{3, 2, 1}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEntriesTrims(t *testing.T) {
	rcs := []mindex.RankedCandidate{rc(1, 0, 0), rc(2, 0, 0), rc(3, 0, 0)}
	if got := Entries(rcs, 2); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("trim to 2: got %v", got)
	}
	if got := Entries(rcs, -1); len(got) != 3 {
		t.Fatalf("candSize -1 should keep everything, got %d", len(got))
	}
	if got := Entries(rcs, 10); len(got) != 3 {
		t.Fatalf("oversized candSize should keep everything, got %d", len(got))
	}
}

func TestBestCell(t *testing.T) {
	cells := [][]mindex.RankedCandidate{
		nil, // empty source
		{rc(1, 0.4, 1)},
		{rc(2, 0.4, 0), rc(3, 0.4, 0)},
		{rc(4, 0.9)},
	}
	if got := BestCell(cells); got != 2 {
		t.Fatalf("best cell %d, want 2 (lowest promise, then prefix)", got)
	}
	if got := BestCell([][]mindex.RankedCandidate{nil, {}}); got != -1 {
		t.Fatalf("all-empty best cell %d, want -1", got)
	}
	// Equal (promise, prefix): first source wins.
	tie := [][]mindex.RankedCandidate{{rc(1, 0.4, 2)}, {rc(2, 0.4, 2)}}
	if got := BestCell(tie); got != 0 {
		t.Fatalf("tie best cell %d, want 0", got)
	}
}

// TestCombine: the combine rule follows the query kind — a range merges by
// (bound, ID), its promise being the bound, and a cut one stops at its
// candidate size or its budget, whichever comes first; download-all
// concatenates in source order, approximate candidates merge and trim, first-cell keeps the best source's cell.
func TestCombine(t *testing.T) {
	per := [][]mindex.RankedCandidate{
		{rc(1, 0.5, 1), rc(2, 0.7, 1, 0)},
		nil,
		{rc(3, 0.2, 0), rc(4, 0.2, 0), rc(5, 0.6, 0, 1)},
	}
	for _, tc := range []struct {
		q    mindex.Query
		want []uint64
	}{
		{mindex.Query{Kind: mindex.KindRange}, []uint64{3, 4, 1, 5, 2}},
		{mindex.Query{Kind: mindex.KindRange, Page: 1}, []uint64{3}},
		{mindex.Query{Kind: mindex.KindAll}, []uint64{1, 2, 3, 4, 5}},
		{mindex.Query{Kind: mindex.KindRange, CandSize: 3}, []uint64{3, 4, 1}},
		{mindex.Query{Kind: mindex.KindRange, CandSize: 3, Page: 1}, []uint64{3}},
		{mindex.Query{Kind: mindex.KindRange, CandSize: 1, Page: 1 << 20}, []uint64{3}},
		{mindex.Query{Kind: mindex.KindApprox, CandSize: 4}, []uint64{3, 4, 1, 5}},
		{mindex.Query{Kind: mindex.KindApprox, CandSize: 99}, []uint64{3, 4, 1, 5, 2}},
		{mindex.Query{Kind: mindex.KindFirstCell}, []uint64{3, 4, 5}},
	} {
		if got := ids(Combine(tc.q, per)); !slices.Equal(got, tc.want) {
			t.Errorf("kind %d candSize %d: got %v, want %v", tc.q.Kind, tc.q.CandSize, got, tc.want)
		}
	}
	if got := Combine(mindex.Query{Kind: mindex.KindFirstCell}, [][]mindex.RankedCandidate{nil, nil}); got != nil {
		t.Errorf("first cell over empty sources: got %v, want nil", got)
	}
}

// stableSortReference is the definition Ranked must keep meeting for any
// input: tag every candidate with its source, sort.SliceStable the
// concatenation by (promise, prefix, source). It is how Ranked used to be
// implemented, fat structs and all.
func stableSortReference(per [][]mindex.RankedCandidate) []mindex.RankedCandidate {
	type tagged struct {
		rc     mindex.RankedCandidate
		source int
	}
	var all []tagged
	for i, p := range per {
		for _, rc := range p {
			all = append(all, tagged{rc: rc, source: i})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.rc.Promise != y.rc.Promise {
			return x.rc.Promise < y.rc.Promise
		}
		if !slices.Equal(x.rc.Prefix, y.rc.Prefix) {
			return mindex.PrefixLess(x.rc.Prefix, y.rc.Prefix)
		}
		return x.source < y.source
	})
	out := make([]mindex.RankedCandidate, len(all))
	for i, t := range all {
		out[i] = t.rc
	}
	return out
}

// TestRankedMatchesStableSort: on well-formed (sorted) sources, on sources a
// buggy node left unsorted, and on NaN promises, the merge returns exactly
// what the stable sort returns — and Combine's trimmed merge is its prefix.
func TestRankedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2012))
	promises := []float64{0, 0.1, 0.1, 0.25, 0.5, 0.5, 0.75, 1}
	for round := range 600 {
		malformed := round%3 == 1 // unsorted sources
		withNaN := round%3 == 2
		per := make([][]mindex.RankedCandidate, 1+rng.IntN(5))
		var id uint64
		for s := range per {
			n := rng.IntN(60)
			if rng.IntN(4) == 0 {
				n = 0
			}
			for range n {
				id++
				prefix := make([]int32, rng.IntN(3))
				for k := range prefix {
					prefix[k] = int32(rng.IntN(3))
				}
				p := promises[rng.IntN(len(promises))]
				if withNaN && rng.IntN(20) == 0 {
					p = math.NaN()
				}
				per[s] = append(per[s], rc(id, p, prefix...))
			}
			if !malformed && !withNaN {
				slices.SortStableFunc(per[s], func(a, b mindex.RankedCandidate) int {
					if a.Promise != b.Promise {
						return cmp.Compare(a.Promise, b.Promise)
					}
					return slices.Compare(a.Prefix, b.Prefix)
				})
			}
		}
		want := ids(stableSortReference(per))
		if got := ids(Ranked(per)); !slices.Equal(got, want) {
			t.Fatalf("round %d (malformed %v, NaN %v): got %v, want %v", round, malformed, withNaN, got, want)
		}
		limit := rng.IntN(len(want) + 2)
		got := ids(Combine(mindex.Query{Kind: mindex.KindApprox, CandSize: limit}, per))
		if !slices.Equal(got, want[:min(limit, len(want))]) {
			t.Fatalf("round %d: Combine at %d got %v, want %v", round, limit, got, want[:min(limit, len(want))])
		}
	}
}

// TestRunsMatchCombine: merging the sources' cell runs gives, candidate for
// candidate, the cells of Combine's trimmed merge of the candidates, and
// each source's share is the number of its candidates Combine keeps.
func TestRunsMatchCombine(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 2012))
	promises := []float64{0, 0.1, 0.25, 0.5, 0.75}
	for round := range 400 {
		per := make([][]mindex.RankedCandidate, 1+rng.IntN(4))
		perRuns := make([][]mindex.CellRun, len(per))
		source := map[uint64]int{}
		var id uint64
		for s := range per {
			for range rng.IntN(50) {
				id++
				source[id] = s
				// Cells are shared across sources now and then, so the
				// source tie-break is exercised.
				per[s] = append(per[s], rc(id, promises[rng.IntN(len(promises))], int32(rng.IntN(3))))
			}
			slices.SortStableFunc(per[s], func(a, b mindex.RankedCandidate) int {
				if a.Promise != b.Promise {
					return cmp.Compare(a.Promise, b.Promise)
				}
				return slices.Compare(a.Prefix, b.Prefix)
			})
			for _, c := range per[s] {
				if n := len(perRuns[s]); n > 0 && perRuns[s][n-1].Promise == c.Promise && slices.Equal(perRuns[s][n-1].Prefix, c.Prefix) {
					perRuns[s][n-1].Count++
					continue
				}
				perRuns[s] = append(perRuns[s], mindex.CellRun{Promise: c.Promise, Prefix: c.Prefix, Count: 1})
			}
		}
		limit := rng.IntN(int(id) + 3)
		merged := Combine(mindex.Query{Kind: mindex.KindApprox, CandSize: limit}, per)
		runs, shares := Runs(perRuns, limit)
		want := make([]int, len(per))
		for _, c := range merged {
			want[source[c.Entry.ID]]++
		}
		if !slices.Equal(shares, want) {
			t.Fatalf("round %d, limit %d: shares %v, want %v", round, limit, shares, want)
		}
		var cells []mindex.CellRun
		for _, r := range runs {
			for range r.Count {
				cells = append(cells, mindex.CellRun{Promise: r.Promise, Prefix: r.Prefix})
			}
		}
		if len(cells) != len(merged) {
			t.Fatalf("round %d: runs count %d candidates, Combine keeps %d", round, len(cells), len(merged))
		}
		for i, c := range merged {
			if cells[i].Promise != c.Promise || !slices.Equal(cells[i].Prefix, c.Prefix) {
				t.Fatalf("round %d: candidate %d from cell (%g, %v), runs say (%g, %v)", round, i, c.Promise, c.Prefix, cells[i].Promise, cells[i].Prefix)
			}
		}
	}
}
