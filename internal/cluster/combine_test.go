package cluster

// White-box tests of the coordinator's combine step on canned node replies:
// the bytes it sends client-ward, its behaviour on replies no honest node
// would send, what it allocates, and how long it takes.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"simcloud/internal/merge"
	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

const combinePivots = 4

// cand builds one ranked candidate; the payload is derived from the ID so a
// misplaced record shows in the bytes.
func cand(id uint64, promise float64, prefix ...int32) mindex.RankedCandidate {
	return mindex.RankedCandidate{
		Entry: mindex.ViewOf(mindex.Entry{
			ID:      id,
			Perm:    []int32{int32(id % combinePivots), 1, 2},
			Dists:   []float64{float64(id), 0.5},
			Payload: bytes.Repeat([]byte{byte(id)}, 5+int(id%7)),
		}),
		Promise: promise,
		Prefix:  prefix,
	}
}

// rangeCand is a candidate as an exact query returns it: no annotations.
func rangeCand(id uint64) mindex.RankedCandidate {
	rc := cand(id, 0)
	rc.Prefix = nil
	return rc
}

// encodeReplies turns per-source, per-query ranked results into the reply
// frames the nodes would send.
func encodeReplies(perSource [][][]mindex.RankedCandidate) []nodeReply {
	replies := make([]nodeReply, len(perSource))
	for i, results := range perSource {
		replies[i] = nodeReply{
			typ:     wire.MsgBatchRankedCandidates,
			payload: wire.BatchRankedResp{ServerNanos: uint64(1000 + i), Results: results}.Encode(),
		}
	}
	return replies
}

// referenceCombine is the coordinator's former route, kept here as the
// definition of the client-ward bytes: decode every reply with the copying
// decoder, fold with merge.Combine, encode with AppendFlatTo.
func referenceCombine(t *testing.T, wqs []wire.BatchQuery, iqs []mindex.Query, replies []nodeReply) []byte {
	t.Helper()
	perNode := make([][][]mindex.RankedCandidate, len(replies))
	for i, rep := range replies {
		m, err := wire.DecodeBatchRankedResp(rep.payload)
		if err != nil {
			t.Fatal(err)
		}
		perNode[i] = m.Results
	}
	results := make([][]mindex.RankedCandidate, len(iqs))
	per := make([][]mindex.RankedCandidate, len(perNode))
	for qi, iq := range iqs {
		for i := range perNode {
			per[i] = perNode[i][qi]
		}
		results[qi] = merge.Combine(iq, per)
	}
	var buf wire.Buffer
	wire.BatchRankedResp{Results: results}.AppendFlatTo(&buf, wqs)
	return buf.B
}

func indexQueries(t testing.TB, wqs []wire.BatchQuery) []mindex.Query {
	t.Helper()
	iqs := make([]mindex.Query, len(wqs))
	for i, wq := range wqs {
		var err error
		if iqs[i], err = wq.IndexQuery(combinePivots, nil); err != nil {
			t.Fatal(err)
		}
	}
	return iqs
}

// TestCombineBytesMatchReference: for every query kind, source count, batch
// size and tie shape, the by-reference combine writes byte for byte what
// decode → merge.Combine → AppendFlatTo writes.
func TestCombineBytesMatchReference(t *testing.T) {
	perm := []int32{2, 0, 3, 1}
	dists := []float64{0.1, 0.2, 0.3, 0.4}
	kinds := map[string]wire.BatchQuery{
		"range":        {Kind: wire.BatchRange, Dists: dists, Radius: 1},
		"approx-perm":  {Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 5},
		"approx-dists": {Kind: wire.BatchApproxDists, Dists: dists, CandSize: 5},
		"first-cell":   {Kind: wire.BatchFirstCell, Perm: perm},
		"bound":        {Kind: wire.BatchRange, Dists: dists, Radius: math.Inf(1), CandSize: 5},
		"bound-3":      {Kind: wire.BatchRange, Dists: dists, Radius: math.Inf(1), CandSize: 3},
		"range-after":  {Kind: wire.BatchRange, Dists: dists, Radius: 1, After: &mindex.BoundKey{LB: 0.2, ID: 3}},
	}
	// Three sources' answers to one query, by shape. Each is sorted the way
	// a node sorts; "unsorted" is what a buggy node might send.
	shapes := map[string][][]mindex.RankedCandidate{
		"plain": {
			{cand(1, 0.1, 0), cand(2, 0.1, 0), cand(3, 0.6, 0, 2)},
			{cand(4, 0.2, 1), cand(5, 0.7, 1, 3)},
			{cand(6, 0.3, 2), cand(7, 0.3, 2), cand(8, 0.9, 2, 0)},
		},
		"empty-source": {
			{cand(1, 0.1, 0), cand(2, 0.4, 0, 1)},
			nil,
			{cand(3, 0.2, 2), cand(4, 0.2, 2)},
		},
		"promise-ties-across-sources": {
			{cand(1, 0.5, 0), cand(2, 0.5, 0)},
			{cand(3, 0.5, 1), cand(4, 0.5, 1, 2)},
			{cand(5, 0.5, 2), cand(6, 0.8, 2, 1)},
		},
		"prefix-ties": { // identical (promise, prefix) across sources: source order decides
			{cand(1, 0.5, 3), cand(2, 0.5, 3)},
			{cand(3, 0.5, 3)},
			{cand(4, 0.5, 3), cand(5, 0.5, 3, 0)},
		},
		"unsorted": {
			{cand(1, 0.9, 0), cand(2, 0.1, 0), cand(3, 0.5, 0, 2)},
			{cand(4, 0.7, 1), cand(5, 0.2, 1)},
			{cand(6, 0.3, 2)},
		},
		"unannotated": { // what an exact query returns
			{rangeCand(1), rangeCand(2)},
			{rangeCand(3)},
			{rangeCand(4), rangeCand(5), rangeCand(6)},
		},
	}
	for kindName, wq := range kinds {
		for shapeName, shape := range shapes {
			for _, sources := range []int{1, 3} {
				for _, batch := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/sources=%d/batch=%d", kindName, shapeName, sources, batch)
					t.Run(name, func(t *testing.T) {
						wqs := make([]wire.BatchQuery, batch)
						perSource := make([][][]mindex.RankedCandidate, sources)
						for qi := range wqs {
							wqs[qi] = wq
							for s := range perSource {
								// Rotate the shape per query so the batch's
								// queries have different answers.
								perSource[s] = append(perSource[s], shape[(s+qi)%len(shape)])
							}
						}
						iqs := indexQueries(t, wqs)
						replies := encodeReplies(perSource)
						var out wire.Buffer
						err := new(combiner).combine(iqs, replies, &out)
						if shapeName == "unsorted" && wq.Kind == wire.BatchRange {
							// A node's range page must come in bound-key
							// order: the merge of the pages relies on it.
							if err == nil || !strings.Contains(err.Error(), "out of bound-key order") {
								t.Fatalf("unsorted range page accepted (err %v)", err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if want := referenceCombine(t, wqs, iqs, replies); !bytes.Equal(out.B, want) {
							t.Fatalf("client-ward bytes differ from the reference\n got %x\nwant %x", out.B, want)
						}
					})
				}
			}
		}
	}
}

// TestCombineUnsortedSourceKeepsStableSortOrder pins the order itself, not
// just agreement with merge.Combine: an unsorted reply is still ordered as
// a stable sort by (promise, prefix, source) would order it.
func TestCombineUnsortedSourceKeepsStableSortOrder(t *testing.T) {
	perSource := [][][]mindex.RankedCandidate{
		{{cand(1, 0.9, 0), cand(2, 0.1, 0), cand(3, 0.5, 0, 2)}},
		{{cand(4, 0.5, 0, 2), cand(5, 0.1, 0)}},
	}
	wqs := []wire.BatchQuery{{Kind: wire.BatchApproxPerm, Perm: []int32{0, 1, 2, 3}, CandSize: 4}}
	iqs := indexQueries(t, wqs)
	var out wire.Buffer
	if err := new(combiner).combine(iqs, encodeReplies(perSource), &out); err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeBatchQueryResp(out.B, wqs)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, e := range m.Results[0] {
		got = append(got, e.ID)
	}
	if want := []uint64{2, 5, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestCombineHostileReplies: a reply no honest node sends — truncated, a
// count larger than its payload, the wrong number of results, the wrong
// message — is an error, never a panic and never a partial answer.
func TestCombineHostileReplies(t *testing.T) {
	iqs := indexQueries(t, []wire.BatchQuery{{Kind: wire.BatchApproxPerm, Perm: []int32{0, 1, 2, 3}, CandSize: 4}})
	good := encodeReplies([][][]mindex.RankedCandidate{{{cand(1, 0.1, 0), cand(2, 0.2, 1)}}})[0]

	var lyingCount wire.Buffer
	lyingCount.U64(0)
	lyingCount.U32(1)
	lyingCount.U32(0xFFFFFFFF)

	twoResults := encodeReplies([][][]mindex.RankedCandidate{{{cand(1, 0.1, 0)}, {cand(2, 0.2, 1)}}})[0]

	for name, bad := range map[string]nodeReply{
		"truncated":     {typ: good.typ, payload: good.payload[:len(good.payload)-4]},
		"trailing":      {typ: good.typ, payload: append(bytes.Clone(good.payload), 0)},
		"lying-count":   {typ: good.typ, payload: lyingCount.B},
		"empty":         {typ: good.typ},
		"extra-results": twoResults,
		"wrong-message": {typ: wire.MsgBatchCandidates, payload: good.payload},
	} {
		t.Run(name, func(t *testing.T) {
			for _, replies := range [][]nodeReply{{bad}, {good, bad}, {bad, good}} {
				var out wire.Buffer
				if err := new(combiner).combine(iqs, replies, &out); err == nil {
					t.Fatalf("hostile reply combined without error (%d replies)", len(replies))
				}
			}
		})
	}
}

// cannedReplies builds the benchmark's node replies: sources × perSource
// candidates, 1.2 KB payloads, spread over cells of 20 whose promises
// interleave across the sources — the shape of the benchmark's chain_refine
// query at the coordinator.
func cannedReplies(sources, perSource int) ([]mindex.Query, []nodeReply) {
	results := make([][][]mindex.RankedCandidate, sources)
	payload := bytes.Repeat([]byte{0xC7}, 1200)
	for s := range results {
		rcs := make([]mindex.RankedCandidate, perSource)
		for i := range rcs {
			cell := i / 20
			rcs[i] = mindex.RankedCandidate{
				Entry:   mindex.ViewOf(mindex.Entry{ID: uint64(s*perSource + i), Perm: []int32{int32(s), 1, 2, 3, 4, 5, 6, 7}, Payload: payload}),
				Promise: float64(cell*sources+s) / 100,
				Prefix:  []int32{int32(s), int32(cell), 3},
			}
		}
		results[s] = [][]mindex.RankedCandidate{rcs}
	}
	iqs := []mindex.Query{{Kind: mindex.KindApprox, CandSize: perSource}}
	return iqs, encodeReplies(results)
}

// TestCoordinatorCombineAllocs: what the combine allocates per query does
// not depend on how many candidates the nodes sent — ten times the
// candidates, the same handful of allocations.
func TestCoordinatorCombineAllocs(t *testing.T) {
	const ceiling = 8
	for _, perSource := range []int{40, 400} {
		iqs, replies := cannedReplies(3, perSource)
		cb := new(combiner)
		out := new(wire.Buffer)
		run := func() {
			if err := cb.combine(iqs, replies, out); err != nil {
				t.Fatal(err)
			}
		}
		run() // size the scratch once
		if got := testing.AllocsPerRun(50, run); got > ceiling {
			t.Errorf("%d candidates per source: %.1f allocs per combine, want <= %d", perSource, got, ceiling)
		}
	}
}

// BenchmarkCoordinatorCombine: 3 canned replies × 400 candidates × 1.2 KB →
// one flat 400-candidate reply, scratch and output buffer reused as in the
// serving loop.
func BenchmarkCoordinatorCombine(b *testing.B) {
	iqs, replies := cannedReplies(3, 400)
	cb := new(combiner)
	out := new(wire.Buffer)
	b.ReportAllocs()
	b.SetBytes(int64(len(replies[0].payload) * len(replies)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.combine(iqs, replies, out); err != nil {
			b.Fatal(err)
		}
	}
}
