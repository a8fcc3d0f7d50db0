package wire

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"simcloud/internal/mindex"
)

func TestHelloRespRoundTrip(t *testing.T) {
	cases := []HelloResp{
		{},
		{Version: ProtocolVersion, Mode: HelloModeEncrypted, NumPivots: 30, MaxLevel: 8, BucketCapacity: 200,
			Ranking: 1, EagerRootSplit: true, Shards: 16, Entries: math.MaxUint64},
		{Version: 9, Mode: HelloModePlain, NumPivots: 1, MaxLevel: 1, BucketCapacity: 1, Ranking: 2},
	}
	for _, want := range cases {
		got, err := DecodeHelloResp(want.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestHelloRespTruncated(t *testing.T) {
	full := HelloResp{Version: ProtocolVersion, Mode: 1, NumPivots: 4, MaxLevel: 2, BucketCapacity: 8, Shards: 1}.Encode()
	v1 := len(full) - 4 // a version-1 reply ends where the version field starts
	for n := range len(full) {
		if _, err := DecodeHelloResp(full[:n]); err == nil && n != v1 {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestHelloRespVersion1: a reply shaped like protocol version 1 (no trailing
// version field) must decode as version 1 — not be mis-read as something
// else — so the handshake can refuse it naming both versions.
func TestHelloRespVersion1(t *testing.T) {
	v2 := HelloResp{Version: ProtocolVersion, Mode: HelloModeEncrypted, NumPivots: 16, Entries: 3}
	full := v2.Encode()
	got, err := DecodeHelloResp(full[:len(full)-4])
	if err != nil {
		t.Fatal(err)
	}
	want := v2
	want.Version = 1
	if got != want {
		t.Fatalf("v1-shaped reply decoded as %+v, want %+v", got, want)
	}
	err = got.CheckVersion()
	if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", ProtocolVersion)) {
		t.Fatalf("version check on a v1 reply: %v (want an error naming both versions)", err)
	}
	if err := v2.CheckVersion(); err != nil {
		t.Fatalf("current version refused: %v", err)
	}
}

// TestBatchRankedRespRoundTrip also pins the candidate-record shape: a query
// reply carries each candidate's ID and payload and none of its index
// metadata, ranked or flat.
func TestBatchRankedRespRoundTrip(t *testing.T) {
	want := BatchRankedResp{
		ServerNanos: 42,
		Results: [][]mindex.RankedCandidate{
			nil,
			{
				{Entry: mindex.ViewOf(mindex.Entry{ID: 1, Perm: []int32{2, 0, 1}, Payload: []byte{9, 9}}),
					Promise: 0.25, Prefix: []int32{2}},
				{Entry: mindex.ViewOf(mindex.Entry{ID: 2, Perm: []int32{2, 1, 0}, Dists: []float64{1, 2, 3}, Payload: []byte{4}}),
					Promise: 0.5, Prefix: []int32{2, 1}},
			},
		},
	}
	got, err := DecodeBatchRankedResp(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerNanos != want.ServerNanos || len(got.Results) != len(want.Results) {
		t.Fatalf("round trip header mismatch: %+v", got)
	}
	if len(got.Results[0]) != 0 {
		t.Fatalf("empty result came back with %d candidates", len(got.Results[0]))
	}
	var flat Buffer
	want.AppendFlatTo(&flat, nil)
	gotFlat, err := DecodeBatchQueryResp(flat.B, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range want.Results[1] {
		g := got.Results[1][i]
		if g.Promise != rc.Promise || !reflect.DeepEqual(g.Prefix, rc.Prefix) {
			t.Fatalf("candidate %d annotations: got %+v, want %+v", i, g, rc)
		}
		shipped := mindex.Entry{ID: rc.Entry.ID, Payload: rc.Entry.Decode().Payload}
		for form, e := range map[string]mindex.Entry{"ranked": g.Entry.Decode(), "flat": gotFlat.Results[1][i]} {
			if !reflect.DeepEqual(e, shipped) {
				t.Fatalf("%s candidate %d: got %+v, want the ID and the payload alone: %+v", form, i, e, shipped)
			}
		}
	}
}

// TestRangePageRoundTrip: a flat reply ends each BatchRange result in its
// page trailer — full with the last candidate's bound key once the records
// reach PageBytes or the query's CandSize, a lone zero byte otherwise — and
// other kinds' results in nothing; both decoders read it back, and a flag
// byte other than 0 and 1, and a cut trailer, are refused.
func TestRangePageRoundTrip(t *testing.T) {
	cand := func(id uint64, lb float64, payload int) mindex.RankedCandidate {
		return mindex.RankedCandidate{Promise: lb, Entry: mindex.ViewOf(mindex.Entry{
			ID: id, Perm: []int32{1, 0}, Dists: []float64{1, 2}, Payload: make([]byte, payload)})}
	}
	half := PageBytes / 2
	full := []mindex.RankedCandidate{cand(4, 0.25, half), cand(9, 0.5, half)} // 2 × (half + 20) B
	short := []mindex.RankedCandidate{cand(3, 0.75, 10)}
	justUnder := []mindex.RankedCandidate{cand(5, 0.1, half-20), cand(6, 0.2, half-21)} // PageBytes − 1 B
	queries := []BatchQuery{{Kind: BatchRange}, {Kind: BatchRange}, {Kind: BatchRange}, {Kind: BatchApproxPerm},
		{Kind: BatchRange}, {Kind: BatchRange, CandSize: 1}, {Kind: BatchRange, CandSize: 3}}
	resp := BatchRankedResp{ServerNanos: 5, Results: [][]mindex.RankedCandidate{full, short, nil, short, justUnder, short, full}}
	want := []Page{{Full: true, Last: mindex.BoundKey{LB: 0.5, ID: 9}}, {}, {}, {}, {},
		{Full: true, Last: mindex.BoundKey{LB: 0.75, ID: 3}}, {Full: true, Last: mindex.BoundKey{LB: 0.5, ID: 9}}}
	for i, rcs := range resp.Results {
		if page := PageOf(rcs, int(queries[i].CandSize)); queries[i].Kind == BatchRange && page != want[i] {
			t.Fatalf("PageOf(result %d) = %+v, want %+v", i, page, want[i])
		}
	}
	var b Buffer
	resp.AppendFlatTo(&b, queries)
	out, err := DecodeBatchQueryResp(b.B, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pages, want) || len(out.Results[0]) != 2 || len(out.Results[3]) != 1 {
		t.Fatalf("decoded pages %+v, want %+v", out.Pages, want)
	}
	var refs CandidateRefs
	if err := refs.DecodeFlat(b.B, queries); err != nil || !reflect.DeepEqual(refs.Pages, want) {
		t.Fatalf("by-reference pages %+v (%v), want %+v", refs.Pages, err, want)
	}
	var lone Buffer
	BatchRankedResp{Results: [][]mindex.RankedCandidate{short}}.AppendFlatTo(&lone, queries[:1])
	if want := 8 + 4 + 4 + short[0].Bytes() + 1; len(lone.B) != want {
		t.Fatalf("a short page's reply is %d B, want %d: its trailer is one byte", len(lone.B), want)
	}
	at := 8 + 4 + 4 + len(mindex.AppendEntry(nil, mindex.Entry{ID: 4, Payload: make([]byte, half)}))*2
	if b.B[at] != 1 {
		t.Fatalf("full page's flag byte is %d", b.B[at])
	}
	for _, cut := range []int{at + 1, at + 9} {
		if _, err := DecodeBatchQueryResp(b.B[:cut], queries); err == nil {
			t.Fatalf("reply cut at %d of %d bytes decoded", cut, len(b.B))
		}
	}
	hostile := append([]byte(nil), b.B...)
	hostile[at] = 2
	if _, err := DecodeBatchQueryResp(hostile, queries); err == nil {
		t.Fatal("page flag 2 accepted")
	}
	if err := refs.DecodeFlat(hostile, queries); err == nil {
		t.Fatal("page flag 2 accepted by reference")
	}
}

// TestPageCheckFull: a page announced full must hold records that reach
// PageBytes or as many candidates as its query's CandSize, and end at a
// key that is its last candidate's and follows the query's cursor.
func TestPageCheckFull(t *testing.T) {
	after := &mindex.BoundKey{LB: 0.5, ID: 9}
	page := Page{Full: true, Last: mindex.BoundKey{LB: 0.5, ID: 10}}
	for name, tc := range map[string]struct {
		q      BatchQuery
		n, b   int
		last   uint64
		refuse string
	}{
		"by-bytes":      {BatchQuery{Kind: BatchRange, After: after}, 3, PageBytes, 10, ""},
		"by-count":      {BatchQuery{Kind: BatchRange, CandSize: 3, After: after}, 3, 60, 10, ""},
		"under-both":    {BatchQuery{Kind: BatchRange, CandSize: 4}, 3, PageBytes - 1, 10, "under the page budget"},
		"no-count-cut":  {BatchQuery{Kind: BatchRange}, 3, 60, 10, "under the page budget"},
		"empty":         {BatchQuery{Kind: BatchRange, CandSize: 3}, 0, 0, 0, "under the page budget"},
		"not-last":      {BatchQuery{Kind: BatchRange, CandSize: 3}, 3, 60, 11, "does not follow"},
		"stalled":       {BatchQuery{Kind: BatchRange, CandSize: 3, After: &page.Last}, 3, 60, 10, "does not follow"},
		"before-cursor": {BatchQuery{Kind: BatchRange, CandSize: 3, After: &mindex.BoundKey{LB: 0.75}}, 3, 60, 10, "does not follow"},
	} {
		err := page.CheckFull(tc.q, tc.n, tc.b, tc.last)
		if tc.refuse == "" && err != nil || tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)) {
			t.Errorf("%s: %v, want %q", name, err, tc.refuse)
		}
	}
}

func TestBatchRankedRespHostileCount(t *testing.T) {
	var b Buffer
	b.U64(0)
	b.U32(0xFFFFFFFF) // absurd result count for a tiny payload
	if _, err := DecodeBatchRankedResp(b.B); err == nil {
		t.Fatal("hostile result count decoded without error")
	}
}

func TestBatchQueryFirstCellRoundTrip(t *testing.T) {
	want := BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchFirstCell, Perm: []int32{3, 1, 2, 0}},
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 0.5},
	}}
	got, err := DecodeBatchQueryReq(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestCellCountsRoundTrip: the count request flag and its reply survive the
// wire, and one value decodes reply after reply into its own storage — runs
// of an earlier reply are not disturbed by a later decode into another value.
func TestCellCountsRoundTrip(t *testing.T) {
	queries := []BatchQuery{
		{Kind: BatchApproxPerm, Perm: []int32{1, 0}, CandSize: 10},
		{Kind: BatchApproxDists, Dists: []float64{1, 2}, CandSize: 3},
	}
	req, err := DecodeBatchQueryReq(BatchQueryReq{Queries: queries, Counts: true, Allow: []int32{1}}.Encode())
	if err != nil || !req.Counts || req.Ranked || !reflect.DeepEqual(req.Allow, []int32{1}) {
		t.Fatalf("count request round trip: %+v, %v", req, err)
	}
	in := BatchCellCountsResp{ServerNanos: 7, Results: [][]mindex.CellRun{
		{{Promise: 0.5, Prefix: []int32{1}, Count: 4}, {Promise: 0.5, Prefix: []int32{1, 0}, Count: 6}},
		{{Promise: 2, Count: 3}},
	}}
	var m BatchCellCountsResp
	for range 2 {
		if err := m.Decode(in.Encode(), queries); err != nil {
			t.Fatal(err)
		}
		if m.ServerNanos != 7 || !reflect.DeepEqual(m.Results, in.Results) {
			t.Fatalf("round trip: %+v", m.Results)
		}
	}
	if _, err := DecodeBatchCellCountsResp(in.Encode(), queries[:1]); err == nil {
		t.Fatal("a reply of two results decoded as the answer to one query")
	}
}
