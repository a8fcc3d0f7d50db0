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
